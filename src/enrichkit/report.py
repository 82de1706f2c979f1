"""Check reports: pass/fail plus concrete witnesses, and the column engine
that evaluates diagram families.

A witness pins down a failed diagram: the diagram family name, the tuple of
ids that instantiates it, and the two evaluated legs that should have been
the same identifier.  `None` legs (a composite that could not be evaluated)
are rendered as "<undefined>".

Most diagrams are equations between two legs of table lookups.  A checker
states such a family as a row domain (tuples of ids in lexicographic order)
and a legs function over columns.  A product domain is declared by its
axes, one list of ids per row position (``equations``); any other row
iterable is one axis (``row_equations``).  A column carries the axes it
depends on: ``lift`` turns a lookup table, or a function of the key, into a
function from key columns to a value column over the union of their axes,
so a lookup runs once per point of that product only, and ``const`` is a
column on no axis.  The legs run once per block, the product of the
trailing axes with the fewest leading axes fixed so that it holds at most
``CHUNK`` rows.  A block whose equations all hold is counted whole by
``ReportBuilder.family``; only a failing block is walked row by row, for
each failing row's first failing equation.  ``each_row`` gives the families
checked one row at a time the same ``family`` loop, as blocks of one row.

``_memo(obj, key, build)`` is the one memo: it keeps ``build(obj)`` in a dict
on ``obj`` and returns it on every later call with that key, a hit being one
lookup in that dict.  Checker reports, products and their factors, units
and the base's cell record go through it.  That is sound only while a
structure is not mutated after its first check or construction: its tables
are plain dicts, and the memo never looks at them again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, product, repeat
from operator import mul

# Rows a block holds at most.
CHUNK = 1 << 15


def _fmt(value) -> str:
    return "<undefined>" if value is None else str(value)


@dataclass(frozen=True)
class Witness:
    diagram: str
    instance: tuple
    lhs: str
    rhs: str


@dataclass
class CheckReport:
    witnesses: list = field(default_factory=list)
    # diagram family -> number of instances evaluated (0 marks a vacuous family)
    families: dict = field(default_factory=dict)
    # non-fatal findings (e.g. a non-invertible associator component)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def first_for(self, family: str):
        for w in self.witnesses:
            if w.diagram == family:
                return w
        return None

    def failing_families(self) -> set:
        return {w.diagram for w in self.witnesses}

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        """Fold another report in, optionally namespacing its families."""
        for w in other.witnesses:
            self.witnesses.append(
                Witness(prefix + w.diagram, w.instance, w.lhs, w.rhs))
        for w in other.warnings:
            self.warnings.append(
                Witness(prefix + w.diagram, w.instance, w.lhs, w.rhs))
        for fam, count in other.families.items():
            key = prefix + fam
            self.families[key] = self.families.get(key, 0) + count


class ReportBuilder:
    """Accumulates one report, one diagram family at a time.

    Enumeration is deterministic: callers hand over blocks of instances, as
    any iterable, in lexicographic order.  Each family is one sequential pass
    that pulls blocks as it evaluates them and counts a passing block whole.
    With ``all_witnesses=False`` it stops at the first failure and pulls no
    further block.
    """

    def __init__(self, all_witnesses: bool = False):
        self.all_witnesses = all_witnesses
        self._report = CheckReport()

    def family(self, name: str, blocks, check) -> None:
        """Evaluate a diagram family a block of instances at a time.

        ``check(block)`` returns ``(n, failures)``: the block's number of
        instances and ``(k, instance, lhs, rhs)`` for each failing one, in
        order, ``k`` its offset in the block.  Records the number of
        instances evaluated: all of them, or up to and including the first
        failing one when the scan stops early.
        """
        count = 0
        for block in blocks:
            n, failures = check(block)
            for k, inst, lhs, rhs in failures:
                self._report.witnesses.append(
                    Witness(name, tuple(inst), _fmt(lhs), _fmt(rhs)))
                if not self.all_witnesses:
                    self._report.families[name] = count + k + 1
                    return
            count += n
        self._report.families[name] = count

    def vacuous(self, name: str) -> None:
        self._report.families[name] = 0

    def warn(self, name: str, instance, lhs, rhs) -> None:
        self._report.warnings.append(
            Witness(name, tuple(instance), _fmt(lhs), _fmt(rhs)))

    def merge(self, other: CheckReport, prefix: str = "") -> None:
        self._report.merge(other, prefix)

    def report(self) -> CheckReport:
        return self._report


def const(value):
    """An axis-free column: ``value`` in every row of every block."""
    return _Column((), [value])


def lift(table):
    """The column form of a lookup table, or of a function of the key.

    ``lift(table)(*key_columns)`` is the column of ``table.get(key)`` for the
    keys read across the columns row by row; a table keyed by single ids
    takes one column.  A callable ``table`` is called as ``table(key)``
    instead, with the same keys: a tuple for several columns, the value
    itself for one.  The result depends on the union of the arguments'
    axes, and the lookup runs once per point of their product only: a
    narrower argument is widened by repetition.  A key that is missing from
    a table or holds a ``None`` yields ``None``, so an undefined composite
    stays undefined through every lookup that uses it.
    """
    get = table if callable(table) else table.get

    def column(*key_columns):
        if len(key_columns) == 1:
            col, = key_columns
            return _Column(col.axes, list(map(get, col.values)))
        # Arguments on disjoint axes in increasing order, the common case,
        # are keyed by their product; any others are widened and zipped.
        axes = ()
        for col in key_columns:
            if col.axes:
                if axes and axes[-1] >= col.axes[0]:
                    break
                axes += col.axes
        else:
            keys = product(*[col.values for col in key_columns])
            return _Column(axes, list(map(get, keys)))
        axes = _union(key_columns)
        keys = zip(*[_widen(col, axes) for col in key_columns])
        return _Column(axes, list(map(get, keys)))
    return column


def equations(axes, legs):
    """The ``(blocks, check)`` arguments of ``ReportBuilder.family`` for a
    family of equations over the product of ``axes``.

    Row ``(v0, v1, ...)`` takes ``v0`` from ``axes[0]`` and so on, and rows
    run in the product's lexicographic order.  ``legs(*columns)`` gets one
    column per row position and returns the family's equations in order,
    each a pair of columns (lhs, rhs).  A row fails at its first equation
    whose lhs is ``None`` or differs from its rhs, and that equation's pair
    is its witness.

    A block is the product of the trailing axes with the fewest leading
    axes fixed so that it holds at most ``CHUNK`` rows; ``legs`` runs once
    per block, with a fixed axis as an axis-free column.
    """
    axes = [list(axis) for axis in axes]
    lead, n = len(axes), 1
    while lead and n * len(axes[lead - 1]) <= CHUNK:
        lead -= 1
        n *= len(axes[lead])
    free = tuple((i, len(axes[i])) for i in range(lead, len(axes)))
    trailing = [_Column((axis,), axes[axis[0]]) for axis in free]

    def check(prefix):
        def row(k):
            tail = []
            for i, size in reversed(free):
                k, j = divmod(k, size)
                tail.append(axes[i][j])
            return prefix + tuple(reversed(tail))
        columns = [_Column((), [v]) for v in prefix] + trailing
        return n, _failures(legs(*columns), free, row)
    return product(*axes[:lead]), check


def row_equations(rows, legs):
    """``equations`` over a row iterable that is no product, as one axis.

    Rows are tuples in the order the family scans them, pulled ``CHUNK`` at
    a time, so a family is never held whole; position ``p``'s column holds
    each row's ``p``-th id.
    """
    def blocks():
        it = iter(rows)
        while chunk := list(islice(it, CHUNK)):
            yield chunk

    def check(chunk):
        axes = ((0, len(chunk)),)
        columns = [_Column(axes, list(col)) for col in zip(*chunk)]
        return len(chunk), _failures(legs(*columns), axes, chunk.__getitem__)
    return blocks(), check


def each_row(rows, check):
    """The ``(blocks, check)`` arguments of ``ReportBuilder.family`` for a
    family checked one row at a time by ``check(row) -> None | (lhs, rhs)``:
    each row is a block of one."""
    def one(row):
        res = check(row)
        return 1, () if res is None else ((0, row, *res),)
    return rows, one


class _Column:
    """A column of a block: its values over the product of ``axes``.

    ``axes`` is the sorted tuple of the ``(axis, size)`` pairs the values
    depend on, and ``values`` lists them in row-major order, so an
    axis-free column holds one value.
    """
    __slots__ = ("axes", "values")

    def __init__(self, axes, values):
        self.axes, self.values = axes, values


def _union(columns) -> tuple:
    return tuple(sorted(set().union(*(col.axes for col in columns))))


def _widen(col, axes) -> list:
    """``col``'s values over ``axes``, a superset of its own axes."""
    values = col.values
    if col.axes == axes:
        return values
    # Adjacent missing axes are inserted as one, of their product's size.
    inner = n = 1
    for axis in reversed(axes):
        if axis in col.axes:
            if n != 1:
                values, inner, n = _repeat(values, inner, n), inner * n, 1
            inner *= axis[1]
        else:
            n *= axis[1]
    return values if n == 1 else _repeat(values, inner, n)


def _repeat(values: list, inner: int, n: int) -> list:
    """``values`` with each run of ``inner`` entries repeated ``n`` times."""
    runs = zip(*[iter(values)] * inner)
    return list(chain.from_iterable(map(mul, runs, repeat(n))))


def _failures(eqs, axes, row):
    """``(k, row(k), lhs, rhs)`` for each failing row ``k`` of a block over
    ``axes``, in order, with its first failing equation; ``()`` when the
    whole block passes."""
    failing = []
    for lhs, rhs in eqs:
        both = lhs.axes if lhs.axes == rhs.axes else _union((lhs, rhs))
        left = _widen(lhs, both)
        if None in left or left != _widen(rhs, both):
            failing.append((lhs, rhs))
    if not failing:
        return ()
    first = {}
    for lhs, rhs in failing:
        for k, (l, r) in enumerate(zip(_widen(lhs, axes), _widen(rhs, axes))):
            if l is None or l != r:
                first.setdefault(k, (l, r))
    return [(k, row(k), *first[k]) for k in sorted(first)]


def _memo(obj, key, build):
    """``build(obj)``, computed once per ``(obj, key)`` and stored on ``obj``."""
    try:
        return obj._memo[key]
    except (AttributeError, KeyError):
        pass
    value = vars(obj).setdefault("_memo", {})[key] = build(obj)
    return value


def cached_report(obj, check) -> CheckReport:
    """Memoize a checker run on a structure.

    The first full check is kept for the object's lifetime.  Structures are
    mutable dicts underneath, so do not mutate one after its first check:
    the cached report would not see the change.
    """
    return _memo(obj, "report", check)
