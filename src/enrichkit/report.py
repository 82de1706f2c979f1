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

A block of at least ``CODED_ROWS`` rows whose axes hold at most 256 ids
each is coded (``_coded``); smaller blocks keep lists, where building codes
costs more than it saves.  A coded column holds ``bytes``, one code per
row over its axes, and the list of values the codes index.  A lookup on
coded columns whose key space is smaller than the rows reads the table,
or calls the function, once per distinct key present, in key order, over
one-byte keys built for all rows at once (``int.from_bytes``, a
multiply-add per argument, ``int.to_bytes``) and translated to result
codes (``bytes.translate``).  Arguments that share an axis are keyed
whole; arguments on disjoint axes are keyed in two groups, each on its
own axes, and the block is written from each group's classes of keys
(``_grouped``).  Any other lookup runs once per row and its result is
coded.  A result whose values are unhashable, or more than 256 distinct,
stays a list, and lookups on it run once per row.  Two coded legs are
compared whole, each code translated to an index over both legs'
distinct values; only a failing block is decoded and walked row by row,
so witnesses, counts and early exit do not depend on the kernel.

``_memo(obj, key, build)`` is the one memo: it keeps ``build(obj)`` in a dict
in the record's ``_memo`` slot and returns it on every later call with that
key, a hit being one lookup in that dict.  ``_memo_pair(tag, x, y, build)``
is its form for an operation of two operands, kept on ``x`` under
``(tag, id(y))``.  Checker reports, products and their factors, units, the
base's cell record, identity modifications and the two-operand level-2
operations go through it; level-1 composites and whiskers keep nothing, so
no entry outlives its check on a lasting composition functor.
That is sound only while a structure is not mutated after its first check or
construction: its tables are plain dicts, and the memo never looks at them
again.  A build that raises stores nothing, so a failed check runs again on
every call.
"""
from __future__ import annotations

from itertools import chain, compress, islice, product, repeat
from math import prod
from operator import add, attrgetter, mul

# Rows a block holds at most.  Coded keys fit a byte at any block size;
# 1 << 17 runs an eight-axis family over 5 ids as 5 blocks, and 1 << 19
# ran no faster and held more memory.
CHUNK = 1 << 17
# Rows a block must hold to be coded (``_coded``).
CODED_ROWS = 1 << 12


def _fmt(value) -> str:
    return "<undefined>" if value is None else str(value)


class Record:
    """A structure or report whose fields are its class's ``__slots__``, each
    set by the class's own ``__init__``.  Records of one class are equal when
    their fields are; records other than ``Witness`` are unhashable.
    ``_memo`` holds ``_memo``'s entries, and ``_generation_attempts`` is set
    on a random structure by ``instances``."""
    __slots__ = ("_memo", "_generation_attempts")
    __hash__ = None

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        # What comparing the fields gives: tuples take identical items as equal.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Witness(Record):
    """Hashable, and immutable once built."""
    __slots__ = ("diagram", "instance", "lhs", "rhs")

    def __init__(self, diagram: str, instance: tuple, lhs: str, rhs: str):
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckReport(Record):
    __slots__ = ("witnesses", "families", "warnings")

    def __init__(self, witnesses=None, families=None, warnings=None):
        self.witnesses = [] if witnesses is None else witnesses
        # diagram family -> number of instances evaluated (0 marks a vacuous
        # family)
        self.families = {} if families is None else families
        # non-fatal findings (e.g. a non-invertible associator component)
        self.warnings = [] if warnings is None else warnings

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

    def replay(self, earlier: str) -> tuple:
        """``(blocks, check)`` with which ``family`` records what the scan
        of ``earlier`` recorded: the same count, and the same witnesses, in
        order, under the new name.  That is what a family's own scan
        records when it evaluates the same legs over the same rows.

        The rows come back as one block of ``earlier``'s count.  ``family``
        reads a failure's offset only when it stops there, and a scan that
        stops does so at its last row."""
        rep = self._report
        count = rep.families[earlier]
        failures = [(count - 1, w.instance, w.lhs, w.rhs)
                    for w in rep.witnesses if w.diagram == earlier]
        return [count], lambda n: (n, failures)

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

    In a coded block, the lookup runs once per distinct key present, in key
    order, when the key space is smaller than the rows and fits a byte, or
    on disjoint axes splits into two that do (``_coded_lookup``); otherwise
    once per row, and the result is coded.
    """
    get = table if callable(table) else table.get

    def column(*key_columns):
        for col in key_columns:
            if type(col) is _Coded:
                return _coded_column(column, get, key_columns)
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


def _coded_column(column, get, key_columns):
    """``column``, the lookup ``get`` lifted, over key columns of which at
    least one is coded: once per distinct key (``_coded_lookup``) when it
    can, else once per row over the decoded columns, with the result coded
    unless an argument could not be."""
    coded = _coded_args(key_columns)
    if coded is not None:
        col = _coded_lookup(get, coded)
        if col is not None:
            return col
    col = column(*map(_decoded, key_columns))
    return col if coded is None else _encoded(col)


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
    per block, with a fixed axis as an axis-free column.  The block's axis
    columns are coded when ``_coded`` accepts its shape.
    """
    axes = [list(axis) for axis in axes]
    lead, n = len(axes), 1
    while lead and n * len(axes[lead - 1]) <= CHUNK:
        lead -= 1
        n *= len(axes[lead])
    free = tuple((i, len(axes[i])) for i in range(lead, len(axes)))
    if _coded(n, [size for _, size in free]):
        trailing = [_Coded((axis,), bytes(range(axis[1])), axes[axis[0]])
                    for axis in free]
    else:
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


def _coded(rows: int, sizes: list) -> bool:
    """Whether a block of ``rows`` rows over free axes of ``sizes`` ids is
    evaluated as codes: each axis id must fit a byte, and the block must be
    large enough that whole-column work repays building codes."""
    return rows >= CODED_ROWS and max(sizes, default=0) <= 256


class _Column:
    """A column of a block: its values over the product of ``axes``.

    ``axes`` is the sorted tuple of the ``(axis, size)`` pairs the values
    depend on, and ``values`` lists them in row-major order, so an
    axis-free column holds one value.
    """
    __slots__ = ("axes", "values")

    def __init__(self, axes, values):
        self.axes, self.values = axes, values


class _Coded:
    """A coded column: ``codes`` holds one byte per point of the product of
    ``axes``, in row-major order, and each byte indexes ``values``.  Every
    code occurs in ``codes``, which ``_coded_lookup`` relies on.  Values
    equal under ``==`` share a code when a lookup coded them, but an axis
    may list an id twice."""
    __slots__ = ("axes", "codes", "values")

    def __init__(self, axes, codes: bytes, values: list):
        self.axes, self.codes, self.values = axes, codes, values


def _rows(axes) -> int:
    return prod(size for _, size in axes)


def _union(columns) -> tuple:
    return tuple(sorted(set().union(*(col.axes for col in columns))))


def _decoded(col) -> _Column:
    """``col`` as a plain column."""
    if isinstance(col, _Column):
        return col
    return _Column(col.axes, list(map(col.values.__getitem__, col.codes)))


def _distinct(values):
    """``(distinct, code)``: the distinct values in the order they first
    occur, and a dict from each to its index; None when a value is
    unhashable or more than 256 are distinct."""
    try:
        code = dict.fromkeys(values)
    except TypeError:
        return None
    if len(code) > 256:
        return None
    distinct = list(code)
    code.update(zip(distinct, range(len(distinct))))
    return distinct, code


def _encoded(col: _Column):
    """``col`` coded, or as it is when ``_distinct`` cannot code it."""
    index = _distinct(col.values)
    if index is None:
        return col
    distinct, code = index
    return _Coded(col.axes, bytes(map(code.__getitem__, col.values)), distinct)


def _coded_args(key_columns):
    """The arguments of a lookup, one of them coded, as coded columns when
    the others are coded or axis-free; else None."""
    coded = []
    for col in key_columns:
        if isinstance(col, _Column):
            if col.axes:
                return None
            col = _Coded((), b"\0", col.values)
        coded.append(col)
    return coded


def _keys(columns, axes) -> bytes:
    """The mixed-radix key codes of coded ``columns`` over ``axes``, one
    byte a row, the key space fitting a byte.

    Each column's codes are read as one integer, so ``key * radix + codes``
    adds a digit to every row's key at once: no row's key leaves the key
    space, so nothing carries."""
    key = 0
    for col in columns:
        key = key * len(col.values) + int.from_bytes(
            _widen(col, axes, col.codes), "little")
    return key.to_bytes(_rows(axes), "little")


def _coded_lookup(get, columns):
    """``get`` over coded key columns, once per distinct key present, in key
    order, or None when the key space is not smaller than the rows or fits
    no byte (on disjoint axes, no two).

    Arguments on disjoint axes meet in every combination of their codes
    and go through ``_grouped``.  Others are keyed in one byte, the keys
    present found by scanning, and keys become result codes by
    ``bytes.translate``."""
    axes = _union(columns)
    space = prod(len(col.values) for col in columns)
    if space >= _rows(axes):
        return None
    values = [col.values for col in columns]
    every = product(*values) if len(values) > 1 else values[0]
    if sum(len(col.axes) for col in columns) == len(axes):
        return _grouped(get, columns, axes, every)
    if space > 256:
        return None
    keys = _keys(columns, axes)
    selectors = [k in keys for k in range(space)]
    present = list(compress(range(space), selectors))
    found = list(map(get, compress(every, selectors)))
    index = _distinct(found)
    if index is None:
        by_key = dict(zip(present, found))
        return _Column(axes, list(map(by_key.__getitem__, keys)))
    distinct, code = index
    table = bytearray(256)
    for k, value in zip(present, found):
        table[k] = code[value]
    return _Coded(axes, keys.translate(table), distinct)


def _grouped(get, columns, axes, every):
    """``get`` over coded key columns on disjoint ``axes``, read once at
    each key of ``every``, in key order; None when the arguments split into
    no two groups whose key spaces each fit a byte.

    The most even split ``columns[:p]``, ``columns[p:]`` that fits is
    taken, each group keyed in one byte on its own axes.  Key ``k1 * n + k2``
    reads line ``k1`` of the result codes as rows of ``n``, or line ``k2``
    as columns; a group's keys whose lines agree share a class
    (``_quotient``).  If one group's axes all come before the other's, the
    inner key translated by each outer class's line is joined in outer key
    order; else a one-byte key over both groups' classes is translated.
    Uncodable results, and classes that do not fit a byte, are laid out
    once per row from the values read."""
    sizes = [len(col.values) for col in columns]
    splits = [p for p in range(1, max(len(columns), 2))
              if prod(sizes[:p]) <= 256 and prod(sizes[p:]) <= 256]
    if not splits:
        return None
    p = min(splits, key=lambda p: max(prod(sizes[:p]), prod(sizes[p:])))
    first, second = (_Coded(_union(part), _keys(part, _union(part)),
                            range(prod(len(col.values) for col in part)))
                     for part in (columns[:p], columns[p:]))
    found, n = list(map(get, every)), len(second.values)
    index = _distinct(found)
    if index is not None:
        distinct, code = index
        table = bytes(map(code.__getitem__, found))
        rows = [table[k:k + n] for k in range(0, len(table), n)]
        cols = [table[k::n] for k in range(n)]
        left, right = _quotient(first, rows), _quotient(second, cols)
        if not second.axes or first.axes and second.axes[-1] < first.axes[0]:
            return _Coded(axes, _joined(right, first, cols), distinct)
        if not first.axes or first.axes[-1] < second.axes[0]:
            return _Coded(axes, _joined(left, second, rows), distinct)
        if len(left.values) * len(right.values) <= 256:
            by_class = bytes(table[i * n + j]
                             for i in left.values for j in right.values)
            return _Coded(axes, _keys((left, right), axes).translate(
                by_class.ljust(256, b"\0")), distinct)
    keys = list(map(add, map(mul, _widen(first, axes, first.codes),
                             repeat(n)), _widen(second, axes, second.codes)))
    if index is None:
        return _Column(axes, list(map(found.__getitem__, keys)))
    return _Coded(axes, bytes(map(table.__getitem__, keys)), distinct)


def _quotient(group, lines) -> _Coded:
    """``group``'s key as class codes, its keys ``k`` whose ``lines[k]``
    agree sharing a class; the values are each class's first key."""
    first = {}
    for k, line in enumerate(lines):
        first.setdefault(line, k)
    classes = dict(zip(first, range(len(first))))
    return _Coded(group.axes, group.codes.translate(
        bytes(map(classes.__getitem__, lines)).ljust(256, b"\0")),
        list(first.values()))


def _joined(outer, inner, lines) -> bytes:
    """The codes over ``outer``'s axes and then ``inner``'s of two groups,
    ``outer`` as classes: ``inner``'s key translated by each class's line,
    joined in the order of ``outer``'s codes."""
    pieces = [inner.codes.translate(lines[k].ljust(256, b"\0"))
              for k in outer.values]
    return b"".join(map(pieces.__getitem__, outer.codes))


def _widen(col, axes, values=None):
    """``col``'s values (or ``values`` over its axes, such as its codes)
    over ``axes``, a superset of its own axes."""
    if values is None:
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


def _repeat(values, inner: int, n: int):
    """``values``, a list or bytes, with each run of ``inner`` entries
    repeated ``n`` times."""
    if isinstance(values, bytes):
        if inner == len(values):
            return values * n
        bounds = range(0, len(values) + inner, inner)
        runs = map(values.__getitem__, map(slice, bounds, bounds[1:]))
        return b"".join(map(mul, runs, repeat(n)))
    runs = zip(*[iter(values)] * inner)
    return list(chain.from_iterable(map(mul, runs, repeat(n))))


def _coded_holds(lhs, rhs, axes) -> bool:
    """Whether ``lhs``, one of two legs at least one coded, equals ``rhs``,
    with no ``None``, in every row of ``axes``, shown without decoding: each
    code is translated to its value's index among both legs' distinct
    values, and the two byte strings compared.  False when they differ or
    cannot be so compared."""
    coded = _coded_args((lhs, rhs))
    index = coded and _distinct(chain(coded[1].values, coded[0].values))
    if not index or len(index[0]) == 256:
        return False
    (left, right), (_, code) = coded, index
    # ``None`` on the left takes 255, an index no value on the right has.
    to_left = bytes(255 if v is None else code[v] for v in left.values)
    to_right = bytes(map(code.__getitem__, right.values))
    return (_widen(left, axes, left.codes).translate(to_left.ljust(256, b"\0"))
            == _widen(right, axes, right.codes).translate(
                to_right.ljust(256, b"\0")))


def _failures(eqs, axes, row):
    """``(k, row(k), lhs, rhs)`` for each failing row ``k`` of a block over
    ``axes``, in order, with its first failing equation; ``()`` when the
    whole block passes."""
    failing = []
    for lhs, rhs in eqs:
        both = lhs.axes if lhs.axes == rhs.axes else _union((lhs, rhs))
        if type(lhs) is _Coded or type(rhs) is _Coded:
            if _coded_holds(lhs, rhs, both):
                continue
            lhs, rhs = _decoded(lhs), _decoded(rhs)
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
    memo = getattr(obj, "_memo", None)
    if memo is None:
        memo = obj._memo = {}
    elif key in memo:
        return memo[key]
    value = memo[key] = build(obj)
    return value


def _memo_pair(tag, x, y, build):
    """``build(x, y)``, computed once per ``(tag, x, y)`` and kept on ``x``
    under ``(tag, id(y))``; the entry holds ``y``, so while it stands id(y)
    names no other object."""
    return _memo(x, (tag, id(y)), lambda x: (y, build(x, y)))[1]


def cached_report(obj, check) -> CheckReport:
    """Memoize a checker run on a structure.

    The first full check is kept for the object's lifetime.  Structures are
    mutable dicts underneath, so do not mutate one after its first check:
    the cached report would not see the change.
    """
    return _memo(obj, "report", check)
