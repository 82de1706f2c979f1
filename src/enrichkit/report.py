"""Check reports: pass/fail plus concrete witnesses, and the column engine
that evaluates diagram families.

A witness pins down a failed diagram: the diagram family name, the tuple of
ids that instantiates it, and the two evaluated legs that should have been
the same identifier.  `None` legs (a composite that could not be evaluated)
are rendered as "<undefined>".

Most diagrams are equations between two legs of table lookups.  A checker
states such a family as a row domain (tuples of ids in lexicographic order)
and a legs function over columns: ``lift`` turns each lookup table into a
function from key columns to a value column, and ``equations`` evaluates the
legs a chunk of rows at a time and hands the rows and their verdicts to
``ReportBuilder.family``.

``_memo(obj, key, build)`` is the one memo: it keeps ``build()`` in a dict on
``obj`` and returns it on every later call with that key.  Checker reports,
products and the unit enriched category go through it, which is sound because
structures are immutable once constructed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

# Rows evaluated per call of a family's legs function.
CHUNK = 4096


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

    Enumeration is deterministic: callers hand over instances, as any
    iterable, in lexicographic order.  Each family is one sequential pass
    that pulls instances as it evaluates them.  With ``all_witnesses=False``
    it stops at the first failure and pulls nothing further.
    """

    def __init__(self, all_witnesses: bool = False):
        self.all_witnesses = all_witnesses
        self._report = CheckReport()

    def family(self, name: str, instances, check) -> None:
        """Evaluate ``check(instance) -> None | (lhs, rhs)`` over a family.

        Records the number of instances evaluated: all of them, or up to and
        including the first failing one when the scan stops early.
        """
        count = 0
        for count, inst in enumerate(instances, 1):
            res = check(inst)
            if res is not None:
                self._report.witnesses.append(
                    Witness(name, tuple(inst), _fmt(res[0]), _fmt(res[1])))
                if not self.all_witnesses:
                    break
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


def lift(table):
    """The column form of a lookup table.

    ``lift(table)(*key_columns)`` is the list of ``table.get(key)`` for the
    keys read across the columns row by row; a table keyed by single ids
    takes one column.  A key that is missing or holds a ``None`` yields
    ``None``, so an undefined composite stays undefined through every lookup
    that uses it.  Columns are lists or tuples of one length.
    """
    get = table.get

    def column(*key_columns):
        keys = zip(*key_columns) if len(key_columns) > 1 else key_columns[0]
        return list(map(get, keys))
    return column


def equations(rows, legs):
    """The ``(instances, check)`` arguments of ``ReportBuilder.family`` for a
    family of equations.

    ``legs(*columns)`` gets a chunk of rows as one column per row position
    and returns the family's equations in order, each a pair of columns
    (lhs, rhs).  A row fails at its first equation whose lhs is ``None`` or
    differs from its rhs, and that equation's pair is its witness.  Rows are
    pulled ``CHUNK`` at a time, so a family is never held whole.
    """
    verdict = [None]

    def instances():
        it = iter(rows)
        while chunk := list(islice(it, CHUNK)):
            failures = _first_failures(len(chunk), legs(*zip(*chunk)))
            if not failures:
                verdict[0] = None
                yield from chunk
                continue
            for k, row in enumerate(chunk):
                verdict[0] = failures.get(k)
                yield row

    # family calls check on each row right after pulling it.
    return instances(), lambda row: verdict[0]


def _first_failures(n: int, eqs) -> dict:
    """Row index -> (lhs, rhs) of the row's first failing equation."""
    failed = {}
    for lhs, rhs in eqs:
        bad = [(k, l, r) for k, l, r in zip(range(n), lhs, rhs, strict=True)
               if l is None or l != r]
        for k, l, r in bad:
            failed.setdefault(k, (l, r))
    return failed


def _memo(obj, key, build):
    """``build()``, computed once per ``(obj, key)`` and stored on ``obj``."""
    memo = vars(obj).setdefault("_memo", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def cached_report(obj, check) -> CheckReport:
    """Memoize a checker run on an immutable structure.

    Structures are frozen after construction, so the first full check is
    authoritative for the object's lifetime.
    """
    return _memo(obj, "report", lambda: check(obj))
