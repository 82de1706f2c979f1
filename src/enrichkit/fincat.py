"""Finite categories as explicit lookup tables: the category record,
composition, inverses and the category checker.  The tower above only
enriches over such a category, so there are no ordinary functors here.

Objects and morphisms are opaque string ids.  Composition is a partial table
keyed by (second, first); an entry exists exactly for the composable pairs,
so a missing entry for a non-composable pair is the representation of
"mathematically undefined", not an error sentinel.  Every diagram check in
the higher layers eventually folds both legs down to morphism ids here and
compares them for equality.

Checkers state each diagram family as equations between legs of lifted
table lookups (``report.lift``), evaluated a block of instances at a time
by ``report.equations`` (product domains, declared by their axes) or
``report.row_equations`` (filtered rows); an undefined composite propagates
as ``None`` and fails its equation.
"""
from __future__ import annotations

from itertools import product

from .errors import CompositionUndefined, MalformedTable, UnknownMorphism
from .report import (CheckReport, Record, ReportBuilder, each_row, equations,
                     lift, row_equations)

ObjId = str
MorId = str


class FinCategory(Record):
    __slots__ = ("objects", "morphisms", "dom", "cod", "comp", "identity")

    def __init__(self, objects: set, morphisms: set, dom: dict, cod: dict,
                 comp: dict, identity: dict):
        self.objects = objects
        self.morphisms = morphisms
        self.dom = dom
        self.cod = cod
        # (g, f) -> g∘f, keyed exactly by composable pairs
        self.comp = comp
        self.identity = identity    # object -> its identity morphism

    def hom(self, a: ObjId, b: ObjId) -> list:
        """All morphisms a -> b, sorted."""
        return sorted(m for m in self.morphisms
                      if self.dom.get(m) == a and self.cod.get(m) == b)

    def composable_pairs(self) -> list:
        return sorted((g, f)
                      for g in self.morphisms for f in self.morphisms
                      if self.cod[f] == self.dom[g])


def compose(cat: FinCategory, g: MorId, f: MorId) -> MorId:
    """Composite g∘f, i.e. f first."""
    for m in (g, f):
        if m not in cat.morphisms:
            raise UnknownMorphism(f"unknown morphism {m!r}")
    if cat.cod[f] != cat.dom[g]:
        raise CompositionUndefined(
            f"cod({f}) = {cat.cod[f]} != {cat.dom[g]} = dom({g})")
    try:
        return cat.comp[(g, f)]
    except KeyError:
        raise CompositionUndefined(f"no table entry for ({g}, {f})")


def inverse(cat: FinCategory, m: MorId):
    """The first g in hom(cod m, dom m) with g∘m and m∘g identities, or
    None when m has no two-sided inverse."""
    for g in cat.hom(cat.cod[m], cat.dom[m]):
        if (cat.comp.get((g, m)) == cat.identity[cat.dom[m]]
                and cat.comp.get((m, g)) == cat.identity[cat.cod[m]]):
            return g
    return None


# -- checkers ---------------------------------------------------------------

def _require_tables(cat: FinCategory) -> None:
    if not cat.objects:
        raise MalformedTable("category has no objects")
    for m in sorted(cat.morphisms):
        if m not in cat.dom or m not in cat.cod:
            raise MalformedTable(f"morphism {m!r} missing dom/cod entry")
        if cat.dom[m] not in cat.objects or cat.cod[m] not in cat.objects:
            raise MalformedTable(f"morphism {m!r} has unknown endpoint")
    for a in sorted(cat.objects):
        if a not in cat.identity:
            raise MalformedTable(f"object {a!r} missing identity entry")
        if cat.identity[a] not in cat.morphisms:
            raise MalformedTable(f"identity of {a!r} is unknown")
    extra = set(cat.dom) - cat.morphisms
    if extra:
        raise MalformedTable(f"dom table mentions unknown morphisms {sorted(extra)}")
    extra = set(cat.identity) - cat.objects
    if extra:
        raise MalformedTable(f"identity table mentions unknown objects {sorted(extra)}")
    for (g, f), h in cat.comp.items():
        for m in (g, f, h):
            if m not in cat.morphisms:
                raise MalformedTable(f"comp entry ({g}, {f}) -> {h} mentions unknown morphism {m!r}")


def check_category(cat: FinCategory, *,
                   all_witnesses: bool = False) -> CheckReport:
    """Exhaustively verify the category axioms over the tables."""
    _require_tables(cat)
    objs = sorted(cat.objects)
    mors = sorted(cat.morphisms)
    comp, dom, cod, idm = map(lift, (cat.comp, cat.dom, cat.cod, cat.identity))

    def identity_boundary(a):
        i = idm(a)
        return [(dom(i), a), (cod(i), a)]

    # Its witness is a message, so this family is checked row by row.
    def composition_defined(pair):
        g, f = pair
        composable = cat.cod[f] == cat.dom[g]
        present = (g, f) in cat.comp
        if composable and not present:
            return None, f"entry for ({g}, {f})"
        if present and not composable:
            return cat.comp[(g, f)], None
        return None

    def composition_boundary(g, f):
        h = comp(g, f)
        return [(dom(h), dom(f)), (cod(h), cod(g))]

    def unit_left(e, f):
        return [(comp(e, f), f)]

    def unit_right(f, e):
        return [(comp(f, e), f)]

    def associativity(h, g, f):
        return [(comp(h, comp(g, f)), comp(comp(h, g), f))]

    b = ReportBuilder(all_witnesses)
    b.family("identity-boundary", *equations([objs], identity_boundary))
    b.family("composition-defined",
             *each_row(product(mors, repeat=2), composition_defined))
    # mors is sorted, so the nested loops already run in lexicographic order.
    triples = ((h, g, f)
               for h in mors for g in mors for f in mors
               if cat.cod[f] == cat.dom[g] and cat.cod[g] == cat.dom[h])
    for name, rows, legs in (
            ("composition-boundary", sorted(cat.comp), composition_boundary),
            ("unit-left", ((cat.identity[cat.cod[f]], f) for f in mors),
             unit_left),
            ("unit-right", ((f, cat.identity[cat.dom[f]]) for f in mors),
             unit_right),
            ("associativity", triples, associativity)):
        b.family(name, *row_equations(rows, legs))
    return b.report()
