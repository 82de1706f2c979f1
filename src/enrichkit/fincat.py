"""Finite categories as explicit lookup tables.

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

from .errors import (
    CompositionUndefined,
    EmptyChain,
    MalformedTable,
    NotParallel,
    UnknownMorphism,
)
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


class FinFunctor(Record):
    __slots__ = ("source", "target", "obj_map", "mor_map")

    def __init__(self, source: FinCategory, target: FinCategory,
                 obj_map: dict, mor_map: dict):
        self.source = source
        self.target = target
        self.obj_map = obj_map
        self.mor_map = mor_map


class FinNatTransform(Record):
    __slots__ = ("source", "target", "components")

    def __init__(self, source: FinFunctor, target: FinFunctor,
                 components: dict):
        self.source = source
        self.target = target
        # object of source.source -> morphism of source.target
        self.components = components


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


def compose_chain(cat: FinCategory, morphisms) -> MorId:
    """Left fold of compose: [h, g, f] evaluates to h∘g∘f."""
    morphisms = list(morphisms)
    if not morphisms:
        raise EmptyChain("cannot compose an empty chain")
    acc = morphisms[0]
    if acc not in cat.morphisms:
        raise UnknownMorphism(f"unknown morphism {acc!r}")
    for f in morphisms[1:]:
        acc = compose(cat, acc, f)
    return acc


def identity_functor(cat: FinCategory) -> FinFunctor:
    return FinFunctor(cat, cat,
                      {a: a for a in cat.objects},
                      {m: m for m in cat.morphisms})


# -- checkers ---------------------------------------------------------------

def _require_tables(cat: FinCategory) -> None:
    if not cat.objects:
        raise MalformedTable("category has no objects")
    for m in cat.morphisms:
        if m not in cat.dom or m not in cat.cod:
            raise MalformedTable(f"morphism {m!r} missing dom/cod entry")
        if cat.dom[m] not in cat.objects or cat.cod[m] not in cat.objects:
            raise MalformedTable(f"morphism {m!r} has unknown endpoint")
    for a in cat.objects:
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


def check_functor(fun: FinFunctor, *,
                  all_witnesses: bool = False) -> CheckReport:
    """Verify a functor preserves boundaries, identities, and composites.

    Precondition: source and target already pass check_category.
    """
    src, tgt = fun.source, fun.target
    for a in src.objects:
        if a not in fun.obj_map:
            raise MalformedTable(f"object map missing entry for {a!r}")
        if fun.obj_map[a] not in tgt.objects:
            raise MalformedTable(f"object map sends {a!r} to an unknown object")
    for m in src.morphisms:
        if m not in fun.mor_map:
            raise MalformedTable(f"morphism map missing entry for {m!r}")
        if fun.mor_map[m] not in tgt.morphisms:
            raise MalformedTable(f"morphism map sends {m!r} to an unknown morphism")

    src_dom, src_cod, src_comp, src_idm = map(
        lift, (src.dom, src.cod, src.comp, src.identity))
    tgt_dom, tgt_cod, tgt_comp, tgt_idm = map(
        lift, (tgt.dom, tgt.cod, tgt.comp, tgt.identity))
    obj, mor = lift(fun.obj_map), lift(fun.mor_map)

    def boundary(f):
        img = mor(f)
        return [(tgt_dom(img), obj(src_dom(f))),
                (tgt_cod(img), obj(src_cod(f)))]

    def identities(a):
        return [(mor(src_idm(a)), tgt_idm(obj(a)))]

    def composites(g, f):
        return [(mor(src_comp(g, f)), tgt_comp(mor(g), mor(f)))]

    b = ReportBuilder(all_witnesses)
    for name, (blocks, check) in (
            ("functor-boundary", equations([sorted(src.morphisms)], boundary)),
            ("functor-identity", equations([sorted(src.objects)], identities)),
            ("functor-composition",
             row_equations(src.composable_pairs(), composites))):
        b.family(name, blocks, check)
    return b.report()


def check_natural(nat: FinNatTransform, *,
                  all_witnesses: bool = False) -> CheckReport:
    """Verify naturality squares for a transformation between parallel functors."""
    F, G = nat.source, nat.target
    if F.source is not G.source and F.source != G.source:
        raise NotParallel("functors do not share a source")
    if F.target is not G.target and F.target != G.target:
        raise NotParallel("functors do not share a target")
    src, tgt = F.source, F.target
    for a in src.objects:
        if a not in nat.components:
            raise MalformedTable(f"missing component at {a!r}")
        if nat.components[a] not in tgt.morphisms:
            raise MalformedTable(f"component at {a!r} is an unknown morphism")

    comp, dom, cod = lift(tgt.comp), lift(tgt.dom), lift(tgt.cod)
    src_dom, src_cod = lift(src.dom), lift(src.cod)
    component = lift(nat.components)
    F_obj, F_mor, G_obj, G_mor = map(
        lift, (F.obj_map, F.mor_map, G.obj_map, G.mor_map))

    def boundary(a):
        t = component(a)
        return [(dom(t), F_obj(a)), (cod(t), G_obj(a))]

    def square(f):
        return [(comp(G_mor(f), component(src_dom(f))),
                 comp(component(src_cod(f)), F_mor(f)))]

    b = ReportBuilder(all_witnesses)
    for name, axis, legs in (
            ("component-boundary", sorted(src.objects), boundary),
            ("naturality", sorted(src.morphisms), square)):
        b.family(name, *equations([axis], legs))
    return b.report()


def product_category(c1: FinCategory, c2: FinCategory) -> FinCategory:
    """Componentwise product category; ids are encoded pairs."""
    def encode(x, y):
        return f"({x},{y})"
    objects = {encode(a, b) for a, b in product(c1.objects, c2.objects)}
    morphisms = {encode(f, g) for f, g in product(c1.morphisms, c2.morphisms)}
    dom = {encode(f, g): encode(c1.dom[f], c2.dom[g])
           for f, g in product(c1.morphisms, c2.morphisms)}
    cod = {encode(f, g): encode(c1.cod[f], c2.cod[g])
           for f, g in product(c1.morphisms, c2.morphisms)}
    comp = {}
    for (g1, f1), h1 in c1.comp.items():
        for (g2, f2), h2 in c2.comp.items():
            comp[(encode(g1, g2), encode(f1, f2))] = encode(h1, h2)
    identity = {encode(a, b): encode(c1.identity[a], c2.identity[b])
                for a, b in product(c1.objects, c2.objects)}
    return FinCategory(objects, morphisms, dom, cod, comp, identity)
