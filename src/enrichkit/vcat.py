"""Level-1 enrichment: categories, functors, and transformations whose
hom-data are objects and morphisms of an iterated monoidal base.

Hom-objects are base object ids, never structured values, so every diagram
at this level folds down to morphism-id equality in the base category.
Product object sets are literal encoded pairs with no quotienting: the
strict unit law holds only after the canonical relabeling (a, 0) -> a,
which relabel_vcategory makes available bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import (
    BaseInvalid,
    IndexOutOfRange,
    MalformedTable,
    NotComposable,
    NotParallel,
    SourceTargetInvalid,
)
from .fincat import _c, compose
from .kfold import KFoldMonoidal, _tm, check_kfold
from .report import CheckReport, ReportBuilder, cached_report


def pair(a: str, b: str) -> str:
    """Canonical encoding of an ordered pair of object ids."""
    return f"({a},{b})"


@dataclass
class VCategory:
    base: KFoldMonoidal
    objects: set
    hom: dict        # (a, b) -> hom-object in the base
    comp: dict       # (a, b, c) -> composition morphism in the base
    identity: dict   # a -> identity element I -> hom(a, a)


@dataclass
class VFunctor:
    source: VCategory
    target: VCategory
    obj_map: dict
    hom_map: dict    # (a, b) -> base morphism hom_S(a,b) -> hom_T(Ta,Tb)


@dataclass
class VNatTransform:
    source: VFunctor
    target: VFunctor
    components: dict  # a -> base morphism I -> hom(Ta, Sa)


# -- gates --------------------------------------------------------------------

def _require_base(base: KFoldMonoidal) -> None:
    rep = cached_report(base, check_kfold)
    if not rep.ok:
        raise BaseInvalid("tensor structure failed its checker", rep)


def _require_vcategory(vc: VCategory, exc=SourceTargetInvalid) -> None:
    rep = cached_report(vc, check_vcategory)
    if not rep.ok:
        raise exc("enriched category failed its checker", rep)


def _require_vfunctor(vf: VFunctor, exc=SourceTargetInvalid) -> None:
    rep = cached_report(vf, check_vfunctor)
    if not rep.ok:
        raise exc("enriched functor failed its checker", rep)


# -- checkers -----------------------------------------------------------------

def check_vcategory(vc: VCategory, *,
                    all_witnesses: bool = False) -> CheckReport:
    """Pentagon and unit triangles over every object tuple."""
    _require_base(vc.base)
    base, cat = vc.base, vc.base.base
    if not vc.objects:
        raise MalformedTable("enriched category has no objects")
    objs = sorted(vc.objects)
    for a, b2 in iproduct(objs, repeat=2):
        if (a, b2) not in vc.hom or vc.hom[(a, b2)] not in cat.objects:
            raise MalformedTable(f"hom entry ({a}, {b2}) missing or unknown")
    for key in iproduct(objs, repeat=3):
        if key not in vc.comp or vc.comp[key] not in cat.morphisms:
            raise MalformedTable(f"composition entry {key} missing or unknown")
    for a in objs:
        if a not in vc.identity or vc.identity[a] not in cat.morphisms:
            raise MalformedTable(f"identity element for {a!r} missing or unknown")

    b = ReportBuilder(all_witnesses)

    def comp_boundary(tri):
        x, y, z = tri
        m = vc.comp[tri]
        want_dom = base.tensor_obj(1, vc.hom[(y, z)], vc.hom[(x, y)])
        if cat.dom[m] != want_dom:
            return cat.dom[m], want_dom
        if cat.cod[m] != vc.hom[(x, z)]:
            return cat.cod[m], vc.hom[(x, z)]
        return None
    b.family("composition-boundary", iproduct(objs, repeat=3), comp_boundary)

    def ident_boundary(a):
        m = vc.identity[a]
        if cat.dom[m] != base.unit:
            return cat.dom[m], base.unit
        if cat.cod[m] != vc.hom[(a, a)]:
            return cat.cod[m], vc.hom[(a, a)]
        return None
    b.family("identity-boundary", objs, ident_boundary)

    def pentagon(quad):
        x, y, z, w = quad
        hom_xy = vc.hom[(x, y)]
        lhs = _c(cat, vc.comp[(x, y, w)],
                 _tm(base, 1, vc.comp[(y, z, w)], cat.identity[hom_xy]))
        alpha = vc.base.assoc_table[1].get(
            (vc.hom[(z, w)], vc.hom[(y, z)], hom_xy))
        rhs = _c(cat, vc.comp[(x, z, w)],
                 _c(cat, _tm(base, 1, cat.identity[vc.hom[(z, w)]],
                             vc.comp[(x, y, z)]), alpha))
        return None if lhs == rhs and lhs is not None else (lhs, rhs)
    b.family("pentagon", iproduct(objs, repeat=4), pentagon)

    def unit_left(ab):
        x, y = ab
        hom_xy = vc.hom[(x, y)]
        got = _c(cat, vc.comp[(x, y, y)],
                 _tm(base, 1, vc.identity[y], cat.identity[hom_xy]))
        want = cat.identity[hom_xy]
        return None if got == want else (got, want)
    b.family("unit-left", iproduct(objs, repeat=2), unit_left)

    def unit_right(ab):
        x, y = ab
        hom_xy = vc.hom[(x, y)]
        got = _c(cat, vc.comp[(x, x, y)],
                 _tm(base, 1, cat.identity[hom_xy], vc.identity[x]))
        want = cat.identity[hom_xy]
        return None if got == want else (got, want)
    b.family("unit-right", iproduct(objs, repeat=2), unit_right)

    return b.report()


def check_vfunctor(vf: VFunctor, *,
                   all_witnesses: bool = False) -> CheckReport:
    """Composition square and unit triangle, per object pair/object."""
    if vf.source.base is not vf.target.base and vf.source.base != vf.target.base:
        raise MalformedTable("source and target live over different bases")
    _require_vcategory(vf.source)
    _require_vcategory(vf.target)
    base, cat = vf.source.base, vf.source.base.base
    src, tgt = vf.source, vf.target
    objs = sorted(src.objects)
    for a in objs:
        if a not in vf.obj_map or vf.obj_map[a] not in tgt.objects:
            raise MalformedTable(f"object map entry for {a!r} missing or unknown")
    for key in iproduct(objs, repeat=2):
        if key not in vf.hom_map or vf.hom_map[key] not in cat.morphisms:
            raise MalformedTable(f"hom map entry {key} missing or unknown")

    b = ReportBuilder(all_witnesses)

    def boundary(ab):
        x, y = ab
        m = vf.hom_map[(x, y)]
        if cat.dom[m] != src.hom[(x, y)]:
            return cat.dom[m], src.hom[(x, y)]
        want = tgt.hom[(vf.obj_map[x], vf.obj_map[y])]
        if cat.cod[m] != want:
            return cat.cod[m], want
        return None
    b.family("functor-boundary", iproduct(objs, repeat=2), boundary)

    def square(tri):
        x, y, z = tri
        lhs = _c(cat, vf.hom_map[(x, z)], src.comp[tri])
        rhs = _c(cat, tgt.comp[(vf.obj_map[x], vf.obj_map[y], vf.obj_map[z])],
                 _tm(base, 1, vf.hom_map[(y, z)], vf.hom_map[(x, y)]))
        return None if lhs == rhs and lhs is not None else (lhs, rhs)
    b.family("functor-composition", iproduct(objs, repeat=3), square)

    def unit(a):
        lhs = _c(cat, vf.hom_map[(a, a)], src.identity[a])
        rhs = tgt.identity[vf.obj_map[a]]
        return None if lhs == rhs and lhs is not None else (lhs, rhs)
    b.family("functor-identity", objs, unit)

    return b.report()


def check_vnat(nat: VNatTransform, *,
               all_witnesses: bool = False) -> CheckReport:
    """The enriched naturality hexagon for every object pair."""
    t, s = nat.source, nat.target
    if t.source != s.source or t.target != s.target:
        raise NotParallel("functors are not parallel")
    _require_vfunctor(t)
    _require_vfunctor(s)
    base, cat = t.source.base, t.source.base.base
    objs = sorted(t.source.objects)
    for a in objs:
        if a not in nat.components or nat.components[a] not in cat.morphisms:
            raise MalformedTable(f"component at {a!r} missing or unknown")

    b = ReportBuilder(all_witnesses)
    w = t.target

    def boundary(a):
        m = nat.components[a]
        if cat.dom[m] != base.unit:
            return cat.dom[m], base.unit
        want = w.hom[(t.obj_map[a], s.obj_map[a])]
        if cat.cod[m] != want:
            return cat.cod[m], want
        return None
    b.family("component-boundary", objs, boundary)

    def hexagon(ab):
        x, y = ab
        tx, ty = t.obj_map[x], t.obj_map[y]
        sx, sy = s.obj_map[x], s.obj_map[y]
        lhs = _c(cat, w.comp[(tx, ty, sy)],
                 _tm(base, 1, nat.components[y], t.hom_map[(x, y)]))
        rhs = _c(cat, w.comp[(tx, sx, sy)],
                 _tm(base, 1, s.hom_map[(x, y)], nat.components[x]))
        return None if lhs == rhs and lhs is not None else (lhs, rhs)
    b.family("naturality", iproduct(objs, repeat=2), hexagon)

    return b.report()


def vfunctor_equal(t: VFunctor, s: VFunctor) -> bool:
    """Equality of enriched functors: same object map, same hom tables."""
    if t.source != s.source or t.target != s.target:
        raise NotParallel("functors are not parallel")
    return t.obj_map == s.obj_map and t.hom_map == s.hom_map


# -- constructions ------------------------------------------------------------

def unit_vcategory(base: KFoldMonoidal) -> VCategory:
    """One object 0 with hom-object the base unit."""
    e = base.base.identity[base.unit]
    return VCategory(base, {"0"}, {("0", "0"): base.unit},
                     {("0", "0", "0"): e}, {"0": e})


def _same_base(a, b):
    if a.base is not b.base and a.base != b.base:
        raise MalformedTable("structures live over different bases")


def product_vcat(i: int, a: VCategory, b: VCategory) -> VCategory:
    """The i-th product: pairs of objects, hom-objects tensored one level up,
    composition routed through the (1, i+1) interchange."""
    _same_base(a, b)
    base = a.base
    if not 1 <= i <= base.n - 1:
        raise IndexOutOfRange(f"product index {i} needs tensor {i + 1} <= n")
    cat = base.base
    aobj, bobj = sorted(a.objects), sorted(b.objects)
    objects = {pair(x, y) for x in aobj for y in bobj}
    hom = {}
    comp = {}
    identity = {}
    for (x, y) in iproduct(aobj, bobj):
        for (x2, y2) in iproduct(aobj, bobj):
            hom[(pair(x, y), pair(x2, y2))] = base.tensor_obj(
                i + 1, a.hom[(x, x2)], b.hom[(y, y2)])
    for (x, y), (x2, y2), (x3, y3) in iproduct(
            iproduct(aobj, bobj), repeat=3):
        eta = base.interchange_mor(1, i + 1,
                                   a.hom[(x2, x3)], b.hom[(y2, y3)],
                                   a.hom[(x, x2)], b.hom[(y, y2)])
        both = base.tensor_mor(i + 1, a.comp[(x, x2, x3)], b.comp[(y, y2, y3)])
        comp[(pair(x, y), pair(x2, y2), pair(x3, y3))] = compose(cat, both, eta)
    for (x, y) in iproduct(aobj, bobj):
        identity[pair(x, y)] = base.tensor_mor(i + 1, a.identity[x],
                                               b.identity[y])
    return VCategory(base, objects, hom, comp, identity)


def product_vfunctor(i: int, t: VFunctor, s: VFunctor) -> VFunctor:
    """Formal product of functors: pair map on objects, tensored hom maps."""
    _same_base(t.source, s.source)
    base = t.source.base
    if not 1 <= i <= base.n - 1:
        raise IndexOutOfRange(f"product index {i} needs tensor {i + 1} <= n")
    source = product_vcat(i, t.source, s.source)
    target = product_vcat(i, t.target, s.target)
    obj_map = {}
    hom_map = {}
    for x in sorted(t.source.objects):
        for y in sorted(s.source.objects):
            obj_map[pair(x, y)] = pair(t.obj_map[x], s.obj_map[y])
    for (x, y) in iproduct(sorted(t.source.objects), sorted(s.source.objects)):
        for (x2, y2) in iproduct(sorted(t.source.objects),
                                 sorted(s.source.objects)):
            hom_map[(pair(x, y), pair(x2, y2))] = base.tensor_mor(
                i + 1, t.hom_map[(x, x2)], s.hom_map[(y, y2)])
    return VFunctor(source, target, obj_map, hom_map)


def product_vnat(i: int, s: VNatTransform, t: VNatTransform) -> VNatTransform:
    """Formal product of transformations: components are tensored one level up."""
    base = s.source.source.base
    source = product_vfunctor(i, s.source, t.source)
    target = product_vfunctor(i, s.target, t.target)
    components = {}
    for x in sorted(s.source.source.objects):
        for y in sorted(t.source.source.objects):
            components[pair(x, y)] = base.tensor_mor(
                i + 1, s.components[x], t.components[y])
    return VNatTransform(source, target, components)


def assoc_vcat(i: int, a: VCategory, b: VCategory, c: VCategory) -> VFunctor:
    """Associator functor ((a,b),c) -> (a,(b,c)) with shifted associator
    components on hom-objects."""
    _same_base(a, b)
    _same_base(b, c)
    base = a.base
    source = product_vcat(i, product_vcat(i, a, b), c)
    target = product_vcat(i, a, product_vcat(i, b, c))
    obj_map = {}
    hom_map = {}
    for x, y, z in iproduct(sorted(a.objects), sorted(b.objects),
                            sorted(c.objects)):
        obj_map[pair(pair(x, y), z)] = pair(x, pair(y, z))
    for (x, y, z) in iproduct(sorted(a.objects), sorted(b.objects),
                              sorted(c.objects)):
        for (x2, y2, z2) in iproduct(sorted(a.objects), sorted(b.objects),
                                     sorted(c.objects)):
            hom_map[(pair(pair(x, y), z), pair(pair(x2, y2), z2))] = \
                base.associator(i + 1, a.hom[(x, x2)], b.hom[(y, y2)],
                                c.hom[(z, z2)])
    return VFunctor(source, target, obj_map, hom_map)


def interchange_vcat(i: int, j: int, a: VCategory, b: VCategory,
                     c: VCategory, d: VCategory) -> VFunctor:
    """Interchange functor ((a,b),(c,d)) -> ((a,c),(b,d)) with shifted
    interchange components on hom-objects."""
    for other in (b, c, d):
        _same_base(a, other)
    base = a.base
    if not (i + 1 <= j and j + 1 <= base.n):
        raise IndexOutOfRange(
            f"interchange indices ({i}, {j}) need j >= i+1 and j+1 <= n")
    source = product_vcat(i, product_vcat(j, a, b), product_vcat(j, c, d))
    target = product_vcat(j, product_vcat(i, a, c), product_vcat(i, b, d))
    obj_map = {}
    hom_map = {}
    quads = list(iproduct(sorted(a.objects), sorted(b.objects),
                          sorted(c.objects), sorted(d.objects)))
    for (x, y, z, w) in quads:
        obj_map[pair(pair(x, y), pair(z, w))] = pair(pair(x, z), pair(y, w))
    for (x, y, z, w) in quads:
        for (x2, y2, z2, w2) in quads:
            hom_map[(pair(pair(x, y), pair(z, w)),
                     pair(pair(x2, y2), pair(z2, w2)))] = \
                base.interchange_mor(i + 1, j + 1,
                                     a.hom[(x, x2)], b.hom[(y, y2)],
                                     c.hom[(z, z2)], d.hom[(w, w2)])
    return VFunctor(source, target, obj_map, hom_map)


def identity_vfunctor(a: VCategory) -> VFunctor:
    cat = a.base.base
    return VFunctor(a, a, {x: x for x in a.objects},
                    {(x, y): cat.identity[a.hom[(x, y)]]
                     for x in a.objects for y in a.objects})


def identity_vnat(t: VFunctor) -> VNatTransform:
    """The identity transformation, components the identity elements j."""
    return VNatTransform(t, t, {x: t.target.identity[t.obj_map[x]]
                                for x in t.source.objects})


def compose_vfunctor(s: VFunctor, t: VFunctor) -> VFunctor:
    """s after t."""
    if t.target != s.source:
        raise NotComposable("functor frames do not match")
    cat = t.source.base.base
    obj_map = {x: s.obj_map[t.obj_map[x]] for x in t.source.objects}
    hom_map = {}
    for x in t.source.objects:
        for y in t.source.objects:
            hom_map[(x, y)] = compose(
                cat, s.hom_map[(t.obj_map[x], t.obj_map[y])],
                t.hom_map[(x, y)])
    return VFunctor(t.source, s.target, obj_map, hom_map)


def compose_vnat_vert(b: VNatTransform, a: VNatTransform) -> VNatTransform:
    """Vertical composite: a then b, components multiplied through M."""
    if a.target != b.source:
        raise NotComposable("transformation frames do not match")
    base = a.source.source.base
    cat = base.base
    w = a.source.target
    components = {}
    for x in a.source.source.objects:
        tx = a.source.obj_map[x]
        sx = a.target.obj_map[x]
        rx = b.target.obj_map[x]
        components[x] = compose(
            cat, w.comp[(tx, sx, rx)],
            base.tensor_mor(1, b.components[x], a.components[x]))
    return VNatTransform(a.source, b.target, components)


def whisker_vnat(side: str, f: VFunctor, a: VNatTransform) -> VNatTransform:
    """Whisker a functor onto a transformation ("left": f after a)."""
    cat = f.source.base.base
    if side == "left":
        if a.source.target != f.source:
            raise NotComposable("whisker frames do not match")
        components = {
            x: compose(cat,
                       f.hom_map[(a.source.obj_map[x], a.target.obj_map[x])],
                       a.components[x])
            for x in a.source.source.objects}
        return VNatTransform(compose_vfunctor(f, a.source),
                             compose_vfunctor(f, a.target), components)
    if side == "right":
        if f.target != a.source.source:
            raise NotComposable("whisker frames do not match")
        components = {x: a.components[f.obj_map[x]]
                      for x in f.source.objects}
        return VNatTransform(compose_vfunctor(a.source, f),
                             compose_vfunctor(a.target, f), components)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# -- strict-unit plumbing -----------------------------------------------------

def unit_relabel_left(i: int, a: VCategory) -> VFunctor:
    """product(i, I, a) -> a, the canonical (0, x) -> x relabeling."""
    base = a.base
    cat = base.base
    source = product_vcat(i, unit_vcategory(base), a)
    obj_map = {pair("0", x): x for x in a.objects}
    hom_map = {(pair("0", x), pair("0", y)): cat.identity[a.hom[(x, y)]]
               for x in a.objects for y in a.objects}
    return VFunctor(source, a, obj_map, hom_map)


def unit_relabel_right(i: int, a: VCategory) -> VFunctor:
    base = a.base
    cat = base.base
    source = product_vcat(i, a, unit_vcategory(base))
    obj_map = {pair(x, "0"): x for x in a.objects}
    hom_map = {(pair(x, "0"), pair(y, "0")): cat.identity[a.hom[(x, y)]]
               for x in a.objects for y in a.objects}
    return VFunctor(source, a, obj_map, hom_map)


def unit_intro_left(i: int, a: VCategory) -> VFunctor:
    """a -> product(i, I, a), inverse of the left relabeling."""
    base = a.base
    cat = base.base
    target = product_vcat(i, unit_vcategory(base), a)
    obj_map = {x: pair("0", x) for x in a.objects}
    hom_map = {(x, y): cat.identity[a.hom[(x, y)]]
               for x in a.objects for y in a.objects}
    return VFunctor(a, target, obj_map, hom_map)


def unit_intro_right(i: int, a: VCategory) -> VFunctor:
    base = a.base
    cat = base.base
    target = product_vcat(i, a, unit_vcategory(base))
    obj_map = {x: pair(x, "0") for x in a.objects}
    hom_map = {(x, y): cat.identity[a.hom[(x, y)]]
               for x in a.objects for y in a.objects}
    return VFunctor(a, target, obj_map, hom_map)


def unit_pair_intro(i: int, base: KFoldMonoidal) -> VFunctor:
    """I -> product(i, I, I), the 0 -> (0, 0) relabeling."""
    unitv = unit_vcategory(base)
    target = product_vcat(i, unitv, unitv)
    e = base.base.identity[base.unit]
    return VFunctor(unitv, target, {"0": pair("0", "0")}, {("0", "0"): e})


def relabel_vcategory(a: VCategory, obj_map: dict) -> VCategory:
    """Rename the object set through a bijection; tables re-keyed, data kept."""
    if sorted(obj_map) != sorted(a.objects) \
            or len(set(obj_map.values())) != len(a.objects):
        raise MalformedTable("relabeling is not a bijection on the object set")
    objects = set(obj_map.values())
    hom = {(obj_map[x], obj_map[y]): v for (x, y), v in a.hom.items()}
    comp = {(obj_map[x], obj_map[y], obj_map[z]): v
            for (x, y, z), v in a.comp.items()}
    identity = {obj_map[x]: v for x, v in a.identity.items()}
    return VCategory(a.base, objects, hom, comp, identity)
