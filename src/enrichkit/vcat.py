"""Level-1 enrichment: categories, functors, and transformations whose
hom-data are objects and morphisms of an iterated monoidal base.

Hom-objects are base object ids, never structured values, so every diagram
at this level folds down to morphism-id equality in the base category, and
the checkers state it as column equations over the base's lifted tables
(``kfold.LiftedTables``) and the structure's own tables, which
``report.equations`` evaluates a block of object tuples at a time.
The axioms (boundaries, pentagon, unit laws, functor square and unit
triangle, naturality) are written once, as tables over the operations of
the monoidal category enriched in (``_Ops``); the checkers here read them
over the base, and v2cat reads the same tables over V-Cat, and the
naturality table once more over V-Cat's 2-cells for the modification axiom.
The constructions both levels share (product, unit, composites, identities,
whiskers) are written once too, over a record of its cells (``_Cells``)
that v2cat reads over V-Cat; composites and whiskers are built fresh here.
Product object sets are literal encoded pairs with no quotienting: the
strict unit law holds only after the canonical relabeling (a, 0) -> a,
which relabel_vcategory makes available bit-exactly.

V-Cat is (k−1)-fold monoidal, so ``check_vcategory`` certifies a level-1
product of passing factors over a passing base from their reports (see
there) and scans everything else; the scan, ``_scan_vcategory``, stays the
oracle of the construction's own tests.  A document saves such a product
as a reference that loading rebuilds with ``product_vcat``, so a loaded
product is certified too; one saved as tables is scanned.

A product's composition table is a ``LazyTable``: read-only, and built whole
on its first read, because level-2 checks mostly compare product frames by
identity and never read them.  The build asks the cells once per distinct
tuple of the factor entries an entry reads, not once per entry.  A factor
with a missing composition entry raises ``MalformedTable`` at the first read
of the product's ``comp``, not when the product is taken.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import partial
from itertools import product as iproduct
from operator import attrgetter

from .errors import (
    BaseInvalid,
    IndexOutOfRange,
    MalformedTable,
    NotComposable,
    NotParallel,
    SourceTargetInvalid,
)
from .fincat import compose
from .kfold import KFoldMonoidal, LiftedTables, check_kfold
from .report import (CheckReport, Record, ReportBuilder, _memo, _memo_pair,
                     cached_report, const, equations, lift)


def pair(a: str, b: str) -> str:
    """Canonical encoding of an ordered pair of object ids."""
    return f"({a},{b})"


class LazyTable(Mapping):
    """A read-only lookup table that ``build()`` fills whole on first read.

    Every read (lookup, iteration, ``len``, ``==``) sees the built dict, so a
    lazy table equals the plain dict with the same entries.  ``get`` is the
    built dict's own method, so ``report.lift`` keeps a C-level lookup.
    """
    __slots__ = ("_build", "_table")

    def __init__(self, build):
        self._build, self._table = build, None

    def _dict(self) -> dict:
        if self._table is None:
            self._table, self._build = self._build(), None
        return self._table

    @property
    def get(self):
        return self._dict().get

    def __getitem__(self, key):
        return self._dict()[key]

    def __contains__(self, key):
        return key in self._dict()

    def __iter__(self):
        return iter(self._dict())

    def __len__(self):
        return len(self._dict())

    def items(self):
        return self._dict().items()

    def __eq__(self, other):
        return self._dict() == other

    def __repr__(self):
        return f"LazyTable({self._dict()!r})"


def _plain(table):
    """The dict behind a table, so that hot loops read it directly."""
    return table._dict() if isinstance(table, LazyTable) else table


class VCategory(Record):
    __slots__ = ("base", "objects", "hom", "comp", "identity")

    def __init__(self, base: KFoldMonoidal, objects: set, hom: dict,
                 comp: Mapping, identity: dict):
        self.base = base
        self.objects = objects
        self.hom = hom            # (a, b) -> hom-object in the base
        self.comp = comp          # (a, b, c) -> composition morphism in the base
        self.identity = identity  # a -> identity element I -> hom(a, a)


class VFunctor(Record):
    __slots__ = ("source", "target", "obj_map", "hom_map")

    def __init__(self, source: VCategory, target: VCategory, obj_map: dict,
                 hom_map: dict):
        self.source = source
        self.target = target
        self.obj_map = obj_map
        # (a, b) -> base morphism hom_S(a,b) -> hom_T(Ta,Tb)
        self.hom_map = hom_map


class VNatTransform(Record):
    __slots__ = ("source", "target", "components")

    def __init__(self, source: VFunctor, target: VFunctor, components: dict):
        self.source = source
        self.target = target
        self.components = components    # a -> base morphism I -> hom(Ta, Sa)


# -- gates --------------------------------------------------------------------

def _require(structure, check, error, message: str) -> None:
    """``error(message, report)`` unless ``structure``'s cached report from
    ``check`` passes."""
    rep = cached_report(structure, check)
    if not rep.ok:
        raise error(message, rep)


# -- axiom tables -------------------------------------------------------------

# The operations of a monoidal category in column form, as the axiom tables
# read them: composition, the first tensor of morphisms, identities, the
# associator, the unitors at an object, ``lam_inv(f, hom, x, y)`` /
# ``rho_inv(...)``, f precomposed with the inverse unitor at hom(x, y), the
# domain and codomain of a morphism, the first tensor of objects, and
# ``unit(base)``, the unit object.  A field a table does not read may stay
# None.
_Ops = namedtuple("_Ops", "comp tm idm al lam rho lam_inv rho_inv "
                  "dom cod to unit", defaults=(None,) * 12)


def _strict(f, *_):
    return f


def _base_ops(cols: LiftedTables) -> _Ops:
    """The base's operations.  Its unitors are strict, so λ and ρ are
    identities and precomposing with their inverses changes nothing."""
    return _Ops(comp=cols.comp, tm=cols.tm[1], idm=cols.idm, al=cols.al[1],
                lam=cols.idm, rho=cols.idm, lam_inv=_strict, rho_inv=_strict,
                dom=cols.dom, cod=cols.cod, to=cols.to[1],
                unit=attrgetter("unit"))


def _category_laws(ops: _Ops, c):
    """Composition-boundary, identity-boundary, pentagon, left and right
    unit legs of ``c``, enriched in ``ops``."""
    comp, tm, idm, dom, cod = ops.comp, ops.tm, ops.idm, ops.dom, ops.cod
    hom, vcomp, ident = lift(c.hom), lift(c.comp), lift(c.identity)
    unit = const(ops.unit(c.base))

    def comp_boundary(x, y, z):
        m = vcomp(x, y, z)
        return [(dom(m), ops.to(hom(y, z), hom(x, y))), (cod(m), hom(x, z))]

    def ident_boundary(a):
        m = ident(a)
        return [(dom(m), unit), (cod(m), hom(a, a))]

    def pentagon(x, y, z, w):
        hom_zw = hom(z, w)
        lhs = comp(vcomp(x, y, w), tm(vcomp(y, z, w), idm(hom(x, y))))
        rhs = comp(vcomp(x, z, w),
                   comp(tm(idm(hom_zw), vcomp(x, y, z)),
                        ops.al(hom_zw, hom(y, z), hom(x, y))))
        return [(lhs, rhs)]

    def unit_left(x, y):
        hom_xy = hom(x, y)
        return [(comp(vcomp(x, y, y), tm(ident(y), idm(hom_xy))),
                 ops.lam(hom_xy))]

    def unit_right(x, y):
        hom_xy = hom(x, y)
        return [(comp(vcomp(x, x, y), tm(idm(hom_xy), ident(x))),
                 ops.rho(hom_xy))]
    return comp_boundary, ident_boundary, pentagon, unit_left, unit_right


def _functor_laws(ops: _Ops, f):
    """Boundary, composition square and unit triangle legs of ``f`` over
    ``ops``."""
    comp = ops.comp
    obj, hom_map = lift(f.obj_map), lift(f.hom_map)
    src_hom, tgt_hom = lift(f.source.hom), lift(f.target.hom)
    src_comp, src_ident = lift(f.source.comp), lift(f.source.identity)
    tgt_comp, tgt_ident = lift(f.target.comp), lift(f.target.identity)

    def boundary(x, y):
        m = hom_map(x, y)
        return [(ops.dom(m), src_hom(x, y)),
                (ops.cod(m), tgt_hom(obj(x), obj(y)))]

    def square(x, y, z):
        return [(comp(hom_map(x, z), src_comp(x, y, z)),
                 comp(tgt_comp(obj(x), obj(y), obj(z)),
                      ops.tm(hom_map(y, z), hom_map(x, y))))]

    def unit(a):
        return [(comp(hom_map(a, a), src_ident(a)), tgt_ident(obj(a)))]
    return boundary, square, unit


def _component_boundary(ops: _Ops, nat):
    """Boundary legs of ``nat``'s components over ``ops``: each runs from
    the unit to hom(Ta, Sa)."""
    t, s = nat.source, nat.target
    w_hom, component = lift(t.target.hom), lift(nat.components)
    t_obj, s_obj = lift(t.obj_map), lift(s.obj_map)
    unit = const(ops.unit(t.source.base))

    def boundary(a):
        m = component(a)
        return [(ops.dom(m), unit), (ops.cod(m), w_hom(t_obj(a), s_obj(a)))]
    return boundary


def _naturality(ops: _Ops, nat):
    """Naturality hexagon legs of ``nat`` over ``ops``."""
    t, s = nat.source, nat.target
    comp, tm = ops.comp, ops.tm
    hom, w_comp = lift(t.source.hom), lift(t.target.comp)
    t_obj, t_hom = lift(t.obj_map), lift(t.hom_map)
    s_obj, s_hom = lift(s.obj_map), lift(s.hom_map)
    component = lift(nat.components)

    def hexagon(x, y):
        tx, ty, sx, sy = t_obj(x), t_obj(y), s_obj(x), s_obj(y)
        return [(comp(w_comp(tx, ty, sy), ops.lam_inv(
                     tm(component(y), t_hom(x, y)), hom, x, y)),
                 comp(w_comp(tx, sx, sy), ops.rho_inv(
                     tm(s_hom(x, y), component(x)), hom, x, y)))]
    return hexagon


# -- checkers -----------------------------------------------------------------

# The families of ``check_vcategory`` in scan order, with their arities.
_VCATEGORY_FAMILIES = (("composition-boundary", 3), ("identity-boundary", 1),
                       ("pentagon", 4), ("unit-left", 2), ("unit-right", 2))


def check_vcategory(vc: VCategory, *,
                    all_witnesses: bool = False) -> CheckReport:
    """Pentagon and unit triangles over every object tuple.

    V-Cat is (k−1)-fold monoidal (Forcey, with the k-fold axioms of
    Balteanu–Fiedorowicz–Schwänzl–Vogt): over a base that passes
    ``check_kfold``, the i-th product of two V-categories, on ⊗_{i+1} and
    the interchange η^{1,i+1}, is a V-category.  So a level-1 frame built by
    ``product_vcat`` is certified, not scanned, when the base and both
    factors' cached reports pass and it has |A|·|B| objects (``pair`` is
    not injective on ids holding ``,`` or parentheses): its report is the
    scan's passing one, each family at its closed-form count n^arity; a
    document's product reference loads as such a frame.  Any other
    structure is scanned, a product saved as tables included.
    """
    if not _certified(vc):
        return _scan_vcategory(vc, all_witnesses)
    n = len(vc.objects)
    return CheckReport(families={name: n ** arity
                                 for name, arity in _VCATEGORY_FAMILIES})


def product_of(vc):
    """``(i, a, b)`` when ``vc`` was built as ``product_vcat(i, a, b)`` or
    ``product_v2cat(i, a, b)``, else None."""
    return getattr(vc, "_memo", {}).get("product")


def _certified(vc: VCategory) -> bool:
    """Whether ``vc`` is a product of passing factors over a passing base."""
    made = product_of(vc)
    if made is None or not cached_report(vc.base, check_kfold).ok:
        return False
    _, a, b = made
    if len(vc.objects) != len(a.objects) * len(b.objects):
        return False
    try:
        return all(cached_report(f, check_vcategory).ok for f in (a, b))
    except MalformedTable:    # the scan raises it, in the product's terms
        return False


def _scan_vcategory(vc: VCategory,
                    all_witnesses: bool = False) -> CheckReport:
    """The exhaustive check: every family over every object tuple."""
    _require(vc.base, check_kfold, BaseInvalid,
             "tensor structure failed its checker")
    cat = vc.base.base
    if not vc.objects:
        raise MalformedTable("enriched category has no objects")
    objs = sorted(vc.objects)
    for a, b2 in iproduct(objs, repeat=2):
        if (a, b2) not in vc.hom or vc.hom[(a, b2)] not in cat.objects:
            raise MalformedTable(f"hom entry ({a}, {b2}) missing or unknown")
    vc_comp = _plain(vc.comp)
    for key in iproduct(objs, repeat=3):
        if key not in vc_comp or vc_comp[key] not in cat.morphisms:
            raise MalformedTable(f"composition entry {key} missing or unknown")
    for a in objs:
        if a not in vc.identity or vc.identity[a] not in cat.morphisms:
            raise MalformedTable(f"identity element for {a!r} missing or unknown")

    b = ReportBuilder(all_witnesses)
    for (name, arity), legs in zip(
            _VCATEGORY_FAMILIES,
            _category_laws(_base_ops(LiftedTables(vc.base)), vc)):
        b.family(name, *equations([objs] * arity, legs))
    return b.report()


def check_vfunctor(vf: VFunctor, *,
                   all_witnesses: bool = False) -> CheckReport:
    """Composition square and unit triangle, per object pair/object."""
    if vf.source.base is not vf.target.base and vf.source.base != vf.target.base:
        raise MalformedTable("source and target live over different bases")
    for end in (vf.source, vf.target):
        _require(end, check_vcategory, SourceTargetInvalid,
                 "enriched category failed its checker")
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
    for name, arity, legs in zip(
            ("functor-boundary", "functor-composition", "functor-identity"),
            (2, 3, 1), _functor_laws(_base_ops(LiftedTables(base)), vf)):
        b.family(name, *equations([objs] * arity, legs))
    return b.report()


def check_vnat(nat: VNatTransform, *,
               all_witnesses: bool = False) -> CheckReport:
    """The enriched naturality hexagon for every object pair."""
    t, s = nat.source, nat.target
    if t.source != s.source or t.target != s.target:
        raise NotParallel("functors are not parallel")
    for fun in (t, s):
        _require(fun, check_vfunctor, SourceTargetInvalid,
                 "enriched functor failed its checker")
    base, cat = t.source.base, t.source.base.base
    objs = sorted(t.source.objects)
    for a in objs:
        if a not in nat.components or nat.components[a] not in cat.morphisms:
            raise MalformedTable(f"component at {a!r} missing or unknown")

    ops = _base_ops(LiftedTables(base))
    b = ReportBuilder(all_witnesses)
    for name, arity, legs in (
            ("component-boundary", 1, _component_boundary(ops, nat)),
            ("naturality", 2, _naturality(ops, nat))):
        b.family(name, *equations([objs] * arity, legs))
    return b.report()


def vfunctor_equal(t: VFunctor, s: VFunctor) -> bool:
    """Equality of enriched functors: same object map, same hom tables."""
    if t.source != s.source or t.target != s.target:
        raise NotParallel("functors are not parallel")
    return t.obj_map == s.obj_map and t.hom_map == s.hom_map


# -- the cells enriched in ----------------------------------------------------

# The cells of the monoidal category enriched in: ``comp(g, f)`` (f first),
# the i-th tensor of objects and of morphisms, identities, the i-th
# associator, the (i, j) interchange, the unitors λ and ρ at an object and
# their inverses, ``unit_pair(f, i)`` (f after I -> I ⊗_i I), ``unit(base)``,
# ``shift`` (its i-th tensor is the base's (i + shift)-th) and the classes of
# the structures enriched in it.  The constructions below are written once
# over this record; vcat reads it over the base, v2cat over V-Cat.
_Cells = namedtuple("_Cells", "comp tensor_obj tensor_mor idm assoc "
                    "interchange lam rho lam_inv rho_inv unit_pair unit "
                    "shift Cat Functor Nat")


def _build_base_cells(base: KFoldMonoidal) -> _Cells:
    cat = base.base
    ident = cat.identity.__getitem__
    return _Cells(
        comp=partial(compose, cat), tensor_obj=base.tensor_obj,
        tensor_mor=base.tensor_mor, idm=ident, assoc=base.associator,
        interchange=base.interchange_mor, lam=ident, rho=ident,
        lam_inv=ident, rho_inv=ident, unit_pair=_strict,
        unit=attrgetter("unit"), shift=0,
        Cat=VCategory, Functor=VFunctor, Nat=VNatTransform)


def _base_cells(base: KFoldMonoidal) -> _Cells:
    """The base's cells, built once per base; its unitors are strict."""
    return _memo(base, "cells", _build_base_cells)


def _same_base(a, b):
    if a.base is not b.base and a.base != b.base:
        raise MalformedTable("structures live over different bases")


def _unit(cells: _Cells, base):
    """One object 0 whose hom is the unit I, with composition λ_I and
    identity 1_I; built once per base and level."""
    def build(base):
        unit = cells.unit(base)
        return cells.Cat(base, {"0"}, {("0", "0"): unit},
                         {("0", "0", "0"): cells.lam(unit)},
                         {"0": cells.idm(unit)})
    return _memo(base, ("unit", cells.Cat), build)


def _product(cells: _Cells, i: int, a, b):
    """The i-th product: pairs of objects, homs tensored one level up,
    composition routed through the (1, i+1) interchange.  Built once per
    (i, a, b) and kept on ``a``; its memo records (i, a, b) (``product_of``),
    which certifies it at level 1 and lets a document save it as a
    reference."""
    def build(a, b):
        prod = _build_product(cells, i, a, b)
        _memo(prod, "product", lambda _: (i, a, b))
        return prod
    return _memo_pair(("product", i), a, b, build)


def _build_product(cells: _Cells, i: int, a, b):
    """Objects, homs and identities now; the composition table is a
    ``LazyTable`` built on its first read.  A factor missing a hom or
    identity entry raises here, one missing a composition entry raises
    ``MalformedTable``, naming the factor's key, at that first read.

    The composite at ((x, y), (x2, y2), (x3, y3)) reads six factor entries
    only: each factor's hom at (x2, x3) and (x, x2) and its comp at
    (x, x2, x3).  So the table asks the cells once per distinct six entries
    (``_comp_reads``) and shares the composite among the pairs reading them,
    visiting the pairs in lexicographic order, so that the first cell that
    raises is the same as entry by entry."""
    _same_base(a, b)
    base = a.base
    if not 1 <= i <= base.n - 1 - cells.shift:
        raise IndexOutOfRange(
            f"product index {i} needs tensor {i + 1 + cells.shift} <= n")
    tensor_obj, tensor_mor = cells.tensor_obj, cells.tensor_mor
    aobj, bobj = sorted(a.objects), sorted(b.objects)
    pairs = {(x, y): pair(x, y) for x, y in iproduct(aobj, bobj)}
    ids = list(pairs.values())
    hom = {}
    identity = {}
    for (x, y), xy in pairs.items():
        identity[xy] = cells.unit_pair(tensor_mor(
            i + 1, a.identity[x], b.identity[y]), i + 1)
        for (x2, y2), xy2 in pairs.items():
            hom[(xy, xy2)] = tensor_obj(
                i + 1, a.hom[(x, x2)], b.hom[(y, y2)])

    def build_comp():
        compose, interchange = cells.comp, cells.interchange
        (arows, areads), (brows, breads) = (_comp_reads(a, aobj),
                                            _comp_reads(b, bobj))
        made, comp = {}, {}
        for (x, y), xy in pairs.items():
            for (x2, y2), xy2 in pairs.items():
                for key, xy3 in zip(iproduct(arows[(x, x2)], brows[(y, y2)]),
                                    ids):
                    composite = made.get(key)
                    if composite is None:
                        (ahom23, ahom12, acomp), (bhom23, bhom12, bcomp) = \
                            areads[key[0]], breads[key[1]]
                        eta = interchange(1, i + 1, ahom23, bhom23,
                                          ahom12, bhom12)
                        both = tensor_mor(i + 1, acomp, bcomp)
                        composite = made[key] = compose(both, eta)
                    comp[(xy, xy2, xy3)] = composite
        return comp
    return cells.Cat(base, set(ids), hom, LazyTable(build_comp), identity)


def _comp_reads(f, objs):
    """The entries a product's composition reads from its factor ``f`` at a
    triple (x, x2, x3) of ``objs``: hom(x2, x3), hom(x, x2) and
    comp(x, x2, x3).  Returns, for each (x, x2), the indices of its triples'
    entries in the order of x3, and the entries at each index; equal indices
    mean the same three objects.  Entries are told apart by ``id``, so
    level-2 cells, which are unhashable, are indexed too; ``f``'s tables
    keep them alive.  A missing composition entry raises ``MalformedTable``
    at the first such triple."""
    hom, comp = f.hom, _plain(f.comp)
    index, reads, rows = {}, [], {}
    for x, x2 in iproduct(objs, repeat=2):
        row = rows[(x, x2)] = []
        for x3 in objs:
            key = (x, x2, x3)
            if key not in comp:
                raise MalformedTable(
                    f"product factor's composition entry {key} missing")
            entries = (hom[(x2, x3)], hom[(x, x2)], comp[key])
            identity = tuple(map(id, entries))
            if identity not in index:
                index[identity] = len(reads)
                reads.append(entries)
            row.append(index[identity])
    return rows, reads


def _compose_functors(cells: _Cells, s, t):
    """s after t: composed object maps, hom maps composed entry by entry."""
    if t.target != s.source:
        raise NotComposable("functor frames do not match")
    compose = cells.comp
    obj_map = {x: s.obj_map[t.obj_map[x]] for x in t.source.objects}
    hom_map = {}
    for x in t.source.objects:
        for y in t.source.objects:
            hom_map[(x, y)] = compose(
                s.hom_map[(t.obj_map[x], t.obj_map[y])],
                t.hom_map[(x, y)])
    return cells.Functor(t.source, s.target, obj_map, hom_map)


def _identity_functor(cells: _Cells, a):
    idm = cells.idm
    return cells.Functor(a, a, {x: x for x in a.objects},
                         {(x, y): idm(a.hom[(x, y)])
                          for x in a.objects for y in a.objects})


def _identity_nat(cells: _Cells, t):
    return cells.Nat(t, t, {x: t.target.identity[t.obj_map[x]]
                            for x in t.source.objects})


def _compose_nats(cells: _Cells, b, a):
    """a then b: each component pair tensored, from I ⊗_1 I, and multiplied
    through the target's composition."""
    if a.target != b.source:
        raise NotComposable("transformation frames do not match")
    compose, tensor_mor = cells.comp, cells.tensor_mor
    w = a.source.target
    components = {}
    for x in a.source.source.objects:
        tx = a.source.obj_map[x]
        sx = a.target.obj_map[x]
        rx = b.target.obj_map[x]
        components[x] = compose(w.comp[(tx, sx, rx)], cells.unit_pair(
            tensor_mor(1, b.components[x], a.components[x]), 1))
    return cells.Nat(a.source, b.target, components)


def _whisker(cells: _Cells, side: str, f, a):
    """a whiskered by f: f after a ("left"), or a after f ("right")."""
    if side == "left":
        if a.source.target != f.source:
            raise NotComposable("whisker frames do not match")
        return cells.Nat(
            _compose_functors(cells, f, a.source),
            _compose_functors(cells, f, a.target),
            {x: cells.comp(f.hom_map[(a.source.obj_map[x],
                                      a.target.obj_map[x])],
                           a.components[x])
             for x in a.source.source.objects})
    if side == "right":
        if f.target != a.source.source:
            raise NotComposable("whisker frames do not match")
        return cells.Nat(_compose_functors(cells, a.source, f),
                         _compose_functors(cells, a.target, f),
                         {x: a.components[f.obj_map[x]]
                          for x in f.source.objects})
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# -- constructions ------------------------------------------------------------

def unit_vcategory(base: KFoldMonoidal) -> VCategory:
    """One object 0 with hom-object the base unit; built once per base."""
    return _unit(_base_cells(base), base)


def product_vcat(i: int, a: VCategory, b: VCategory) -> VCategory:
    """The i-th product, on the base's (i+1)-th tensor; built once per
    (i, a, b).  Its composition table is a ``LazyTable``."""
    return _product(_base_cells(a.base), i, a, b)


def product_vfunctor(i: int, t: VFunctor, s: VFunctor) -> VFunctor:
    """Formal product of functors: pair map on objects, tensored hom maps."""
    base = t.source.base
    source = product_vcat(i, t.source, s.source)
    target = product_vcat(i, t.target, s.target)
    obj_map = {}
    hom_map = {}
    pairs = {(x, y): pair(x, y) for x, y in iproduct(
        sorted(t.source.objects), sorted(s.source.objects))}
    for (x, y), xy in pairs.items():
        obj_map[xy] = pair(t.obj_map[x], s.obj_map[y])
        for (x2, y2), xy2 in pairs.items():
            hom_map[(xy, xy2)] = base.tensor_mor(
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
    sources = {(x, y, z): pair(pair(x, y), z) for x, y, z in iproduct(
        sorted(a.objects), sorted(b.objects), sorted(c.objects))}
    obj_map = {xyz: pair(x, pair(y, z)) for (x, y, z), xyz in sources.items()}
    hom_map = {}
    for (x, y, z), xyz in sources.items():
        for (x2, y2, z2), xyz2 in sources.items():
            hom_map[(xyz, xyz2)] = base.associator(
                i + 1, a.hom[(x, x2)], b.hom[(y, y2)], c.hom[(z, z2)])
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
    sources = {(x, y, z, w): pair(pair(x, y), pair(z, w))
               for x, y, z, w in iproduct(sorted(a.objects), sorted(b.objects),
                                          sorted(c.objects), sorted(d.objects))}
    obj_map = {xyzw: pair(pair(x, z), pair(y, w))
               for (x, y, z, w), xyzw in sources.items()}
    hom_map = {}
    for (x, y, z, w), xyzw in sources.items():
        for (x2, y2, z2, w2), xyzw2 in sources.items():
            hom_map[(xyzw, xyzw2)] = base.interchange_mor(
                i + 1, j + 1, a.hom[(x, x2)], b.hom[(y, y2)],
                c.hom[(z, z2)], d.hom[(w, w2)])
    return VFunctor(source, target, obj_map, hom_map)


def identity_vfunctor(a: VCategory) -> VFunctor:
    return _identity_functor(_base_cells(a.base), a)


def identity_vnat(t: VFunctor) -> VNatTransform:
    """The identity transformation, components the identity elements j."""
    return _identity_nat(_base_cells(t.source.base), t)


def compose_vfunctor(s: VFunctor, t: VFunctor) -> VFunctor:
    """s after t."""
    return _compose_functors(_base_cells(t.source.base), s, t)


def compose_vnat_vert(b: VNatTransform, a: VNatTransform) -> VNatTransform:
    """Vertical composite: a then b, components multiplied through M."""
    return _compose_nats(_base_cells(a.source.source.base), b, a)


def whisker_vnat(side: str, f: VFunctor, a: VNatTransform) -> VNatTransform:
    """Whisker a functor onto a transformation ("left": f after a)."""
    return _whisker(_base_cells(f.source.base), side, f, a)


# -- strict-unit plumbing -----------------------------------------------------

def _unit_functor(i: int, a: VCategory, left: bool, intro: bool) -> VFunctor:
    """The identity-component functor between a and its product with I:
    product(i, I, a) when ``left``, else product(i, a, I); a -> product when
    ``intro``, else product -> a.  Components are read from a's own homs."""
    unitv = unit_vcategory(a.base)
    if left:
        prod, tag = product_vcat(i, unitv, a), lambda x: pair("0", x)
    else:
        prod, tag = product_vcat(i, a, unitv), lambda x: pair(x, "0")
    hom = identity_vfunctor(a).hom_map
    if intro:
        return VFunctor(a, prod, {x: tag(x) for x in a.objects}, hom)
    return VFunctor(prod, a, {tag(x): x for x in a.objects},
                    {(tag(x), tag(y)): m for (x, y), m in hom.items()})


def unit_relabel_left(i: int, a: VCategory) -> VFunctor:
    """product(i, I, a) -> a, the canonical (0, x) -> x relabeling."""
    return _unit_functor(i, a, left=True, intro=False)


def unit_relabel_right(i: int, a: VCategory) -> VFunctor:
    """product(i, a, I) -> a, the canonical (x, 0) -> x relabeling."""
    return _unit_functor(i, a, left=False, intro=False)


def unit_intro_left(i: int, a: VCategory) -> VFunctor:
    """a -> product(i, I, a), inverse of the left relabeling."""
    return _unit_functor(i, a, left=True, intro=True)


def unit_intro_right(i: int, a: VCategory) -> VFunctor:
    """a -> product(i, a, I), inverse of the right relabeling."""
    return _unit_functor(i, a, left=False, intro=True)


def unit_pair_intro(i: int, base: KFoldMonoidal) -> VFunctor:
    """I -> product(i, I, I), the 0 -> (0, 0) relabeling; built once per
    (base, i)."""
    return _memo(base, ("unit_pair_intro", i),
                 lambda base: unit_intro_left(i, unit_vcategory(base)))


def _require_bijection(obj_map: dict, objects) -> None:
    """MalformedTable unless ``obj_map`` is a bijection on ``objects``."""
    if sorted(obj_map) != sorted(objects) \
            or len(set(obj_map.values())) != len(objects):
        raise MalformedTable("relabeling is not a bijection on the object set")


def relabel_vcategory(a: VCategory, obj_map: dict) -> VCategory:
    """Rename the object set through a bijection; tables re-keyed, data kept."""
    _require_bijection(obj_map, a.objects)
    objects = set(obj_map.values())
    hom = {(obj_map[x], obj_map[y]): v for (x, y), v in a.hom.items()}
    comp = {(obj_map[x], obj_map[y], obj_map[z]): v
            for (x, y, z), v in a.comp.items()}
    identity = {obj_map[x]: v for x, v in a.identity.items()}
    return VCategory(a.base, objects, hom, comp, identity)
