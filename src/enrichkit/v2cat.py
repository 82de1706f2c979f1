"""Level-2 enrichment and the three-dimensional composition engine.

Structures one level up from vcat: hom-data are now enriched categories and
the compositions are enriched functors.  A V-2-category is a category
enriched over V-Cat, whose cells are listed once (``_VCAT_CELLS``).  The
product, unit, composites, identities and whiskers of 2-functors and
2-transformations are vcat's constructions over them, and their shape
families, the pentagon and unit laws, the composition square and unit
triangle of a 2-functor, and the naturality of a 2-transformation are
vcat's axiom tables over them, lifted (``_VCAT``).  A shape row compares
the source and target of a functor with the V-categories its frame needs,
and its witness is the first entry in which they differ
(``_diff_vcategory``).  The laws compare whole functors (object maps and
hom tables entry by entry), which subsumes the object-level equations like
(fg)h = f(gh); a failing row's witness is the first entry in which the two
functors differ.
A modification's component at u is a level-1 transformation between the
components at u of its source and target (``_at``), so its vertical
composite, identity and 2-functor whisker are vcat's transformation
operations at each component, and the nat/mod whiskers are the central
horizontal formula at an identity modification.  The modification axiom is
naturality one dimension up: vcat's naturality table read over V-Cat's
2-cells (``_VCAT_2CELLS``: left whisker, ``product_vnat``, right whisker by
the unit introductions), applied to the modification seen as a
transformation whose components are the ``_at(m, u)``, one row per object
pair; a failing row's witness is the first component in which the two legs
differ.

Three composition regimes exist, written here as in the source structure:

  * along a 2-functor   -- compose_nat_along_functor, vcomp_modifications,
                           the nat/mod whiskers, hcomp_modifications_along_nat
  * along a 2-category  -- compose_v2functors, functor/nat whiskers onto
                           nats and modifications, hcomp_nats_along_category,
                           hcomp_mods_along_category
  * exchange_suite      -- the four closing identities tying them together

Every operation with more than one defining route computes all routes and
raises AgreementFailure when their tables differ: on valid input that is an
engine bug, on invalid input a diagnostic.  Every two-operand operation is
built once per operand pair (``_built_once``, or ``whisker_functor_nat``'s
own memo); a failure stores nothing, so it is raised again on every call.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import partial, wraps
from itertools import chain
from itertools import product as iproduct
from operator import attrgetter

from .errors import (
    AgreementFailure,
    InvalidPasting,
    KernelError,
    LowerLevelInvalid,
    MalformedTable,
    NotComposable,
    NotParallel,
)
from .fincat import compose
from .kfold import KFoldMonoidal, LiftedTables, check_kfold
from .report import (CheckReport, Record, ReportBuilder, _memo, _memo_pair,
                     cached_report, const, each_row, equations, lift)
from .vcat import (
    VCategory,
    VFunctor,
    VNatTransform,
    _category_laws,
    _Cells,
    _component_boundary,
    _compose_functors,
    _compose_nats,
    _functor_laws,
    _identity_functor,
    _identity_nat,
    _naturality,
    _Ops,
    _product,
    _require,
    _require_bijection,
    _unit,
    _whisker,
    assoc_vcat,
    check_vcategory,
    check_vfunctor,
    compose_vfunctor,
    compose_vnat_vert,
    identity_vfunctor,
    identity_vnat,
    interchange_vcat,
    pair,
    product_vcat,
    product_vfunctor,
    product_vnat,
    relabel_vcategory,
    unit_intro_left,
    unit_intro_right,
    unit_pair_intro,
    unit_relabel_left,
    unit_relabel_right,
    unit_vcategory,
    whisker_vnat,
)


class V2Category(Record):
    __slots__ = ("base", "objects", "hom", "comp", "identity")

    def __init__(self, base: KFoldMonoidal, objects: set, hom: dict,
                 comp: Mapping, identity: dict):
        self.base = base
        self.objects = objects
        self.hom = hom            # (a, b) -> VCategory
        # (a, b, c) -> VFunctor hom(b,c) x_1 hom(a,b) -> hom(a,c)
        self.comp = comp
        self.identity = identity  # a -> VFunctor I -> hom(a, a)

    def one_cells(self, a, b):
        return sorted(self.hom[(a, b)].objects)

    def compose1(self, a, b, c, g, f):
        """Composite 1-cell of g: b -> c after f: a -> b."""
        return self.comp[(a, b, c)].obj_map[pair(g, f)]

    def unit1(self, a):
        return self.identity[a].obj_map["0"]


class V2Functor(Record):
    __slots__ = ("source", "target", "obj_map", "hom_map")

    def __init__(self, source: V2Category, target: V2Category, obj_map: dict,
                 hom_map: dict):
        self.source = source
        self.target = target
        self.obj_map = obj_map
        self.hom_map = hom_map    # (u, u') -> VFunctor


class V2NatTransform(Record):
    __slots__ = ("source", "target", "components")

    def __init__(self, source: V2Functor, target: V2Functor,
                 components: dict):
        self.source = source
        self.target = target
        self.components = components    # u -> VFunctor I -> hom_W(Tu, Su)


class VModification(Record):
    __slots__ = ("source", "target", "components")

    def __init__(self, source: V2NatTransform, target: V2NatTransform,
                 components: dict):
        self.source = source
        self.target = target
        # u -> base morphism I -> hom_W(Tu,Su)(q, q^)
        self.components = components


def _after_unit_pair(f: VFunctor, i: int) -> VFunctor:
    """f precomposed with I -> I ⊗_i I, the 0 -> (0, 0) relabeling."""
    return compose_vfunctor(f, unit_pair_intro(i, f.source.base))


# V-Cat's cells: functors compose, the i-th tensor is ``product_vcat(i, ...)``
# on the base's (i+1)-th, the unitors are the unit relabelings and their
# inverses the unit introductions.
_VCAT_CELLS = _Cells(
    comp=compose_vfunctor, tensor_obj=product_vcat,
    tensor_mor=product_vfunctor, idm=identity_vfunctor, assoc=assoc_vcat,
    interchange=interchange_vcat, lam=partial(unit_relabel_left, 1),
    rho=partial(unit_relabel_right, 1), lam_inv=partial(unit_intro_left, 1),
    rho_inv=partial(unit_intro_right, 1), unit_pair=_after_unit_pair,
    unit=unit_vcategory, shift=1,
    Cat=V2Category, Functor=V2Functor, Nat=V2NatTransform)


def _star(f):
    """``f`` lifted as a function of its arguments' columns."""
    return lift(lambda key: f(*key))


def _lifted(cells: _Cells) -> _Ops:
    """The axiom tables' operations (first tensors, first associator) over
    ``cells``, each cell lifted as a function of the key; a functor's domain
    and codomain are its source and target."""
    comp = _star(cells.comp)
    lam_inv, rho_inv = lift(cells.lam_inv), lift(cells.rho_inv)
    return _Ops(
        comp=comp, tm=_star(partial(cells.tensor_mor, 1)),
        idm=lift(cells.idm), al=_star(partial(cells.assoc, 1)),
        lam=lift(cells.lam), rho=lift(cells.rho),
        lam_inv=lambda f, hom, x, y: comp(f, lam_inv(hom(x, y))),
        rho_inv=lambda f, hom, x, y: comp(f, rho_inv(hom(x, y))),
        dom=lift(attrgetter("source")), cod=lift(attrgetter("target")),
        to=_star(partial(cells.tensor_obj, 1)), unit=cells.unit)


_VCAT = _lifted(_VCAT_CELLS)


def _two_cells() -> _Ops:
    """V-Cat's 2-cells, as the naturality table reads them one dimension up:
    a functor composed onto a transformation is the left whisker, the first
    tensor is ``product_vnat(1, ...)``, and precomposing with an inverse
    unitor at hom(x, y) is the right whisker by the unit introduction.  The
    fields the table does not read stay unset."""
    right = _star(partial(whisker_vnat, "right"))

    def after(intro):
        intro = lift(partial(intro, 1))
        return lambda a, hom, x, y: right(intro(hom(x, y)), a)
    return _Ops(comp=_star(partial(whisker_vnat, "left")),
                tm=_star(partial(product_vnat, 1)),
                lam_inv=after(unit_intro_left),
                rho_inv=after(unit_intro_right))


_VCAT_2CELLS = _two_cells()


def _q(nat: V2NatTransform, u) -> str:
    """Object part of a transformation's component at u."""
    return nat.components[u].obj_map["0"]


# -- diffs for witness production ----------------------------------------------

def _diff_vfunctor(x: VFunctor, y: VFunctor):
    return (_diff_components(x.obj_map, y.obj_map, "obj[{}]")
            or _diff_components(x.hom_map, y.hom_map, "hom[{}]"))


def _diff_nat(x: V2NatTransform, y: V2NatTransform):
    for u in sorted(set(x.components) | set(y.components)):
        d = _diff_vfunctor(x.components[u], y.components[u])
        if d is not None:
            return f"component[{u}].{d[0]}", d[1], d[2]
    return None


def _diff_components(x: dict, y: dict, at="component[{}]"):
    for u in sorted(set(x) | set(y)):
        if x.get(u) != y.get(u):
            return at.format(u), x.get(u), y.get(u)
    return None


def _diff_vcategory(x: VCategory, y: VCategory):
    """The first entry in which two unequal V-categories differ: the object
    sets, else the hom, composition and identity entries by key, else the
    bases."""
    if x.objects != y.objects:
        return "objects", sorted(x.objects), sorted(y.objects)
    return (_diff_components(x.hom, y.hom, "hom[{}]")
            or _diff_components(x.comp, y.comp, "comp[{}]")
            or _diff_components(x.identity, y.identity, "identity[{}]")
            or ("base", "differs", "differs"))


def _diff_mod(x: VModification, y: VModification, at="component[{}]"):
    return _diff_components(x.components, y.components, at)


def _agree(diff, message: str, first, *routes):
    """``first``, once no ``(label, route)`` differs from it by ``diff``;
    else AgreementFailure, ``message`` formatted with the label and the
    first difference (where, first's entry, the route's entry)."""
    for label, route in routes:
        d = diff(first, route)
        if d is not None:
            raise AgreementFailure(message.format(label, *d))
    return first


def _witness(d):
    """The (lhs, rhs) witness pair of a diff, or None when there is none."""
    return None if d is None else (f"{d[0]}={d[1]}", f"{d[0]}={d[2]}")


def _diffed(family, diff=_diff_vfunctor):
    """``equations``' ``(blocks, check)`` with each failing row's pair of
    legs replaced by its ``diff`` witness."""
    blocks, check = family

    def diffed(block):
        n, failures = check(block)
        return n, [(k, row, *_witness(diff(lhs, rhs)))
                   for k, row, lhs, rhs in failures]
    return blocks, diffed


def _families(b: ReportBuilder, objs, families, diff=_diff_vfunctor) -> bool:
    """Each ``(name, arity, legs)`` family over ``objs`` into ``b``, a
    failing row witnessed by ``diff``; True if ``b``'s report passes."""
    for name, arity, legs in families:
        b.family(name, *_diffed(equations([objs] * arity, legs), diff))
    return b.report().ok


# -- gates ----------------------------------------------------------------------

def _gate(b: ReportBuilder, check, structures) -> bool:
    """Check each ``(prefix, structure)`` through its cached report and merge
    every failing report into ``b`` under its prefix; True if all passed."""
    ok = True
    for prefix, lower in structures:
        rep = cached_report(lower, check)
        if not rep.ok:
            b.merge(rep, prefix=prefix)
            ok = False
    return ok


# -- checkers --------------------------------------------------------------------

def check_v2category(u: V2Category, *,
                     all_witnesses: bool = False) -> CheckReport:
    base = u.base
    if base.n < 2:
        raise MalformedTable("level-2 structure needs at least two tensors")
    _require(base, check_kfold, LowerLevelInvalid,
             "tensor structure failed its checker")
    if not u.objects:
        raise MalformedTable("level-2 category has no objects")
    objs = sorted(u.objects)
    for key in iproduct(objs, repeat=2):
        if key not in u.hom:
            raise MalformedTable(f"hom entry {key} missing")
    for key in iproduct(objs, repeat=3):
        if key not in u.comp:
            raise MalformedTable(f"composition functor {key} missing")
    for a in objs:
        if a not in u.identity:
            raise MalformedTable(f"identity functor for {a!r} missing")

    b = ReportBuilder(all_witnesses)
    if not _gate(b, check_vcategory, ((f"hom{key}:", u.hom[key])
                                      for key in iproduct(objs, repeat=2))):
        return b.report()
    comp_shape, ident_shape, *laws = _category_laws(_VCAT, u)
    functors = chain(((f"composition-functor{key}:", u.comp[key])
                      for key in iproduct(objs, repeat=3)),
                     ((f"identity-functor({a}):", u.identity[a])
                      for a in objs))
    if (_families(b, objs, (("composition-functor-shape", 3, comp_shape),
                            ("identity-functor-shape", 1, ident_shape)),
                  _diff_vcategory)
            and _gate(b, check_vfunctor, functors)):
        _families(b, objs, zip(("pentagon", "unit-left", "unit-right"),
                               (4, 2, 2), laws))
    return b.report()


def check_v2functor(t: V2Functor, *,
                    all_witnesses: bool = False) -> CheckReport:
    for cat in (t.source, t.target):
        _require(cat, check_v2category, LowerLevelInvalid,
                 "level-2 category failed its checker")
    src, tgt = t.source, t.target
    objs = sorted(src.objects)
    for a in objs:
        if a not in t.obj_map or t.obj_map[a] not in tgt.objects:
            raise MalformedTable(f"object map entry for {a!r} missing or unknown")
    for key in iproduct(objs, repeat=2):
        if key not in t.hom_map:
            raise MalformedTable(f"hom functor {key} missing")

    b = ReportBuilder(all_witnesses)
    shape, square, unit = _functor_laws(_VCAT, t)
    if (_families(b, objs, (("hom-functor-shape", 2, shape),), _diff_vcategory)
            and _gate(b, check_vfunctor, (
                (f"hom-functor{key}:", t.hom_map[key])
                for key in iproduct(objs, repeat=2)))):
        _families(b, objs, (("composition-square", 3, square),
                            ("unit-triangle", 1, unit)))
    return b.report()


def check_v2nat(a: V2NatTransform, *,
                all_witnesses: bool = False) -> CheckReport:
    t, s = a.source, a.target
    if t.source != s.source or t.target != s.target:
        raise NotParallel("level-2 functors are not parallel")
    for fun in (t, s):
        _require(fun, check_v2functor, LowerLevelInvalid,
                 "level-2 functor failed its checker")
    objs = sorted(t.source.objects)
    for x in objs:
        if x not in a.components:
            raise MalformedTable(f"component at {x!r} missing")
    b = ReportBuilder(all_witnesses)
    if (_families(b, objs, (("component-shape", 1,
                             _component_boundary(_VCAT, a)),), _diff_vcategory)
            and _gate(b, check_vfunctor, ((f"component({x}):", a.components[x])
                                          for x in objs))):
        _families(b, objs, (("naturality", 2, _naturality(_VCAT, a)),))
    return b.report()


def check_modification(m: VModification, *,
                       all_witnesses: bool = False) -> CheckReport:
    th, ph = m.source, m.target
    if th.source != ph.source or th.target != ph.target:
        raise NotParallel("level-2 transformations are not parallel")
    for nat in (th, ph):
        _require(nat, check_v2nat, LowerLevelInvalid,
                 "level-2 transformation failed its checker")
    t, s = th.source, th.target
    u, w = t.source, t.target
    base = u.base
    cat = base.base
    objs = sorted(u.objects)
    for x in objs:
        if x not in m.components or m.components[x] not in cat.morphisms:
            raise MalformedTable(f"component at {x!r} missing or unknown")

    cols, component = LiftedTables(base), lift(m.components)
    want = lift(lambda x: w.hom[(t.obj_map[x], s.obj_map[x])].hom[
        (_q(th, x), _q(ph, x))])

    def boundary(x):
        mor = component(x)
        return [(cols.dom(mor), const(base.unit)), (cols.cod(mor), want(x))]
    b = ReportBuilder(all_witnesses)
    b.family("component-boundary", *equations([objs], boundary))
    if not b.report().ok:
        return b.report()

    # Naturality one dimension up.  Both legs' frames are equal by θ's and
    # φ's naturality, which the gate has checked, so compare components.
    hexagon = _naturality(_VCAT_2CELLS, _as_nat(m))
    components = lift(attrgetter("components"))

    def square(x, y):
        return [(components(lhs), components(rhs))
                for lhs, rhs in hexagon(x, y)]
    b.family("modification-square", *_diffed(
        equations([objs] * 2, square), _diff_components))
    return b.report()


# -- composition along a 2-functor ------------------------------------------------

def _built_once(op):
    """``op(x, y)``, built once per operand pair and kept on ``x``
    (``_memo_pair``); a failed route check raises and stores nothing."""
    tag = op.__name__
    return wraps(op)(lambda x, y: _memo_pair(tag, x, y, op))


@_built_once
def compose_nat_along_functor(b: V2NatTransform,
                              g: V2NatTransform) -> V2NatTransform:
    """g then b, sharing the middle 2-functor."""
    return _compose_nats(_VCAT_CELLS, b, g)


def id_nat(t: V2Functor) -> V2NatTransform:
    """Identity transformation: the component at u is the identity functor
    of the image object."""
    return _identity_nat(_VCAT_CELLS, t)


def _at(m: VModification, u) -> VNatTransform:
    """m's component at u as the level-1 transformation it is, between the
    components of m's source and target at u."""
    return VNatTransform(m.source.components[u], m.target.components[u],
                         {"0": m.components[u]})


def _as_nat(m: VModification) -> V2NatTransform:
    """m seen as a transformation one dimension up: components ``_at(m, u)``,
    frames m's source and target 2-functors with each hom functor replaced
    by its identity transformation."""
    def frame(t):
        return V2Functor(t.source, t.target, t.obj_map,
                         {key: identity_vnat(f) for key, f in t.hom_map.items()})
    th = m.source
    return V2NatTransform(frame(th.source), frame(th.target),
                          {u: _at(m, u) for u in th.source.source.objects})


def _each(nat: V2NatTransform, op) -> dict:
    """Components on nat's frame: for each u, ``op(u)``, the components of a
    level-1 transformation out of the unit enriched category, read at "0"."""
    return {u: op(u)["0"] for u in sorted(nat.source.source.objects)}


@_built_once
def vcomp_modifications(n: VModification, m: VModification) -> VModification:
    """m then n: vertical composition of their components at each u."""
    if m.target != n.source:
        raise NotComposable("modifications do not share the middle transformation")
    return VModification(m.source, n.target, _each(m.source, lambda u: (
        compose_vnat_vert(_at(n, u), _at(m, u)).components)))


def id_modification(a: V2NatTransform) -> VModification:
    """Identity modification: the identity transformation of each component;
    built once per a."""
    return _memo(a, "id_modification", lambda a: VModification(a, a, _each(
        a, lambda u: identity_vnat(a.components[u]).components)))


def _hcomp_central(n: VModification, m: VModification) -> VModification:
    """The central formula of n * m: at u, the components tensored and
    multiplied through W's composition functor at (fu, gu, hu).  The base's
    second tensor is read directly on purpose: routed through
    ``product_vnat`` and ``whisker_vnat``, as the modification square is,
    it measured slower on the corpus pastings."""
    f_fun, g_fun, h_fun = m.source.source, m.source.target, n.source.target
    w = f_fun.target
    central = {}
    for u in sorted(f_fun.source.objects):
        fu, gu, hu = f_fun.obj_map[u], g_fun.obj_map[u], h_fun.obj_map[u]
        key = (pair(_q(n.source, u), _q(m.source, u)),
               pair(_q(n.target, u), _q(m.target, u)))
        central[u] = compose(
            w.base.base, w.comp[(fu, gu, hu)].hom_map[key],
            w.base.tensor_mor(2, n.components[u], m.components[u]))
    return VModification(
        compose_nat_along_functor(n.source, m.source),
        compose_nat_along_functor(n.target, m.target), central)


@_built_once
def whisker_nat_mod_left(g: V2NatTransform, m: VModification) -> VModification:
    """Whisker a transformation g on the left of modification m (g * m)."""
    if m.source.target != g.source:
        raise NotComposable("whisker frames do not match")
    return _hcomp_central(id_modification(g), m)


@_built_once
def whisker_nat_mod_right(m: VModification, r: V2NatTransform) -> VModification:
    """Whisker a transformation r on the right of modification m (m * r)."""
    if r.target != m.source.source:
        raise NotComposable("whisker frames do not match")
    return _hcomp_central(m, id_modification(r))


@_built_once
def hcomp_modifications_along_nat(n: VModification,
                                  m: VModification) -> VModification:
    """Horizontal composite n * m across a shared middle 2-functor: the
    central formula, which must agree with both whisker factorizations
    (n.target * m) o (n * m.source) and (n * m.target) o (n.source * m)."""
    if m.source.target != n.source.source:
        raise NotComposable("modifications are not horizontally adjacent")
    central = _hcomp_central(n, m)
    way1 = vcomp_modifications(whisker_nat_mod_left(n.target, m),
                               whisker_nat_mod_right(n, m.source))
    way2 = vcomp_modifications(whisker_nat_mod_right(n, m.target),
                               whisker_nat_mod_left(n.source, m))
    return _agree(partial(_diff_mod, at="{}"), "central and {0} routes differ at {1}: "
                  "{2} != {3}", central, ("whisker-right-then-left", way1),
                  ("whisker-left-then-right", way2))


# -- composition along a 2-category -----------------------------------------------

@_built_once
def compose_v2functors(s: V2Functor, t: V2Functor) -> V2Functor:
    """s after t: composed object maps, composed hom functors."""
    return _compose_functors(_VCAT_CELLS, s, t)


def identity_v2functor(u: V2Category) -> V2Functor:
    return _identity_functor(_VCAT_CELLS, u)


def whisker_functor_nat(g: V2Functor, a: V2NatTransform) -> V2NatTransform:
    """Post-compose a transformation with a 2-functor (g a).  Built once per
    (g, a) and kept on ``a``, not on ``g``: a transformation made for one
    check takes its entry with it instead of leaving it on a lasting g."""
    return _memo_pair("whisker_functor_nat", a, g,
                      lambda a, g: _whisker(_VCAT_CELLS, "left", g, a))


@_built_once
def whisker_nat_functor(g: V2NatTransform, h: V2Functor) -> V2NatTransform:
    """Pre-compose a transformation with a 2-functor (g h): reindexing."""
    return _whisker(_VCAT_CELLS, "right", h, g)


@_built_once
def hcomp_nats_along_category(g: V2NatTransform,
                              a: V2NatTransform) -> V2NatTransform:
    """Horizontal composite g a across the shared middle 2-category.

    Both whisker factorizations are computed and must agree table-exactly.
    """
    if a.source.target != g.source.source:
        raise NotComposable("transformations are not horizontally adjacent")
    way1 = compose_nat_along_functor(
        whisker_nat_functor(g, a.target), whisker_functor_nat(g.source, a))
    way2 = compose_nat_along_functor(
        whisker_functor_nat(g.target, a), whisker_nat_functor(g, a.source))
    return _agree(_diff_nat, "two routes for the horizontal composite "
                  "differ at {1}: {2} != {3}", way1, (None, way2))


@_built_once
def whisker_functor_mod(k: V2Functor, m: VModification) -> VModification:
    """Post-compose a modification with a 2-functor (k m): at u, k's hom
    functor at (fu, hu) whiskered onto the component."""
    al = m.source
    if al.source.target != k.source:
        raise NotComposable("whisker frames do not match")
    return VModification(
        whisker_functor_nat(k, al), whisker_functor_nat(k, m.target),
        _each(al, lambda u: whisker_vnat("left", k.hom_map[
            (al.source.obj_map[u], al.target.obj_map[u])],
            _at(m, u)).components))


@_built_once
def whisker_mod_functor(n: VModification, f: V2Functor) -> VModification:
    """Pre-compose a modification with a 2-functor (n f): reindexing."""
    ga = n.source
    if f.target != ga.source.source:
        raise NotComposable("whisker frames do not match")
    components = {u: n.components[f.obj_map[u]] for u in f.source.objects}
    return VModification(whisker_nat_functor(ga, f),
                         whisker_nat_functor(n.target, f), components)


@_built_once
def whisker_nat_mod_along_category(r: V2NatTransform,
                                   m: VModification) -> VModification:
    """r m: a transformation whiskered onto a modification across the middle
    2-category; defined two ways, both computed."""
    al = m.source
    if al.source.target != r.source.source:
        raise NotComposable("whisker frames do not match")
    way1 = whisker_nat_mod_right(whisker_functor_mod(r.target, m),
                                 whisker_nat_functor(r, al.source))
    way2 = whisker_nat_mod_left(whisker_nat_functor(r, al.target),
                                whisker_functor_mod(r.source, m))
    _agree(_diff_mod, "two routes for the nat-onto-mod whisker differ at {1}: "
           "{2} != {3}", way1, (None, way2))
    return VModification(hcomp_nats_along_category(r, al),
                         hcomp_nats_along_category(r, m.target),
                         way1.components)


@_built_once
def whisker_mod_nat_along_category(n: VModification,
                                   a: V2NatTransform) -> VModification:
    """n a: a modification whiskered onto a transformation across the middle
    2-category; defined two ways, both computed."""
    ga = n.source
    if a.source.target != ga.source.source:
        raise NotComposable("whisker frames do not match")
    way1 = whisker_nat_mod_right(whisker_mod_functor(n, a.target),
                                 whisker_functor_nat(ga.source, a))
    way2 = whisker_nat_mod_left(whisker_functor_nat(ga.target, a),
                                whisker_mod_functor(n, a.source))
    _agree(_diff_mod, "two routes for the mod-onto-nat whisker differ at {1}: "
           "{2} != {3}", way1, (None, way2))
    return VModification(hcomp_nats_along_category(ga, a),
                         hcomp_nats_along_category(n.target, a),
                         way1.components)


@_built_once
def hcomp_mods_along_category(n: VModification,
                              m: VModification) -> VModification:
    """Horizontal composite n m across the shared middle 2-category.

    Four routes: the two factorizations through whiskers along the
    2-category, and the two factorizations through a common 2-functor.
    All must agree table-exactly.
    """
    al, bt = m.source, m.target
    ga, rh = n.source, n.target
    if al.source.target != ga.source.source:
        raise NotComposable("modifications are not horizontally adjacent")
    way1 = vcomp_modifications(whisker_nat_mod_along_category(rh, m),
                               whisker_mod_nat_along_category(n, al))
    way2 = vcomp_modifications(whisker_mod_nat_along_category(n, bt),
                               whisker_nat_mod_along_category(ga, m))
    way3 = hcomp_modifications_along_nat(whisker_mod_functor(n, al.target),
                                         whisker_functor_mod(ga.source, m))
    way4 = hcomp_modifications_along_nat(whisker_functor_mod(ga.target, m),
                                         whisker_mod_functor(n, al.source))
    _agree(_diff_mod, "routes for the horizontal composite differ ({0}) "
           "at {1}: {2} != {3}", way1, ("via-target-whiskers", way2),
           ("via-common-functor-upper", way3),
           ("via-common-functor-lower", way4))
    return VModification(hcomp_nats_along_category(ga, al),
                         hcomp_nats_along_category(rh, bt),
                         way1.components)


# -- the exchange suite -------------------------------------------------------------

class PastingInstance(Record):
    """The closing two-column pasting: three parallel 2-functors per column
    with two stacked modifications in each of the four cells.  The
    categories and 2-functors are followed by each cell's three
    V2NatTransforms (alpha, beta, gamma) and two VModifications (mu, nu)."""
    __slots__ = ("cat_u", "cat_v", "cat_w", "f", "h", "p", "g", "k", "q",
                 "alpha1", "beta1", "gamma1", "mu1", "nu1",
                 "alpha2", "beta2", "gamma2", "mu2", "nu2",
                 "alpha3", "beta3", "gamma3", "mu3", "nu3",
                 "alpha4", "beta4", "gamma4", "mu4", "nu4")

    def __init__(self, cat_u, cat_v, cat_w, f, h, p, g, k, q,
                 alpha1, beta1, gamma1, mu1, nu1,
                 alpha2, beta2, gamma2, mu2, nu2,
                 alpha3, beta3, gamma3, mu3, nu3,
                 alpha4, beta4, gamma4, mu4, nu4):
        self.cat_u, self.cat_v, self.cat_w = cat_u, cat_v, cat_w
        self.f, self.h, self.p, self.g, self.k, self.q = f, h, p, g, k, q
        self.alpha1, self.beta1, self.gamma1 = alpha1, beta1, gamma1
        self.mu1, self.nu1 = mu1, nu1
        self.alpha2, self.beta2, self.gamma2 = alpha2, beta2, gamma2
        self.mu2, self.nu2 = mu2, nu2
        self.alpha3, self.beta3, self.gamma3 = alpha3, beta3, gamma3
        self.mu3, self.nu3 = mu3, nu3
        self.alpha4, self.beta4, self.gamma4 = alpha4, beta4, gamma4
        self.mu4, self.nu4 = mu4, nu4


def _check_frames(p: PastingInstance) -> None:
    for fun, (src, tgt) in ((p.f, (p.cat_u, p.cat_v)),
                            (p.h, (p.cat_u, p.cat_v)),
                            (p.p, (p.cat_u, p.cat_v)),
                            (p.g, (p.cat_v, p.cat_w)),
                            (p.k, (p.cat_v, p.cat_w)),
                            (p.q, (p.cat_v, p.cat_w))):
        if fun.source != src or fun.target != tgt:
            raise InvalidPasting("a 2-functor has the wrong frame")
    columns = ((p.alpha1, p.beta1, p.gamma1, p.mu1, p.nu1, p.f, p.h),
               (p.alpha2, p.beta2, p.gamma2, p.mu2, p.nu2, p.h, p.p),
               (p.alpha3, p.beta3, p.gamma3, p.mu3, p.nu3, p.g, p.k),
               (p.alpha4, p.beta4, p.gamma4, p.mu4, p.nu4, p.k, p.q))
    for al, bt, ga, mu, nu, src, tgt in columns:
        for nat in (al, bt, ga):
            if nat.source != src or nat.target != tgt:
                raise InvalidPasting("a transformation has the wrong frame")
        if mu.source != al or mu.target != bt:
            raise InvalidPasting("a modification has the wrong frame")
        if nu.source != bt or nu.target != ga:
            raise InvalidPasting("a modification has the wrong frame")


def exchange_suite(p: PastingInstance, *,
                   all_witnesses: bool = False) -> CheckReport:
    """Evaluate all four closing exchange identities on one pasting.

    Route disagreements inside the intermediate operations surface as
    witnesses rather than exceptions so a corrupted instance still yields a
    diagnosable report.
    """
    _check_frames(p)
    b = ReportBuilder(all_witnesses)
    # Each identity is the interchange law outer(inner(w, x), inner(y, z))
    # == inner(outer(w, y), outer(x, z)) on four of the pasting's cells:
    # (family, outer, inner, cells w x y z, diff).  Built per call, so the
    # operations are the ones bound in this module when the suite runs.
    for name, outer, inner, cells, diff in (
            ("exchange-1", compose_nat_along_functor,
             hcomp_nats_along_category, "alpha4 alpha2 alpha3 alpha1",
             _diff_nat),
            ("exchange-2", hcomp_modifications_along_nat, vcomp_modifications,
             "nu2 mu2 nu1 mu1", _diff_mod),
            ("exchange-3", vcomp_modifications, hcomp_mods_along_category,
             "nu3 nu1 mu3 mu1", _diff_mod),
            ("exchange-4", hcomp_modifications_along_nat,
             hcomp_mods_along_category, "mu4 mu2 mu3 mu1", _diff_mod)):
        w, x, y, z = (getattr(p, cell) for cell in cells.split())

        def law(_):
            try:
                lhs = outer(inner(w, x), inner(y, z))
                rhs = inner(outer(w, y), outer(x, z))
            except KernelError as err:
                return f"<error: {err}>", None
            return _witness(diff(lhs, rhs))
        b.family(name, *each_row([("pasting",)], law))
    return b.report()


# -- products and units --------------------------------------------------------------

def product_v2cat(i: int, u: V2Category, w: V2Category) -> V2Category:
    """The i-th product of level-2 structures: vcat's product over V-Cat, so
    hom categories are taken with the (i+1)-th level-1 product; built once
    per (i, u, w), with a ``LazyTable`` of composition functors."""
    return _product(_VCAT_CELLS, i, u, w)


def unit_v2category(base: KFoldMonoidal) -> V2Category:
    """One object, hom the unit enriched category; built once per base."""
    return _unit(_VCAT_CELLS, base)


def relabel_v2category(u: V2Category, obj_map: dict, cell_maps: dict) -> V2Category:
    """Rename objects and 1-cells through bijections.

    cell_maps is keyed by the *old* object pair and renames that hom
    category's objects.  Composition and identity functors are rebuilt over
    the relabeled homs.
    """
    _require_bijection(obj_map, u.objects)
    objects = set(obj_map.values())
    hom = {}
    for (a, b), vcat_ab in u.hom.items():
        hom[(obj_map[a], obj_map[b])] = relabel_vcategory(
            vcat_ab, cell_maps[(a, b)])
    comp = {}
    for (a, b, c), m2 in u.comp.items():
        na, nb, nc = obj_map[a], obj_map[b], obj_map[c]
        source = product_vcat(1, hom[(nb, nc)], hom[(na, nb)])
        cg, cf, ch = cell_maps[(b, c)], cell_maps[(a, b)], cell_maps[(a, c)]
        pairs = list(iproduct(sorted(u.hom[(b, c)].objects),
                              sorted(u.hom[(a, b)].objects)))
        nobj = {pair(cg[g], cf[f]): ch[m2.obj_map[pair(g, f)]]
                for (g, f) in pairs}
        nhom = {}
        for (g, f) in pairs:
            for (g2, f2) in pairs:
                nhom[(pair(cg[g], cf[f]), pair(cg[g2], cf[f2]))] = \
                    m2.hom_map[(pair(g, f), pair(g2, f2))]
        comp[(na, nb, nc)] = VFunctor(source, hom[(na, nc)], nobj, nhom)
    identity = {}
    for a, j2 in u.identity.items():
        ca = cell_maps[(a, a)]
        identity[obj_map[a]] = VFunctor(
            j2.source, hom[(obj_map[a], obj_map[a])],
            {"0": ca[j2.obj_map["0"]]}, dict(j2.hom_map))
    return V2Category(u.base, objects, hom, comp, identity)
