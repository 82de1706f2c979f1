"""Shipped bases, canonical enriched instances, and corpus generators.

Desk-scale bases:

  * bool_poset(k): the two-element poset bot <= top under meet, with top as
    the strict unit, replicated into k equal tensors via the symmetric
    construction.
  * zmod2(k): the discrete two-object category under addition mod 2 with 0
    as the unit, likewise replicated.

Both are thin symmetric tables, given as data (arrows, unit, tensor of
objects) to one builder, ``_thin_symmetric``, and their interchange tables
are produced by the composite through the symmetry rather than written down
by hand; the shipped corpus therefore exercises exactly the construction
path a user-supplied symmetric base would take.  ``_SHIPPED`` is the one
list of shipped bases, by name with its tensor count, that ``corpus``,
``enrichkit fuzz --base`` and ``random_instance``'s default read.
Genuinely non-symmetric structures are accepted as input everywhere but are
not shipped.

Generation.  Random V-categories, V-functors and V-2-categories come from
one rejection loop, ``_sample(draw, check, what)``: it keeps the
first candidate ``draw()`` returns that passes its level checker, records
the attempt that produced it as the winner's ``_generation_attempts``, and
raises ``BudgetExhausted`` when the budget runs out.  Each table of
morphisms in a draw (composition and identity elements, a functor's hom
map, transformation components) is filled by one per-slot loop,
``_draw(cat, slots, pick)``, which picks a morphism from each slot's
hom-set and gives None at the first empty one; every one-object
V-2-category, shipped or random, is built by ``_monoid_v2cat``.  Two loops
keep their own shape, since the RNG draws they make are part of the
generated structures: ``_random_vnat`` returns None at the first empty
component hom-set (t and s fix those hom-sets, so a redraw would fail
there again), and each candidate of ``_random_v2category`` draws its hom
V-category with its own inner budget.
"""
from __future__ import annotations

import random
from itertools import product
from operator import itemgetter

from .errors import (
    BudgetExhausted,
    ConstructionFailed,
    MalformedTable,
    NotPreorder,
    NotSymmetric,
    UnknownObject,
)
from .fincat import FinCategory, inverse
from .kfold import KFoldMonoidal, LiftedTables, check_kfold
from .report import (CheckReport, Record, ReportBuilder, const, equations,
                     lift)
from .serialize import Tower
from .vcat import (
    VCategory,
    VFunctor,
    VNatTransform,
    check_vcategory,
    check_vfunctor,
    check_vnat,
    identity_vfunctor,
    identity_vnat,
    pair,
    product_vcat,
    unit_vcategory,
)
from .v2cat import (
    PastingInstance,
    V2Category,
    V2Functor,
    V2NatTransform,
    VModification,
    check_modification,
    check_v2category,
    check_v2functor,
    check_v2nat,
)

RANDOM_ATTEMPT_CAP = 5000


def _thin(hom: list):
    """The only morphism of a non-empty hom-set of a thin base."""
    if len(hom) > 1:
        raise MalformedTable(f"hom-set is not thin: {hom}")
    return hom[0]


def unique_morphism(cat: FinCategory, a: str, b: str):
    """The unique morphism a -> b in a thin category, or None."""
    hom = cat.hom(a, b)
    return _thin(hom) if hom else None


def _sample(draw, check, what: str):
    """The first non-None ``draw()`` that passes ``check``, within budget."""
    for attempt in range(1, RANDOM_ATTEMPT_CAP + 1):
        cand = draw()
        if cand is not None and check(cand).ok:
            cand._generation_attempts = attempt
            return cand
    raise BudgetExhausted(
        f"no valid {what} after {RANDOM_ATTEMPT_CAP} attempts")


def _draw(cat: FinCategory, slots, pick):
    """``{key: pick(cat.hom(dom, cod))}`` over the (key, dom, cod) slots.

    None at the first empty hom-set; the slots are read lazily, so no pick
    is made past it.
    """
    out = {}
    for key, dom, cod in slots:
        hom = cat.hom(dom, cod)
        if not hom:
            return None
        out[key] = pick(hom)
    return out


def _draw_vfunctor(source: VCategory, target: VCategory, obj_map: dict,
                   pick):
    """The V-functor on obj_map whose hom map is drawn by pick, or None."""
    objs = sorted(source.objects)
    hom_map = _draw(source.base.base,
                    ((key, source.hom[key],
                      target.hom[(obj_map[key[0]], obj_map[key[1]])])
                     for key in product(objs, repeat=2)), pick)
    return None if hom_map is None else VFunctor(source, target, obj_map,
                                                 hom_map)


# -- symmetric monoidal input and the k-fold construction --------------------

class SymmetricMonoidal(Record):
    """One tensor with associator and symmetry component tables."""
    __slots__ = ("base", "unit", "tensor_obj", "tensor_mor", "assoc",
                 "symmetry")

    def __init__(self, base: FinCategory, unit: str, tensor_obj: dict,
                 tensor_mor: dict, assoc: dict, symmetry: dict):
        self.base = base
        self.unit = unit
        self.tensor_obj = tensor_obj    # (a, b) -> a⊗b
        self.tensor_mor = tensor_mor    # (f, g) -> f⊗g
        self.assoc = assoc              # (a, b, c) -> (a⊗b)⊗c -> a⊗(b⊗c)
        self.symmetry = symmetry        # (a, b) -> c_{ab}: a⊗b -> b⊗a


def _symmetric_problems(
        sym: SymmetricMonoidal) -> tuple[CheckReport, dict | None]:
    """Check the symmetric axioms on top of a 1-fold structure.

    The shared monoidal axioms (pentagon, strict unit, bifunctoriality,
    naturality of the associator) are delegated to check_kfold on the 1-fold
    restriction; this adds naturality of c, the inverse law c∘c = id, and
    the hexagon relating c to the associator.  Returns the report and the
    associator's inverse components (None if one is missing).
    """
    single = KFoldMonoidal(sym.base, 1, sym.unit,
                           {1: sym.tensor_obj}, {1: sym.tensor_mor},
                           {1: sym.assoc}, {})
    rep = check_kfold(single, all_witnesses=True)
    cat = sym.base
    objs = sorted(cat.objects)
    mors = sorted(cat.morphisms)

    for key in product(objs, repeat=2):
        if key not in sym.symmetry or sym.symmetry[key] not in cat.morphisms:
            raise MalformedTable(f"symmetry component missing or unknown at {key}")

    cols = LiftedTables(single)
    comp, dom, cod, idm = cols.comp, cols.dom, cols.cod, cols.idm
    to, tm, al = cols.to[1], cols.tm[1], cols.al[1]
    c = lift(sym.symmetry)
    inv = _invert_components(cat, sym.assoc)
    no_inverse, undefined = const("<no associator inverse>"), const(None)

    def c_boundary(a, y):
        m = c(a, y)
        return [(dom(m), to(a, y)), (cod(m), to(y, a))]

    def c_involution(a, y):
        return [(comp(c(y, a), c(a, y)), idm(to(a, y)))]

    def c_natural(f, g):
        return [(comp(c(cod(f), cod(g)), tm(f, g)),
                 comp(tm(g, f), c(dom(f), dom(g))))]

    def c_hexagon(a, y, z):
        if inv is None:
            return [(no_inverse, undefined)]
        return [(comp(al(y, z, a), comp(c(a, to(y, z)), al(a, y, z))),
                 comp(tm(idm(y), c(a, z)),
                      comp(al(y, a, z), tm(c(a, y), idm(z)))))]

    b = ReportBuilder(all_witnesses=True)
    for name, axes, legs in (
            ("symmetry-boundary", [objs] * 2, c_boundary),
            ("symmetry-involution", [objs] * 2, c_involution),
            ("symmetry-naturality", [mors] * 2, c_natural),
            ("symmetry-hexagon", [objs] * 3, c_hexagon)):
        b.family(name, *equations(axes, legs))

    out = b.report()
    out.merge(rep, prefix="monoidal:")
    return out, inv


def _invert_components(cat: FinCategory, table: dict):
    """Two-sided inverses for every component, or None if any is missing."""
    out = {key: inverse(cat, m) for key, m in table.items()}
    return None if None in out.values() else out


def from_symmetric(sym: SymmetricMonoidal, k: int) -> KFoldMonoidal:
    """Replicate one symmetric tensor into k equal tensors.

    Every interchange component is tabulated by evaluating the composite
    through the symmetry,

        eta_{ABCD} = a^. (1_A . a) . (1_A . (c_BC . 1_D)) . (1_A . a^) . a

    where a^ denotes the inverse associator, so the construction fails with
    NotSymmetric when the input data is not coherently symmetric or its
    associator is not invertible.
    """
    problems, inv = _symmetric_problems(sym)
    if not problems.ok:
        raise NotSymmetric("symmetric input failed its checks", problems)
    cat = sym.base
    if inv is None:
        raise NotSymmetric("associator has a non-invertible component")

    eta = {}
    for a, b2, c2, d in product(sorted(cat.objects), repeat=4):
        chain = sym.assoc[(a, b2, sym.tensor_obj[(c2, d)])]
        chain = cat.comp[(sym.tensor_mor[(cat.identity[a],
                                          inv[(b2, c2, d)])], chain)]
        chain = cat.comp[(sym.tensor_mor[
            (cat.identity[a],
             sym.tensor_mor[(sym.symmetry[(b2, c2)], cat.identity[d])])],
            chain)]
        chain = cat.comp[(sym.tensor_mor[(cat.identity[a],
                                          sym.assoc[(c2, b2, d)])], chain)]
        chain = cat.comp[(inv[(a, c2, sym.tensor_obj[(b2, d)])], chain)]
        eta[(a, b2, c2, d)] = chain

    return KFoldMonoidal(
        base=cat, n=k, unit=sym.unit,
        tensor_obj_table={i: dict(sym.tensor_obj) for i in range(1, k + 1)},
        tensor_mor_table={i: dict(sym.tensor_mor) for i in range(1, k + 1)},
        assoc_table={i: dict(sym.assoc) for i in range(1, k + 1)},
        interchange_table={(i, j): dict(eta)
                           for i in range(1, k + 1)
                           for j in range(i + 1, k + 1)})


def from_document(tower: Tower, k: int) -> KFoldMonoidal:
    """``from_symmetric`` on a document's base, read as its first tensor and
    associator with the document's symmetry table."""
    if tower.symmetry is None:
        raise ConstructionFailed("document base carries no symmetry table")
    base = tower.base
    return from_symmetric(SymmetricMonoidal(
        base.base, base.unit, base.tensor_obj_table[1],
        base.tensor_mor_table[1], base.assoc_table[1], tower.symmetry), k)


# -- shipped bases ------------------------------------------------------------

BOT, TOP = "bot", "top"


def _thin_symmetric(arrows: dict, unit: str, op) -> SymmetricMonoidal:
    """The thin symmetric monoidal category on the (dom, cod) table of
    arrows, identities included: composites and tensors of morphisms are the
    unique arrows, objects tensor by op, and every associator and symmetry
    component is the identity of its target."""
    dom = {m: a for m, (a, _) in arrows.items()}
    cod = {m: b for m, (_, b) in arrows.items()}
    objects = set(dom.values())
    identity = {a: m for m, (a, b) in arrows.items() if a == b}
    cat = FinCategory(objects, set(arrows), dom, cod, {}, identity)
    cat.comp.update({(g, f): unique_morphism(cat, dom[f], cod[g])
                     for g in arrows for f in arrows if cod[f] == dom[g]})
    tensor_obj = {(a, b): op(a, b) for a, b in product(objects, repeat=2)}
    tensor_mor = {(f, g): unique_morphism(cat, op(dom[f], dom[g]),
                                          op(cod[f], cod[g]))
                  for f, g in product(arrows, repeat=2)}
    assoc = {(a, b, c): identity[op(a, op(b, c))]
             for a, b, c in product(objects, repeat=3)}
    symmetry = {(a, b): identity[op(b, a)] for a, b in tensor_obj}
    return SymmetricMonoidal(cat, unit, tensor_obj, tensor_mor, assoc, symmetry)


def bool_symmetric() -> SymmetricMonoidal:
    """The poset bot <= top under meet, unit top, identity coherence."""
    return _thin_symmetric(
        {"id_bot": (BOT, BOT), "id_top": (TOP, TOP), "u": (BOT, TOP)}, TOP,
        lambda a, b: TOP if a == b == TOP else BOT)


def zmod2_symmetric() -> SymmetricMonoidal:
    """The discrete category on {0, 1} under addition mod 2, unit 0."""
    return _thin_symmetric({"id0": ("0", "0"), "id1": ("1", "1")}, "0",
                           lambda a, b: str((int(a) + int(b)) % 2))


def bool_poset(k: int) -> KFoldMonoidal:
    return from_symmetric(bool_symmetric(), k)


def zmod2(k: int) -> KFoldMonoidal:
    return from_symmetric(zmod2_symmetric(), k)


# The shipped bases by name: a symmetric base and its tensor count.
_SHIPPED = {"bool2": (bool_symmetric, 2), "bool3": (bool_symmetric, 3),
            "zmod3": (zmod2_symmetric, 3)}


def _shipped(name: str) -> Tower:
    """The shipped base ``name`` with its symmetry table."""
    symmetric, k = _SHIPPED[name]
    sym = symmetric()
    return Tower(from_symmetric(sym, k), sym.symmetry)


# -- canonical enriched instances ---------------------------------------------

def preorder_vcat(base: KFoldMonoidal, objects, relation) -> VCategory:
    """Preorder as a category enriched in a meet-poset base.

    hom(a, b) is the unit object when a <= b and the bottom-most object
    otherwise; composition and identity elements are the unique morphisms of
    the thin base.  Raises NotPreorder when the relation is not reflexive
    and transitive over the given carrier.
    """
    objects = sorted(objects)
    rel = {tuple(p) for p in relation}
    for a in objects:
        if (a, a) not in rel:
            raise NotPreorder(f"relation is not reflexive at {a!r}")
    pairs = sorted(rel)
    for (a, b) in pairs:
        for (b2, c) in pairs:
            if b == b2 and (a, c) not in rel:
                raise NotPreorder(f"relation is not transitive at ({a}, {b}, {c})")

    cat = base.base
    top_obj = base.unit
    bottoms = sorted(o for o in cat.objects if o != top_obj)
    if len(bottoms) != 1:
        raise MalformedTable("preorder enrichment expects a two-object base")
    bot_obj = bottoms[0]

    hom = {(a, b): top_obj if (a, b) in rel else bot_obj
           for a in objects for b in objects}
    comp = {}
    for a, b, c in product(objects, repeat=3):
        src = base.tensor_obj(1, hom[(b, c)], hom[(a, b)])
        comp[(a, b, c)] = unique_morphism(cat, src, hom[(a, c)])
        if comp[(a, b, c)] is None:
            raise NotPreorder(f"no composition morphism for ({a}, {b}, {c})")
    identity = {a: unique_morphism(cat, base.unit, hom[(a, a)]) for a in objects}
    return VCategory(base, set(objects), hom, comp, identity)


def cocycle_vcat(base: KFoldMonoidal, potential: dict) -> VCategory:
    """Weight each hom by the difference of a potential, over a discrete base.

    hom(a, b) = p(b) - p(a) in Z/2; composition is forced because the
    weights telescope, which is exactly what makes the discrete composition
    morphisms exist.
    """
    cat = base.base
    if not {"0", "1"} <= cat.objects:
        raise UnknownObject("cocycle_vcat needs a base with objects '0' and "
                            "'1' (Z/2 under addition)")
    objects = sorted(potential)

    def add(x, y):
        return str((int(x) + int(y)) % 2)

    hom = {(a, b): add(potential[b], potential[a])
           for a in objects for b in objects}
    comp = {(a, b, c): cat.identity[hom[(a, c)]]
            for a in objects for b in objects for c in objects}
    identity = {a: cat.identity[hom[(a, a)]] for a in objects}
    return VCategory(base, set(objects), hom, comp, identity)


def _monoid_v2cat(base: KFoldMonoidal, hom: VCategory, op: dict, pick,
                  unit_cell: str) -> V2Category | None:
    """One object whose 1-cells are hom's objects, composed by op.

    op maps (g, f) to the 1-cell g.f; the entries of the composition and
    unit V-functors are drawn by pick, and None means a hom-set had none.
    """
    star = "*"
    m2 = _draw_vfunctor(product_vcat(1, hom, hom), hom,
                        {pair(g, f): h for (g, f), h in op.items()}, pick)
    j2 = m2 and _draw_vfunctor(unit_vcategory(base), hom, {"0": unit_cell},
                               pick)
    return j2 and V2Category(base, {star}, {(star, star): hom},
                             {(star, star, star): m2}, {star: j2})


def _shipped_monoid(base: KFoldMonoidal, hom: VCategory, op: dict,
                    unit_cell: str) -> V2Category:
    """``_monoid_v2cat`` over a thin base, which must have every entry."""
    u = _monoid_v2cat(base, hom, op, _thin, unit_cell)
    if u is None:
        raise MalformedTable("the base lacks a composition or unit morphism "
                             "of the one-object structure")
    return u


def join_monoid_v2cat(base: KFoldMonoidal) -> V2Category:
    """One object, 1-cells {one <= t}, horizontal composition by join.

    The minimal structure whose vertical hom-posets, join composition, and
    unit 1-cell exercise every level-2 diagram nontrivially over a
    meet-poset base with at least two tensors.
    """
    onec = ["one", "t"]
    hom = preorder_vcat(base, onec, {("one", "one"), ("one", "t"), ("t", "t")})
    join = {(g, f): "t" if "t" in (g, f) else "one"
            for g in onec for f in onec}
    return _shipped_monoid(base, hom, join, "one")


def xor_group_v2cat(base: KFoldMonoidal) -> V2Category:
    """One object, 1-cells Z/2 under xor, hom-objects weighted by parity.

    Lives over the discrete additive base; horizontal composition is the
    group operation, so interchange squares act on genuinely non-identity
    hom-objects.
    """
    cells = ["x", "y"]
    hom = cocycle_vcat(base, {"x": "0", "y": "1"})
    xor = {(g, f): "x" if g == f else "y" for g in cells for f in cells}
    return _shipped_monoid(base, hom, xor, "x")


# -- seeded random corpus -----------------------------------------------------

class Bounds(Record):
    __slots__ = ("max_objects", "max_hom")

    def __init__(self, max_objects: int = 3, max_hom: int = 3):
        self.max_objects = max_objects
        self.max_hom = max_hom


def corpus(seed: int = 0) -> dict:
    """The shipped instance corpus plus a few seeded random structures: one
    ``Tower`` per base, by the base's name, with its symmetry table.

    Everything here passes its level checker; the random tail is
    reproducible bit-exactly from the seed.  Only the named structures are
    filed, so a frame that is not itself named (the random pasting's) is
    not.
    """
    out = {name: _shipped(name) for name in _SHIPPED}
    b2, b3, z3 = out.values()
    bool2, bool3, zmod3 = b2.base, b3.base, z3.base

    p = preorder_vcat(bool2, ["a", "b"], {("a", "a"), ("a", "b"), ("b", "b")})
    p3 = preorder_vcat(bool2, ["a", "b", "c"],
                       {("a", "a"), ("b", "b"), ("c", "c"),
                        ("a", "b"), ("b", "c"), ("a", "c")})
    b2.vcategories = {
        "P": p, "P3": p3, "I_bool2": unit_vcategory(bool2),
        "R1": _random_vcategory(bool2, random.Random(seed), Bounds()),
    }
    z3.vcategories = {
        "D": cocycle_vcat(zmod3, {"x": "0", "y": "1"}),
        "I_zmod3": unit_vcategory(zmod3),
        "R2": _random_vcategory(zmod3, random.Random(seed + 1), Bounds()),
    }

    ident = identity_vfunctor(p)
    collapse = _draw_vfunctor(p, p, {"a": "a", "b": "a"}, _thin)
    b2.vfunctors = {"id_P": ident, "collapse_P": collapse}
    b2.vnats = {
        "unit_P": identity_vnat(ident),
        "collapse_to_id": VNatTransform(
            collapse, ident,
            {x: unique_morphism(bool2.base, bool2.unit, p.hom[("a", x)])
             for x in p.objects}),
    }

    w = join_monoid_v2cat(bool2)
    x2 = xor_group_v2cat(zmod3)
    b2.v2categories = {"W": w}
    b3.v2categories = {"W3": join_monoid_v2cat(bool3)}
    z3.v2categories = {"X2": x2}

    endos_w = _endo_v2functors(w)
    idw = next(e for e in endos_w
               if e.hom_map[("*", "*")].obj_map == {"one": "one", "t": "t"})
    idx = _endo_v2functors(x2)[0]
    b2.v2functors = {"id_W": idw}
    z3.v2functors = {"id_X2": idx}

    nats_w = _nats_between(idw, idw)
    n_one = next(n for n in nats_w if n.components["*"].obj_map["0"] == "one")
    n_t = next(n for n in nats_w if n.components["*"].obj_map["0"] == "t")
    nats_x = _nats_between(idx, idx)
    n_x = next(n for n in nats_x if n.components["*"].obj_map["0"] == "x")
    n_y = next(n for n in nats_x if n.components["*"].obj_map["0"] == "y")
    b2.v2nats = {"q_one": n_one, "q_t": n_t}
    z3.v2nats = {"q_x": n_x, "q_y": n_y}

    rise, stay = _mods_between(n_one, n_t)[0], _mods_between(n_t, n_t)[0]
    stay_x, stay_y = _mods_between(n_x, n_x)[0], _mods_between(n_y, n_y)[0]
    b2.modifications = {"rise": rise, "stay": stay}
    z3.modifications = {"stay_x": stay_x, "stay_y": stay_y}

    b2.pastings = {
        "pasting1": PastingInstance(
            w, w, w, idw, idw, idw, idw, idw, idw,
            n_one, n_t, n_t, rise, stay, n_one, n_t, n_t, rise, stay,
            n_one, n_t, n_t, rise, stay, n_one, n_t, n_t, rise, stay),
        "pasting_random": _random_pasting(w, random.Random(seed + 2)),
    }
    z3.pastings = {
        "pasting_xor": PastingInstance(
            x2, x2, x2, idx, idx, idx, idx, idx, idx,
            n_y, n_y, n_y, stay_y, stay_y, n_x, n_x, n_x, stay_x, stay_x,
            n_y, n_y, n_y, stay_y, stay_y, n_x, n_x, n_x, stay_x, stay_x),
    }
    return out


def _random_vcategory(base: KFoldMonoidal, rng: random.Random,
                      bounds: Bounds) -> VCategory:
    nobj = rng.randint(1, max(1, bounds.max_objects))
    return _random_vcategory_on(base, [f"o{i}" for i in range(nobj)], rng)


def _random_vcategory_on(base: KFoldMonoidal, objects: list,
                         rng: random.Random) -> VCategory:
    cat = base.base
    base_objs = sorted(cat.objects)

    def draw():
        hom = {(a, b): rng.choice(base_objs)
               for a in objects for b in objects}
        comp = _draw(cat, (((a, b, c),
                            base.tensor_obj(1, hom[(b, c)], hom[(a, b)]),
                            hom[(a, c)])
                           for a, b, c in product(objects, repeat=3)),
                     rng.choice)
        identity = None if comp is None else _draw(
            cat, ((a, base.unit, hom[(a, a)]) for a in objects), rng.choice)
        return None if identity is None else VCategory(
            base, set(objects), hom, comp, identity)

    return _sample(draw, check_vcategory, "enriched category")


def _random_vfunctor(a: VCategory, b: VCategory,
                     rng: random.Random) -> VFunctor:
    tgt_objs = sorted(b.objects)

    def draw():
        obj_map = {o: rng.choice(tgt_objs) for o in sorted(a.objects)}
        return _draw_vfunctor(a, b, obj_map, rng.choice)

    return _sample(draw, check_vfunctor, "enriched functor")


def _random_vnat(t: VFunctor, s: VFunctor, rng: random.Random):
    cat, unit = t.source.base.base, t.source.base.unit
    for _ in range(RANDOM_ATTEMPT_CAP):
        components = _draw(
            cat, ((x, unit, t.target.hom[(t.obj_map[x], s.obj_map[x])])
                  for x in sorted(t.source.objects)), rng.choice)
        if components is None:
            return None
        cand = VNatTransform(t, s, components)
        if check_vnat(cand).ok:
            return cand
    return None


def _random_v2category(base: KFoldMonoidal, rng: random.Random,
                       bounds: Bounds) -> V2Category:
    """One-object structure: a monotone monoid on a small hom category.

    Candidates are biased toward join-style tables so rejection terminates
    quickly, but validity is always decided by the checker.
    """
    cat = base.base
    # The join-on-a-chain shortcut needs a genuine two-point chain in the
    # base (thin, with a morphism from the non-unit object up to the unit);
    # a discrete base is thin but supports no such preorder.
    others = sorted(o for o in cat.objects if o != base.unit)
    chain_base = (len(others) == 1
                  and all(len(cat.hom(a, b)) <= 1
                          for a in cat.objects for b in cat.objects)
                  and unique_morphism(cat, others[0], base.unit) is not None)

    def draw():
        ncell = rng.randint(1, max(1, bounds.max_hom))
        cells = [f"c{i}" for i in range(ncell)]
        if chain_base and rng.random() < 0.5:
            try:
                hom = preorder_vcat(base, cells, {
                    (a, b) for i, a in enumerate(cells) for b in cells[i:]})
            except NotPreorder:
                return None
            unit_cell = cells[0]
            op = {(g, f): cells[max(cells.index(g), cells.index(f))]
                  for g in cells for f in cells}
        else:
            try:
                hom = _random_vcategory_on(base, cells, rng)
            except BudgetExhausted:
                return None
            unit_cell = rng.choice(cells)
            op = {(g, f): rng.choice(cells) for g in cells for f in cells}
        return _monoid_v2cat(base, hom, op, rng.choice, unit_cell)

    return _sample(draw, check_v2category, "level-2 category")


def _endo_v2functors(u: V2Category):
    """All endofunctors of a one-object structure, by exhaustive search."""
    star = sorted(u.objects)[0]
    hom = u.hom[(star, star)]
    cells = sorted(hom.objects)
    vfs = (_draw_vfunctor(hom, hom, dict(zip(cells, images)), itemgetter(0))
           for images in product(cells, repeat=len(cells)))
    cands = (V2Functor(u, u, {star: star}, {(star, star): vf})
             for vf in vfs if vf is not None)
    return [cand for cand in cands if check_v2functor(cand).ok]


def _nats_between(t: V2Functor, s: V2Functor):
    u = t.source
    star = sorted(u.objects)[0]
    w_hom = t.target.hom[(t.obj_map[star], s.obj_map[star])]
    unitv = unit_vcategory(u.base)
    out = []
    for q in sorted(w_hom.objects):
        comp = VFunctor(unitv, w_hom, {"0": q},
                        {("0", "0"): w_hom.identity[q]})
        cand = V2NatTransform(t, s, {star: comp})
        if check_v2nat(cand).ok:
            out.append(cand)
    return out


def _mods_between(a: V2NatTransform, b: V2NatTransform):
    u = a.source.source
    star = sorted(u.objects)[0]
    w_hom = a.source.target.hom[(a.source.obj_map[star], a.target.obj_map[star])]
    cat = u.base.base
    q = a.components[star].obj_map["0"]
    q2 = b.components[star].obj_map["0"]
    out = []
    for m in cat.hom(u.base.unit, w_hom.hom[(q, q2)]):
        cand = VModification(a, b, {star: m})
        if check_modification(cand).ok:
            out.append(cand)
    return out


def _random_pasting(u: V2Category, rng: random.Random) -> PastingInstance:
    """Assemble a full two-column pasting on one structure by search."""
    functors = _endo_v2functors(u)
    for _ in range(RANDOM_ATTEMPT_CAP):
        # f, h, p and g, k, q: the columns' 2-functors, in field order.
        fs = [rng.choice(functors) for _ in range(6)]
        f_, h_, p_, g_, k_, q_ = fs
        fillers = []
        for (src, tgt) in [(f_, h_), (h_, p_), (g_, k_), (k_, q_)]:
            nats = _nats_between(src, tgt)
            tries = [(x, y, z) for x in nats for y in nats for z in nats]
            rng.shuffle(tries)
            for (x, y, z) in tries:
                mu = _mods_between(x, y)
                nu = _mods_between(y, z)
                if mu and nu:
                    fillers += [x, y, z, mu[0], nu[0]]
                    break
            else:  # no column between src and tgt: redraw the 1-cells
                break
        else:
            return PastingInstance(u, u, u, *fs, *fillers)
    raise BudgetExhausted("no valid pasting instance")


def random_instance(level: str, seed: int, bounds: Bounds = None,
                    base: KFoldMonoidal = None):
    """Rejection-sample one validated structure at the requested level.

    Deterministic in seed; the candidate distribution may be biased, but a
    candidate is only ever returned after its level checker passes.  Raises
    BudgetExhausted after the documented attempt cap.
    """
    bounds = bounds or Bounds()
    if bounds.max_objects < 1 or bounds.max_hom < 1:
        raise BudgetExhausted("bounds admit no objects")
    rng = random.Random(seed)
    if base is None:
        base = _shipped("bool2" if seed % 2 == 0 else "zmod3").base
    if level == "vcategory":
        return _random_vcategory(base, rng, bounds)
    if level == "vfunctor":
        # A drawn pair may admit no functor at all (e.g. incompatible
        # weights over a discrete base); redraw rather than burn the budget.
        for _ in range(20):
            a = _random_vcategory(base, rng, bounds)
            b = _random_vcategory(base, rng, bounds)
            try:
                return _random_vfunctor(a, b, rng)
            except BudgetExhausted:
                continue
        raise BudgetExhausted("no functor-admitting category pair found")
    if level == "vnat":
        for _ in range(20):
            a = _random_vcategory(base, rng, bounds)
            b = _random_vcategory(base, rng, bounds)
            try:
                for _ in range(50):
                    t = _random_vfunctor(a, b, rng)
                    s = _random_vfunctor(a, b, rng)
                    got = _random_vnat(t, s, rng)
                    if got is not None:
                        return got
            except BudgetExhausted:
                continue
        raise BudgetExhausted("no valid transformation found")
    if level == "v2category":
        return _random_v2category(base, rng, bounds)
    if level == "v2functor":
        u = _random_v2category(base, rng, bounds)
        endos = _endo_v2functors(u)
        if not endos:
            raise BudgetExhausted("no endofunctors found")
        return rng.choice(endos)
    if level in ("v2nat", "modification"):
        for _ in range(RANDOM_ATTEMPT_CAP):
            endos = _endo_v2functors(_random_v2category(base, rng, bounds))
            t = rng.choice(endos)
            s = rng.choice(endos)
            nats = _nats_between(t, s)
            found = nats if level == "v2nat" else next(
                (mods for a in nats for b in nats
                 if (mods := _mods_between(a, b))), None)
            if found:
                return rng.choice(found)
        what = "2-transformation" if level == "v2nat" else "modification"
        raise BudgetExhausted(f"no valid {what} found")
    if level == "pasting":
        u = _random_v2category(base, rng, bounds)
        return _random_pasting(u, rng)
    raise ValueError(f"unknown level {level!r}")
