"""Shipped bases, canonical enriched instances, and corpus generators.

Desk-scale bases:

  * bool_poset(k): the two-element poset bot <= top under meet, with top as
    the strict unit, replicated into k equal tensors via the symmetric
    construction.
  * zmod2(k): the discrete two-object category under addition mod 2 with 0
    as the unit, likewise replicated.

Both are symmetric, so their interchange tables are produced by the
composite through the symmetry rather than written down by hand; the shipped
corpus therefore exercises exactly the construction path a user-supplied
symmetric base would take.  Genuinely non-symmetric structures are accepted
as input everywhere but are not shipped.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .errors import (
    BudgetExhausted,
    MalformedTable,
    NotPreorder,
    NotSymmetric,
)
from .fincat import FinCategory, inverse
from .kfold import KFoldMonoidal, LiftedTables, check_kfold
from .report import CheckReport, ReportBuilder, const, equations, lift
from .vcat import (
    VCategory,
    VFunctor,
    VNatTransform,
    check_vcategory,
    check_vfunctor,
    check_vnat,
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


def unique_morphism(cat: FinCategory, a: str, b: str):
    """The unique morphism a -> b in a thin category, or None."""
    hom = cat.hom(a, b)
    if len(hom) > 1:
        raise MalformedTable(f"hom({a}, {b}) is not thin: {hom}")
    return hom[0] if hom else None


# -- symmetric monoidal input and the k-fold construction --------------------

@dataclass
class SymmetricMonoidal:
    """One tensor with associator and symmetry component tables."""
    base: FinCategory
    unit: str
    tensor_obj: dict      # (a, b) -> a⊗b
    tensor_mor: dict      # (f, g) -> f⊗g
    assoc: dict           # (a, b, c) -> (a⊗b)⊗c -> a⊗(b⊗c)
    symmetry: dict        # (a, b) -> c_{ab}: a⊗b -> b⊗a


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


# -- shipped bases ------------------------------------------------------------

BOT, TOP = "bot", "top"


def bool_symmetric() -> SymmetricMonoidal:
    """The poset bot <= top under meet, unit top, identity coherence."""
    objects = {BOT, TOP}
    morphisms = {"id_bot", "id_top", "u"}
    dom = {"id_bot": BOT, "id_top": TOP, "u": BOT}
    cod = {"id_bot": BOT, "id_top": TOP, "u": TOP}
    identity = {BOT: "id_bot", TOP: "id_top"}
    cat = FinCategory(objects, morphisms, dom, cod, {}, identity)
    comp = {}
    for g in morphisms:
        for f in morphisms:
            if cod[f] == dom[g]:
                comp[(g, f)] = unique_morphism(cat, dom[f], cod[g])
    cat.comp.update(comp)

    def meet(a, b):
        return TOP if a == TOP and b == TOP else BOT

    tensor_obj = {(a, b): meet(a, b) for a in objects for b in objects}
    tensor_mor = {}
    for f in morphisms:
        for g in morphisms:
            tensor_mor[(f, g)] = unique_morphism(
                cat, meet(dom[f], dom[g]), meet(cod[f], cod[g]))
    assoc = {(a, b, c): identity[meet(meet(a, b), c)]
             for a in objects for b in objects for c in objects}
    symmetry = {(a, b): identity[meet(a, b)] for a in objects for b in objects}
    return SymmetricMonoidal(cat, TOP, tensor_obj, tensor_mor, assoc, symmetry)


def zmod2_symmetric() -> SymmetricMonoidal:
    """The discrete category on {0, 1} under addition mod 2, unit 0."""
    objects = {"0", "1"}
    morphisms = {"id0", "id1"}
    dom = {"id0": "0", "id1": "1"}
    cod = dict(dom)
    identity = {"0": "id0", "1": "id1"}
    comp = {("id0", "id0"): "id0", ("id1", "id1"): "id1"}
    cat = FinCategory(objects, morphisms, dom, cod, comp, identity)

    def add(a, b):
        return str((int(a) + int(b)) % 2)

    tensor_obj = {(a, b): add(a, b) for a in objects for b in objects}
    tensor_mor = {(f, g): identity[add(dom[f], dom[g])]
                  for f in morphisms for g in morphisms}
    assoc = {(a, b, c): identity[add(add(a, b), c)]
             for a in objects for b in objects for c in objects}
    symmetry = {(a, b): identity[add(a, b)] for a in objects for b in objects}
    return SymmetricMonoidal(cat, "0", tensor_obj, tensor_mor, assoc, symmetry)


def bool_poset(k: int) -> KFoldMonoidal:
    return from_symmetric(bool_symmetric(), k)


def zmod2(k: int) -> KFoldMonoidal:
    return from_symmetric(zmod2_symmetric(), k)


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
    for (a, b) in rel:
        for (b2, c) in rel:
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
    objects = sorted(potential)

    def add(x, y):
        return str((int(x) + int(y)) % 2)

    hom = {(a, b): add(potential[b], potential[a])
           for a in objects for b in objects}
    comp = {(a, b, c): cat.identity[hom[(a, c)]]
            for a in objects for b in objects for c in objects}
    identity = {a: cat.identity[hom[(a, a)]] for a in objects}
    return VCategory(base, set(objects), hom, comp, identity)


def join_monoid_v2cat(base: KFoldMonoidal) -> V2Category:
    """One object, 1-cells {one <= t}, horizontal composition by join.

    The minimal structure whose vertical hom-posets, join composition, and
    unit 1-cell exercise every level-2 diagram nontrivially over a
    meet-poset base with at least two tensors.
    """
    star = "*"
    onec = ["one", "t"]
    hom = preorder_vcat(base, onec, {("one", "one"), ("one", "t"), ("t", "t")})

    def join(x, y):
        return "t" if "t" in (x, y) else "one"

    src = product_vcat(1, hom, hom)
    obj_map = {pair(g, f): join(g, f) for g in onec for f in onec}
    hom_map = {}
    for g, f in product(onec, repeat=2):
        for g2, f2 in product(onec, repeat=2):
            key = (pair(g, f), pair(g2, f2))
            hom_map[key] = unique_morphism(
                base.base, src.hom[key], hom.hom[(join(g, f), join(g2, f2))])
    m2 = VFunctor(src, hom, obj_map, hom_map)

    unitv = unit_vcategory(base)
    j2 = VFunctor(unitv, hom, {"0": "one"},
                  {("0", "0"): hom.identity["one"]})
    return V2Category(base, {star}, {(star, star): hom},
                      {(star, star, star): m2}, {star: j2})


def xor_group_v2cat(base: KFoldMonoidal) -> V2Category:
    """One object, 1-cells Z/2 under xor, hom-objects weighted by parity.

    Lives over the discrete additive base; horizontal composition is the
    group operation, so interchange squares act on genuinely non-identity
    hom-objects.
    """
    star = "*"
    cells = ["x", "y"]
    potential = {"x": "0", "y": "1"}
    hom = cocycle_vcat(base, potential)

    def op(a, b):
        return "x" if a == b else "y"

    src = product_vcat(1, hom, hom)
    obj_map = {pair(g, f): op(g, f) for g in cells for f in cells}
    hom_map = {}
    for g, f in product(cells, repeat=2):
        for g2, f2 in product(cells, repeat=2):
            key = (pair(g, f), pair(g2, f2))
            hom_map[key] = base.base.identity[src.hom[key]]
    m2 = VFunctor(src, hom, obj_map, hom_map)
    unitv = unit_vcategory(base)
    j2 = VFunctor(unitv, hom, {"0": "x"}, {("0", "0"): hom.identity["x"]})
    return V2Category(base, {star}, {(star, star): hom},
                      {(star, star, star): m2}, {star: j2})


# -- seeded random corpus -----------------------------------------------------

@dataclass
class Bounds:
    max_objects: int = 3
    max_hom: int = 3
    attempts: int = RANDOM_ATTEMPT_CAP


@dataclass
class Corpus:
    """Named, fully validated structures at every level, seed-deterministic."""
    seed: int
    bases: dict = field(default_factory=dict)
    vcategories: dict = field(default_factory=dict)
    vfunctors: dict = field(default_factory=dict)
    vnats: dict = field(default_factory=dict)
    v2categories: dict = field(default_factory=dict)
    v2functors: dict = field(default_factory=dict)
    v2nats: dict = field(default_factory=dict)
    modifications: dict = field(default_factory=dict)
    pastings: dict = field(default_factory=dict)


def corpus(seed: int = 0) -> Corpus:
    """The shipped instance corpus plus a few seeded random structures.

    Everything here passes its level checker; the random tail is
    reproducible bit-exactly from the seed.
    """
    out = Corpus(seed)
    bool2 = bool_poset(2)
    bool3 = bool_poset(3)
    zmod3 = zmod2(3)
    out.bases = {"bool2": bool2, "bool3": bool3, "zmod3": zmod3}

    p = preorder_vcat(bool2, ["a", "b"], {("a", "a"), ("a", "b"), ("b", "b")})
    p3 = preorder_vcat(bool2, ["a", "b", "c"],
                       {("a", "a"), ("b", "b"), ("c", "c"),
                        ("a", "b"), ("b", "c"), ("a", "c")})
    d = cocycle_vcat(zmod3, {"x": "0", "y": "1"})
    out.vcategories = {
        "P": p, "P3": p3, "D": d,
        "I_bool2": unit_vcategory(bool2), "I_zmod3": unit_vcategory(zmod3),
        "R1": _random_vcategory(bool2, random.Random(seed), Bounds()),
        "R2": _random_vcategory(zmod3, random.Random(seed + 1), Bounds()),
    }

    from .vcat import identity_vfunctor, identity_vnat
    ident = identity_vfunctor(p)
    collapse = VFunctor(
        p, p, {"a": "a", "b": "a"},
        {(x, y): unique_morphism(bool2.base, p.hom[(x, y)], p.hom[("a", "a")])
         for x in p.objects for y in p.objects})
    out.vfunctors = {"id_P": ident, "collapse_P": collapse}
    out.vnats = {
        "unit_P": identity_vnat(ident),
        "collapse_to_id": VNatTransform(
            collapse, ident,
            {x: unique_morphism(bool2.base, bool2.unit, p.hom[("a", x)])
             for x in p.objects}),
    }

    w = join_monoid_v2cat(bool2)
    w3 = join_monoid_v2cat(bool3)
    x2 = xor_group_v2cat(zmod3)
    out.v2categories = {"W": w, "W3": w3, "X2": x2}

    endos_w = _endo_v2functors(w)
    idw = next(e for e in endos_w
               if e.hom_map[("*", "*")].obj_map == {"one": "one", "t": "t"})
    idx = _endo_v2functors(x2)[0]
    out.v2functors = {"id_W": idw, "id_X2": idx}

    nats_w = _nats_between(idw, idw)
    n_one = next(n for n in nats_w if n.components["*"].obj_map["0"] == "one")
    n_t = next(n for n in nats_w if n.components["*"].obj_map["0"] == "t")
    nats_x = _nats_between(idx, idx)
    n_x = next(n for n in nats_x if n.components["*"].obj_map["0"] == "x")
    n_y = next(n for n in nats_x if n.components["*"].obj_map["0"] == "y")
    out.v2nats = {"q_one": n_one, "q_t": n_t, "q_x": n_x, "q_y": n_y}

    out.modifications = {
        "rise": _mods_between(n_one, n_t)[0],
        "stay": _mods_between(n_t, n_t)[0],
        "stay_x": _mods_between(n_x, n_x)[0],
        "stay_y": _mods_between(n_y, n_y)[0],
    }

    rise, stay = out.modifications["rise"], out.modifications["stay"]
    stay_x, stay_y = out.modifications["stay_x"], out.modifications["stay_y"]
    out.pastings = {
        "pasting1": PastingInstance(
            w, w, w, idw, idw, idw, idw, idw, idw,
            n_one, n_t, n_t, rise, stay, n_one, n_t, n_t, rise, stay,
            n_one, n_t, n_t, rise, stay, n_one, n_t, n_t, rise, stay),
        "pasting_xor": PastingInstance(
            x2, x2, x2, idx, idx, idx, idx, idx, idx,
            n_y, n_y, n_y, stay_y, stay_y, n_x, n_x, n_x, stay_x, stay_x,
            n_y, n_y, n_y, stay_y, stay_y, n_x, n_x, n_x, stay_x, stay_x),
        "pasting_random": _random_pasting(w, random.Random(seed + 2), Bounds()),
    }
    return out


def _random_vcategory(base: KFoldMonoidal, rng: random.Random,
                      bounds: Bounds) -> VCategory:
    nobj = rng.randint(1, max(1, bounds.max_objects))
    return _random_vcategory_on(base, [f"o{i}" for i in range(nobj)], rng,
                                bounds)


def _random_vcategory_on(base: KFoldMonoidal, objects: list,
                         rng: random.Random, bounds: Bounds) -> VCategory:
    cat = base.base
    base_objs = sorted(cat.objects)
    for attempt in range(1, bounds.attempts + 1):
        hom = {(a, b): rng.choice(base_objs)
               for a in objects for b in objects}
        ok = True
        comp = {}
        for a, b, c in product(objects, repeat=3):
            cands = cat.hom(base.tensor_obj(1, hom[(b, c)], hom[(a, b)]),
                            hom[(a, c)])
            if not cands:
                ok = False
                break
            comp[(a, b, c)] = rng.choice(cands)
        if not ok:
            continue
        identity = {}
        for a in objects:
            cands = cat.hom(base.unit, hom[(a, a)])
            if not cands:
                ok = False
                break
            identity[a] = rng.choice(cands)
        if not ok:
            continue
        cand = VCategory(base, set(objects), hom, comp, identity)
        if check_vcategory(cand).ok:
            cand._generation_attempts = attempt
            return cand
    raise BudgetExhausted(
        f"no valid enriched category after {bounds.attempts} attempts")


def _random_vfunctor(a: VCategory, b: VCategory, rng: random.Random,
                     bounds: Bounds) -> VFunctor:
    cat = a.base.base
    src_objs = sorted(a.objects)
    tgt_objs = sorted(b.objects)
    for attempt in range(1, bounds.attempts + 1):
        obj_map = {o: rng.choice(tgt_objs) for o in src_objs}
        hom_map = {}
        ok = True
        for x, y in product(src_objs, repeat=2):
            cands = cat.hom(a.hom[(x, y)], b.hom[(obj_map[x], obj_map[y])])
            if not cands:
                ok = False
                break
            hom_map[(x, y)] = rng.choice(cands)
        if not ok:
            continue
        cand = VFunctor(a, b, obj_map, hom_map)
        if check_vfunctor(cand).ok:
            cand._generation_attempts = attempt
            return cand
    raise BudgetExhausted(
        f"no valid enriched functor after {bounds.attempts} attempts")


def _random_vnat(t: VFunctor, s: VFunctor, rng: random.Random,
                 bounds: Bounds):
    cat = t.source.base.base
    for _ in range(bounds.attempts):
        components = {}
        ok = True
        for x in sorted(t.source.objects):
            cands = cat.hom(t.source.base.unit,
                            t.target.hom[(t.obj_map[x], s.obj_map[x])])
            if not cands:
                ok = False
                break
            components[x] = rng.choice(cands)
        if not ok:
            return None
        cand = VNatTransform(t, s, components)
        if check_vnat(cand).ok:
            return cand
    return None


def _chain_preorder(objects):
    rel = set()
    for i, a in enumerate(objects):
        for b in objects[i:]:
            rel.add((a, b))
    return rel


def _random_v2category(base: KFoldMonoidal, rng: random.Random,
                       bounds: Bounds) -> V2Category:
    """One-object structure: a monotone monoid on a small hom category.

    Candidates are biased toward join-style tables so rejection terminates
    quickly, but validity is always decided by the checker.
    """
    cat = base.base
    star = "*"
    for attempt in range(1, bounds.attempts + 1):
        ncell = rng.randint(1, max(1, bounds.max_hom))
        cells = [f"c{i}" for i in range(ncell)]
        # The join-on-a-chain shortcut needs a genuine two-point chain in the
        # base (thin, with a morphism from the non-unit object up to the
        # unit); a discrete base is thin but supports no such preorder.
        others = sorted(o for o in cat.objects if o != base.unit)
        chain_base = (len(others) == 1
                      and all(len(cat.hom(a, b2)) <= 1
                              for a in cat.objects for b2 in cat.objects)
                      and unique_morphism(cat, others[0], base.unit) is not None)
        if chain_base and rng.random() < 0.5:
            try:
                hom = preorder_vcat(base, cells, _chain_preorder(cells))
            except NotPreorder:
                continue
            unit_cell = cells[0]
            op = {(g, f): cells[max(cells.index(g), cells.index(f))]
                  for g in cells for f in cells}
        else:
            try:
                hom = _random_vcategory_on(base, cells, rng, bounds)
            except BudgetExhausted:
                continue
            unit_cell = rng.choice(cells)
            op = {(g, f): rng.choice(cells) for g in cells for f in cells}
        src = product_vcat(1, hom, hom)
        obj_map = {pair(g, f): op[(g, f)] for g in cells for f in cells}
        hom_map = {}
        ok = True
        for key in sorted(src.hom):
            (gf1, gf2) = key
            cands = cat.hom(src.hom[key],
                            hom.hom[(obj_map[gf1], obj_map[gf2])])
            if not cands:
                ok = False
                break
            hom_map[key] = rng.choice(cands)
        if not ok:
            continue
        m2 = VFunctor(src, hom, obj_map, hom_map)
        unitv = unit_vcategory(base)
        jc = cat.hom(base.unit, hom.hom[(unit_cell, unit_cell)])
        if not jc:
            continue
        j2 = VFunctor(unitv, hom, {"0": unit_cell}, {("0", "0"): rng.choice(jc)})
        cand = V2Category(base, {star}, {(star, star): hom},
                          {(star, star, star): m2}, {star: j2})
        if check_v2category(cand).ok:
            cand._generation_attempts = attempt
            return cand
    raise BudgetExhausted(
        f"no valid level-2 category after {bounds.attempts} attempts")


def _endo_v2functors(u: V2Category):
    """All endofunctors of a one-object structure, by exhaustive search."""
    star = sorted(u.objects)[0]
    hom = u.hom[(star, star)]
    cells = sorted(hom.objects)
    cat = u.base.base
    out = []
    for images in product(cells, repeat=len(cells)):
        obj_map = dict(zip(cells, images))
        hom_map = {}
        ok = True
        for x, y in product(cells, repeat=2):
            cands = cat.hom(hom.hom[(x, y)],
                            hom.hom[(obj_map[x], obj_map[y])])
            if not cands:
                ok = False
                break
            hom_map[(x, y)] = cands[0]
        if not ok:
            continue
        vf = VFunctor(hom, hom, obj_map, hom_map)
        cand = V2Functor(u, u, {star: star}, {(star, star): vf})
        if check_v2functor(cand).ok:
            out.append(cand)
    return out


def _nats_between(t: V2Functor, s: V2Functor):
    u = t.source
    star = sorted(u.objects)[0]
    w_hom = t.target.hom[(t.obj_map[star], s.obj_map[star])]
    cat = u.base.base
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


def _random_pasting(u: V2Category, rng: random.Random,
                    bounds: Bounds) -> PastingInstance:
    """Assemble a full two-column pasting on one structure by search."""
    functors = _endo_v2functors(u)
    for _ in range(bounds.attempts):
        fs = [rng.choice(functors) for _ in range(6)]
        f_, h_, p_, g_, k_, q_ = fs
        columns = []
        ok = True
        for (src, tgt) in [(f_, h_), (h_, p_), (g_, k_), (k_, q_)]:
            nats = _nats_between(src, tgt)
            found = None
            tries = [(x, y, z) for x in nats for y in nats for z in nats]
            rng.shuffle(tries)
            for (x, y, z) in tries:
                mu = _mods_between(x, y)
                nu = _mods_between(y, z)
                if mu and nu:
                    found = (x, y, z, mu[0], nu[0])
                    break
            if found is None:
                ok = False
                break
            columns.append(found)
        if not ok:
            continue
        (a1, b1, g1, m1, n1), (a2, b2, g2, m2, n2), \
            (a3, b3, g3, m3, n3), (a4, b4, g4, m4, n4) = columns
        return PastingInstance(
            u, u, u, f_, h_, p_, g_, k_, q_,
            a1, b1, g1, m1, n1, a2, b2, g2, m2, n2,
            a3, b3, g3, m3, n3, a4, b4, g4, m4, n4)
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
        base = bool_poset(2) if seed % 2 == 0 else zmod2(3)
    if level == "vcategory":
        return _random_vcategory(base, rng, bounds)
    if level == "vfunctor":
        # A drawn pair may admit no functor at all (e.g. incompatible
        # weights over a discrete base); redraw rather than burn the budget.
        for _ in range(20):
            a = _random_vcategory(base, rng, bounds)
            b = _random_vcategory(base, rng, bounds)
            try:
                return _random_vfunctor(a, b, rng, bounds)
            except BudgetExhausted:
                continue
        raise BudgetExhausted("no functor-admitting category pair found")
    if level == "vnat":
        for _ in range(20):
            a = _random_vcategory(base, rng, bounds)
            b = _random_vcategory(base, rng, bounds)
            try:
                for _ in range(50):
                    t = _random_vfunctor(a, b, rng, bounds)
                    s = _random_vfunctor(a, b, rng, bounds)
                    got = _random_vnat(t, s, rng, bounds)
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
    if level == "v2nat":
        for _ in range(bounds.attempts):
            u = _random_v2category(base, rng, bounds)
            endos = _endo_v2functors(u)
            t = rng.choice(endos)
            s = rng.choice(endos)
            nats = _nats_between(t, s)
            if nats:
                return rng.choice(nats)
        raise BudgetExhausted("no valid 2-transformation found")
    if level == "modification":
        for _ in range(bounds.attempts):
            u = _random_v2category(base, rng, bounds)
            endos = _endo_v2functors(u)
            t = rng.choice(endos)
            s = rng.choice(endos)
            nats = _nats_between(t, s)
            for a in nats:
                for b in nats:
                    mods = _mods_between(a, b)
                    if mods:
                        return rng.choice(mods)
        raise BudgetExhausted("no valid modification found")
    if level == "pasting":
        u = _random_v2category(base, rng, bounds)
        return _random_pasting(u, rng, bounds)
    raise ValueError(f"unknown level {level!r}")
