import gc
import random
from itertools import product as iproduct

import pytest

from enrichkit.errors import (AgreementFailure, IndexOutOfRange,
                              InvalidPasting, MalformedTable, NotComposable)
from enrichkit.instances import (
    Bounds,
    _endo_v2functors,
    _mods_between,
    _nats_between,
    _random_pasting,
    _random_v2category,
    bool_poset,
    join_monoid_v2cat,
    preorder_vcat,
    random_instance,
    unique_morphism,
    xor_group_v2cat,
    zmod2,
)
from enrichkit.serialize import Tower, dumps, loads
from enrichkit.vcat import (
    LazyTable,
    VFunctor,
    VNatTransform,
    compose_vfunctor,
    identity_vfunctor,
    interchange_vcat,
    pair,
    product_vcat,
    product_vfunctor,
    unit_pair_intro,
    unit_vcategory,
)
from enrichkit.v2cat import (
    PastingInstance,
    V2Category,
    V2Functor,
    V2NatTransform,
    VModification,
    check_modification,
    check_v2category,
    check_v2functor,
    check_v2nat,
    compose_nat_along_functor,
    compose_v2functors,
    exchange_suite,
    hcomp_modifications_along_nat,
    hcomp_mods_along_category,
    hcomp_nats_along_category,
    id_modification,
    id_nat,
    identity_v2functor,
    product_v2cat,
    relabel_v2category,
    unit_v2category,
    vcomp_modifications,
    whisker_functor_mod,
    whisker_functor_nat,
    whisker_mod_functor,
    whisker_mod_nat_along_category,
    whisker_nat_functor,
    whisker_nat_mod_along_category,
    whisker_nat_mod_left,
    whisker_nat_mod_right,
)
from helpers import deloop, replaced, thin_morphism


@pytest.fixture(scope="module")
def w(bool2):
    return join_monoid_v2cat(bool2)


@pytest.fixture(scope="module")
def cells(w):
    """The standard cell inventory on the join monoid."""
    endos = _endo_v2functors(w)
    idw = next(e for e in endos
               if e.hom_map[("*", "*")].obj_map == {"one": "one", "t": "t"})
    low = next(e for e in endos
               if e.hom_map[("*", "*")].obj_map == {"one": "one", "t": "one"})
    nats = _nats_between(idw, idw)
    n_one = next(n for n in nats if n.components["*"].obj_map["0"] == "one")
    n_t = next(n for n in nats if n.components["*"].obj_map["0"] == "t")
    rise = _mods_between(n_one, n_t)[0]
    stay = _mods_between(n_t, n_t)[0]
    lower = _mods_between(n_one, n_one)[0]
    return {"idw": idw, "low": low, "n_one": n_one, "n_t": n_t,
            "rise": rise, "stay": stay, "lower": lower}


def test_w_passes(w):
    rep = check_v2category(w)
    assert rep.ok
    assert set(rep.families) == {
        "composition-functor-shape", "identity-functor-shape", "pentagon",
        "unit-left", "unit-right"}


@pytest.mark.parametrize("n, candidates, accepted",
                         [(1, 1, 1), (2, 128, 12)])
def test_accepted_one_object_v2categories_are_the_ordered_monoids(
        bool2, n, candidates, accepted):
    # Over the two-point meet poset a V-category is a preorder and V-Cat's
    # first tensor is the product preorder, so a one-object V-2-category on
    # hom W is an ordered monoid on W's 1-cells.  Every preorder W on n
    # labelled 1-cells, every map W x W -> W and every unit; a functor entry
    # with no hom arrow gets an arrow with the wrong boundary.  The checker
    # must accept exactly the ordered monoids, counted here in plain Python.
    cat = bool2.base

    def arrow(a, b):
        return thin_morphism(cat, a, b) or cat.identity[b]

    cells = [f"c{x}" for x in range(n)]
    pairs = list(iproduct(cells, repeat=2))
    off = [(a, b) for a, b in pairs if a != b]
    preorders = []
    for keep in iproduct((False, True), repeat=len(off)):
        rel = {(a, a) for a in cells} | {p for p, k in zip(off, keep) if k}
        if all((a, c) in rel for a, b in rel for b2, c in rel if b == b2):
            preorders.append(rel)
    unit = unit_vcategory(bool2)
    tried = passed = 0
    for rel in preorders:
        w = preorder_vcat(bool2, cells, rel)
        src = product_vcat(1, w, w)
        for values in iproduct(cells, repeat=len(pairs)):
            op = dict(zip(pairs, values))
            obj_map = {pair(g, f): h for (g, f), h in op.items()}
            m2 = VFunctor(src, w, obj_map, {
                (x, y): arrow(src.hom[(x, y)],
                              w.hom[(obj_map[x], obj_map[y])])
                for x, y in iproduct(obj_map, repeat=2)})
            monoid = all(op[(op[(a, b)], c)] == op[(a, op[(b, c)])]
                         for a, b, c in iproduct(cells, repeat=3)) and all(
                (op[(g, f)], op[(g2, f2)]) in rel
                for g, g2 in rel for f, f2 in rel)
            for e in cells:
                j2 = VFunctor(unit, w, {"0": e}, {
                    ("0", "0"): arrow(bool2.unit, w.hom[(e, e)])})
                u = V2Category(bool2, {"*"}, {("*", "*"): w},
                               {("*", "*", "*"): m2}, {"*": j2})
                ordered = monoid and all(op[(e, a)] == a == op[(a, e)]
                                         for a in cells)
                assert check_v2category(u).ok == ordered, (rel, op, e)
                tried += 1
                passed += ordered
    assert (tried, passed) == (candidates, accepted)


def test_2_functor_composites_are_built_once(w):
    f, g = identity_v2functor(w), identity_v2functor(w)
    assert compose_v2functors(g, f) is compose_v2functors(g, f)


def test_level_2_composites_are_built_once(cells):
    n_one, n_t, rise = cells["n_one"], cells["n_t"], cells["rise"]
    assert hcomp_nats_along_category(n_t, n_one) \
        is hcomp_nats_along_category(n_t, n_one)
    assert whisker_nat_mod_along_category(n_t, rise) \
        is whisker_nat_mod_along_category(n_t, rise)
    assert id_modification(n_one) is id_modification(n_one)


def test_level_2_memo_never_serves_a_dead_transformation(cells):
    # Each a is freed once composed, so the next a may reuse its id; the
    # composite kept on g must still be the one of the live a.
    idw = cells["idw"]
    g = id_nat(idw)
    picks = [cells[name].components["*"] for name in ("n_one", "n_t")]
    for k in range(200):
        component = picks[k % 2]
        a = V2NatTransform(idw, idw, {"*": component})
        got = hcomp_nats_along_category(g, a).components["*"]
        assert got.obj_map == component.obj_map
        del a, got


def test_identity_v2functor_passes(w):
    assert check_v2functor(identity_v2functor(w)).ok


def test_unit_redirect_fails_unit_triangles(bool2):
    # Redirecting the unit 1-cell to t (with the matching j component, so the
    # identity functor itself stays valid) breaks exactly the unit triangles.
    fresh = join_monoid_v2cat(bool_poset(2))
    hom = fresh.hom[("*", "*")]
    fresh.identity["*"] = VFunctor(unit_vcategory(fresh.base), hom,
                                   {"0": "t"}, {("0", "0"): hom.identity["t"]})
    rep = check_v2category(fresh, all_witnesses=True)
    assert rep.failing_families() == {"unit-left", "unit-right"}
    witness = rep.first_for("unit-left")
    assert "obj" in witness.lhs  # the object equation f.1 = f is what broke


def test_xor_group_passes(xor_x2):
    assert check_v2category(xor_x2).ok


def _witness_rows(rep):
    return [(w.diagram, w.instance, w.lhs, w.rhs) for w in rep.witnesses]


def test_constant_hom_functor_fails_only_the_unit_triangle(w):
    # Sending both 1-cells to t keeps every composition square (join with t
    # is t) but moves the unit 1-cell.
    hom = w.hom[("*", "*")]
    cat = w.base.base
    const_t = {"one": "t", "t": "t"}
    hom_map = {(f, g): unique_morphism(cat, hom.hom[(f, g)],
                                       hom.hom[(const_t[f], const_t[g])])
               for f in hom.objects for g in hom.objects}
    t = V2Functor(w, w, {"*": "*"},
                  {("*", "*"): VFunctor(hom, hom, const_t, hom_map)})
    rep = check_v2functor(t, all_witnesses=True)
    assert rep.failing_families() == {"unit-triangle"}
    assert _witness_rows(rep) == [
        ("unit-triangle", ("*",), "obj[0]=t", "obj[0]=one")]


def test_swapped_xor_cells_fail_the_square_and_the_unit_triangle(xor_x2):
    hom = xor_x2.hom[("*", "*")]
    ident = xor_x2.base.base.identity
    swap = {"x": "y", "y": "x"}
    t = V2Functor(xor_x2, xor_x2, {"*": "*"},
                  {("*", "*"): VFunctor(hom, hom, swap,
                                        {key: ident[hom.hom[key]]
                                         for key in hom.hom})})
    rep = check_v2functor(t, all_witnesses=True)
    assert rep.failing_families() == {"composition-square", "unit-triangle"}
    assert _witness_rows(rep) == [
        ("composition-square", ("*", "*", "*"),
         "obj[(x,x)]=y", "obj[(x,x)]=x"),
        ("unit-triangle", ("*",), "obj[0]=y", "obj[0]=x")]


def test_unit_component_between_identity_and_lowering_fails_naturality(
        w, cells):
    hom = w.hom[("*", "*")]
    one = VFunctor(unit_vcategory(w.base), hom, {"0": "one"},
                   {("0", "0"): hom.identity["one"]})
    a = V2NatTransform(cells["idw"], cells["low"], {"*": one})
    rep = check_v2nat(a, all_witnesses=True)
    assert rep.failing_families() == {"naturality"}
    assert _witness_rows(rep) == [
        ("naturality", ("*", "*"), "obj[t]=t", "obj[t]=one")]


def _wrong_composition_target(w):
    # W's composition functor lands in the unit enriched category.
    key = ("*", "*", "*")
    comp = replaced(w.comp[key], target=unit_vcategory(w.base))
    return check_v2category, replaced(w, comp={**w.comp, key: comp})


def _wrong_hom_functor_target(w):
    # The hom functor lands in hom(*, *) with one hom-object moved.
    hom = w.hom[("*", "*")]
    moved = replaced(hom, hom={**hom.hom, ("one", "t"): "bot"})
    return check_v2functor, V2Functor(w, w, {"*": "*"}, {
        ("*", "*"): replaced(identity_vfunctor(hom), target=moved)})


def _wrong_component_target(w):
    # The component lands in hom(*, *) with one composite moved.
    hom, idw = w.hom[("*", "*")], identity_v2functor(w)
    moved = replaced(hom, comp={**hom.comp, ("one", "t", "one"): "id_bot"})
    component = replaced(id_nat(idw).components["*"], target=moved)
    return check_v2nat, V2NatTransform(idw, idw, {"*": component})


@pytest.mark.parametrize("spoil, witness", [
    (_wrong_composition_target,
     ("composition-functor-shape", ("*", "*", "*"),
      "objects=['0']", "objects=['one', 't']")),
    (_wrong_hom_functor_target,
     ("hom-functor-shape", ("*", "*"),
      "hom[('one', 't')]=bot", "hom[('one', 't')]=top")),
    (_wrong_component_target,
     ("component-shape", ("*",),
      "comp[('one', 't', 'one')]=id_bot", "comp[('one', 't', 'one')]=u"))],
    ids=["composition-functor", "hom-functor", "component"])
def test_wrong_frame_fails_only_its_shape_family(w, spoil, witness):
    # A level-2 cell whose target is not the V-category its frame needs
    # fails exactly its shape family, witnessed by the first entry in which
    # the two V-categories differ.
    check, structure = spoil(w)
    rep = check(structure, all_witnesses=True)
    assert _witness_rows(rep) == [witness]
    assert rep.families[witness[0]] == 1


def test_compose_nat_identity_absorption(cells):
    for g in (cells["n_one"], cells["n_t"]):
        assert compose_nat_along_functor(id_nat(cells["idw"]), g) == g
        assert compose_nat_along_functor(g, id_nat(cells["idw"])) == g


def test_compose_nat_join_on_objects(w, cells):
    got = compose_nat_along_functor(cells["n_t"], cells["n_one"])
    assert got.components["*"].obj_map["0"] == "t"  # join(t, one)
    assert check_v2nat(got).ok
    # The component of the composite is the identity element of the result.
    assert got.components["*"].hom_map[("0", "0")] \
        == w.hom[("*", "*")].identity["t"]


def test_compose_nat_associative(cells):
    a, b, c = cells["n_one"], cells["n_t"], cells["n_t"]
    left = compose_nat_along_functor(c, compose_nat_along_functor(b, a))
    right = compose_nat_along_functor(compose_nat_along_functor(c, b), a)
    assert left == right


def test_id_nat_object_part(w, cells):
    one = id_nat(cells["idw"])
    assert one.components["*"] == w.identity["*"]
    assert one.components["*"].obj_map["0"] == w.unit1("*")
    assert check_v2nat(one).ok


def test_vcomp_modifications(w, cells):
    rise, stay = cells["rise"], cells["stay"]
    assert vcomp_modifications(id_modification(rise.target), rise) == rise
    assert vcomp_modifications(rise, id_modification(rise.source)) == rise
    comp = vcomp_modifications(stay, rise)
    assert check_modification(comp).ok
    # Thin hom-posets collapse everything to the unique morphism.
    cat = w.base.base
    assert comp.components["*"] == unique_morphism(
        cat, w.base.unit, w.hom[("*", "*")].hom[("one", "t")])
    trip1 = vcomp_modifications(stay, vcomp_modifications(stay, rise))
    trip2 = vcomp_modifications(vcomp_modifications(stay, stay), rise)
    assert trip1 == trip2


def test_id_modification_component(w, cells):
    one = id_modification(cells["n_t"])
    assert one.components["*"] == w.hom[("*", "*")].identity["t"]
    assert check_modification(one).ok


def test_whisker_left_identity_nat_collapses(cells):
    # Whiskering the identity 2-cell of the target functor onto a
    # modification gives the modification back, on the nose.
    rise = cells["rise"]
    got = whisker_nat_mod_left(id_nat(cells["idw"]), rise)
    assert got == rise


def test_whisker_left_distributes_over_vcomp(cells):
    g, rise, stay = cells["n_t"], cells["rise"], cells["stay"]
    lhs = vcomp_modifications(whisker_nat_mod_left(g, stay),
                              whisker_nat_mod_left(g, rise))
    rhs = whisker_nat_mod_left(g, vcomp_modifications(stay, rise))
    assert lhs == rhs


def test_whisker_right_identity_and_distribution(cells):
    rise, stay = cells["rise"], cells["stay"]
    xi = cells["n_one"]
    got = whisker_nat_mod_right(rise, id_nat(cells["idw"]))
    assert got == rise
    lhs = vcomp_modifications(whisker_nat_mod_right(stay, xi),
                              whisker_nat_mod_right(rise, xi))
    rhs = whisker_nat_mod_right(vcomp_modifications(stay, rise), xi)
    assert lhs == rhs


def test_hcomp_mods_along_nat(w, cells):
    rise, stay = cells["rise"], cells["stay"]
    # Identity on identities.
    one = id_modification(id_nat(cells["idw"]))
    assert hcomp_modifications_along_nat(one, one) == id_modification(
        compose_nat_along_functor(id_nat(cells["idw"]), id_nat(cells["idw"])))
    # With an identity in one slot the composite is the whiskering.
    got = hcomp_modifications_along_nat(id_modification(cells["n_t"]), rise)
    assert got == whisker_nat_mod_left(cells["n_t"], rise)
    got = hcomp_modifications_along_nat(stay, id_modification(cells["n_one"]))
    assert got == whisker_nat_mod_right(stay, cells["n_one"])
    # Three-way agreement, recomputed through public pieces.
    direct = hcomp_modifications_along_nat(stay, rise)
    way1 = vcomp_modifications(whisker_nat_mod_left(stay.target, rise),
                               whisker_nat_mod_right(stay, rise.source))
    way2 = vcomp_modifications(whisker_nat_mod_right(stay, rise.target),
                               whisker_nat_mod_left(stay.source, rise))
    assert direct.components == way1.components == way2.components


def test_compose_v2functors(w, cells):
    idw, low = cells["idw"], cells["low"]
    assert compose_v2functors(low, identity_v2functor(w)) == low
    assert compose_v2functors(identity_v2functor(w), low) == low
    st = compose_v2functors(low, idw)
    assert check_v2functor(st).ok
    # (ST)(f)(ST)(g) = (ST)(fg) on 1-cells.
    m = st.hom_map[("*", "*")].obj_map
    for f in w.one_cells("*", "*"):
        for g in w.one_cells("*", "*"):
            assert w.compose1("*", "*", "*", m[g], m[f]) \
                == m[w.compose1("*", "*", "*", g, f)]
    a, b, c = low, idw, low
    assert compose_v2functors(a, compose_v2functors(b, c)) \
        == compose_v2functors(compose_v2functors(a, b), c)


def test_whisker_functor_nat(w, cells):
    idw, low, n_t = cells["idw"], cells["low"], cells["n_t"]
    assert whisker_functor_nat(identity_v2functor(w), n_t) == n_t
    got = whisker_functor_nat(low, n_t)
    assert check_v2nat(got).ok
    # (G alpha)_U(0) = G q and the hom component is the identity element.
    q = n_t.components["*"].obj_map["0"]
    gq = low.hom_map[("*", "*")].obj_map[q]
    assert got.components["*"].obj_map["0"] == gq
    assert got.components["*"].hom_map[("0", "0")] \
        == w.hom[("*", "*")].identity[gq]


def test_whisker_nat_functor(w, cells):
    low, n_t = cells["low"], cells["n_t"]
    assert whisker_nat_functor(n_t, identity_v2functor(w)) == n_t
    got = whisker_nat_functor(n_t, low)
    assert check_v2nat(got).ok
    assert got.components["*"] == n_t.components[low.obj_map["*"]]


def test_hcomp_nats_along_category(w, cells):
    idw, n_one, n_t = cells["idw"], cells["n_one"], cells["n_t"]
    one_cat = id_nat(identity_v2functor(w))
    for a in (n_one, n_t):
        assert hcomp_nats_along_category(one_cat, a) == a
        assert hcomp_nats_along_category(a, one_cat) == a
    got = hcomp_nats_along_category(n_t, n_one)
    # Object formula: the composite object is q'^ . Gq on either route.
    g_of_q = cells["idw"].hom_map[("*", "*")].obj_map["one"]
    qhat = n_t.components["*"].obj_map["0"]
    assert got.components["*"].obj_map["0"] \
        == w.compose1("*", "*", "*", qhat, g_of_q)
    # Two-way agreement recomputed manually.
    way1 = compose_nat_along_functor(
        whisker_nat_functor(n_t, n_one.target),
        whisker_functor_nat(n_t.source, n_one))
    way2 = compose_nat_along_functor(
        whisker_functor_nat(n_t.target, n_one),
        whisker_nat_functor(n_t, n_one.source))
    assert way1 == way2 == got


def test_whisker_functor_mod(w, cells):
    low, rise, stay = cells["low"], cells["rise"], cells["stay"]
    assert whisker_functor_mod(identity_v2functor(w), rise) == rise
    got = whisker_functor_mod(low, rise)
    assert check_modification(got).ok
    lhs = whisker_functor_mod(low, vcomp_modifications(stay, rise))
    rhs = vcomp_modifications(whisker_functor_mod(low, stay),
                              whisker_functor_mod(low, rise))
    assert lhs == rhs


def test_whisker_functor_mod_keeps_no_whisker_memo(w, cells):
    # Each component it whiskers is a fresh transformation, so a memo entry
    # keyed by one could never be read again.
    k, rise = identity_v2functor(w), cells["rise"]
    first = whisker_functor_mod(k, rise)
    for _ in range(4):
        assert whisker_functor_mod(k, rise) == first
    assert set(getattr(k.hom_map[("*", "*")], "_memo", {})) <= {"report"}


def test_whisker_functor_nat_keeps_its_entry_on_the_transformation(cells):
    # A lasting 2-functor whiskered onto fresh transformations keeps none of
    # them alive: each whisker is kept on its transformation.
    k, a = cells["low"], cells["n_one"]

    def alive():
        gc.collect()
        return sum(type(o) is V2NatTransform for o in gc.get_objects())

    def whisker_a_fresh_copy():
        fresh = V2NatTransform(a.source, a.target, dict(a.components))
        assert whisker_functor_nat(k, fresh) == whisker_functor_nat(k, a)
        assert "whisker_functor_nat" in {key[0] for key in fresh._memo}
    whisker_a_fresh_copy()
    before = alive()
    for _ in range(10):
        whisker_a_fresh_copy()
    assert alive() == before
    assert "whisker_functor_nat" not in {
        key[0] for key in getattr(k, "_memo", {}) if isinstance(key, tuple)}


def test_check_modification_keeps_none_of_its_components(cells):
    # The square whiskers level-1 transformations made for one check; the
    # whisker memo must not keep them alive on the lasting frame functors.
    rise = cells["rise"]

    def alive():
        gc.collect()
        return sum(type(o) is VNatTransform for o in gc.get_objects())

    def check_a_fresh_copy():
        fresh = VModification(rise.source, rise.target, dict(rise.components))
        assert check_modification(fresh).ok
    check_a_fresh_copy()
    before = alive()
    for _ in range(10):
        check_a_fresh_copy()
    assert alive() == before


def test_whisker_mod_functor(w, cells):
    low, rise = cells["low"], cells["rise"]
    assert whisker_mod_functor(rise, identity_v2functor(w)) == rise
    got = whisker_mod_functor(rise, low)
    assert check_modification(got).ok
    assert got.components["*"] == rise.components[low.obj_map["*"]]
    # (mu * xi) S = (mu S) * (xi S)
    xi = cells["n_one"]
    lhs = whisker_mod_functor(whisker_nat_mod_right(rise, xi), low)
    rhs = whisker_nat_mod_right(whisker_mod_functor(rise, low),
                                whisker_nat_functor(xi, low))
    assert lhs == rhs


def test_whisker_nat_mod_along_category(w, cells):
    rise, n_t = cells["rise"], cells["n_t"]
    # An identity transformation reduces to whiskering the functor itself.
    got = whisker_nat_mod_along_category(id_nat(cells["idw"]), rise)
    assert got.components == whisker_functor_mod(cells["idw"], rise).components
    got = whisker_nat_mod_along_category(n_t, rise)
    assert check_modification(got).ok
    # Functoriality over vertical composition.
    stay = cells["stay"]
    lhs = whisker_nat_mod_along_category(n_t, vcomp_modifications(stay, rise))
    rhs = vcomp_modifications(whisker_nat_mod_along_category(n_t, stay),
                              whisker_nat_mod_along_category(n_t, rise))
    assert lhs == rhs


def test_whisker_mod_nat_along_category(w, cells):
    rise, stay, n_one = cells["rise"], cells["stay"], cells["n_one"]
    got = whisker_mod_nat_along_category(rise, n_one)
    assert check_modification(got).ok
    # (tau o nu) alpha = tau alpha o nu alpha
    lhs = whisker_mod_nat_along_category(vcomp_modifications(stay, rise),
                                         n_one)
    rhs = vcomp_modifications(whisker_mod_nat_along_category(stay, n_one),
                              whisker_mod_nat_along_category(rise, n_one))
    assert lhs == rhs


def test_hcomp_mods_along_category(w, cells):
    rise, stay = cells["rise"], cells["stay"]
    one = id_modification(id_nat(identity_v2functor(w)))
    # The triple-identity cell is the two-sided unit, and its component is
    # the identity element of the unit 1-cell.
    assert one.components["*"] == w.hom[("*", "*")].identity[w.unit1("*")]
    assert hcomp_mods_along_category(rise, one) == rise
    assert hcomp_mods_along_category(one, rise) == rise
    got = hcomp_mods_along_category(stay, rise)
    assert check_modification(got).ok
    # Agreement of all public routes.
    al, bt = rise.source, rise.target
    ga, rh = stay.source, stay.target
    way1 = vcomp_modifications(
        whisker_nat_mod_along_category(rh, rise),
        whisker_mod_nat_along_category(stay, al))
    way2 = vcomp_modifications(
        whisker_mod_nat_along_category(stay, bt),
        whisker_nat_mod_along_category(ga, rise))
    assert way1.components == way2.components == got.components


def test_hcomp_mods_associative(w, cells):
    rise, stay = cells["rise"], cells["stay"]
    a = hcomp_mods_along_category(stay, hcomp_mods_along_category(stay, rise))
    b = hcomp_mods_along_category(hcomp_mods_along_category(stay, stay), rise)
    assert a.components == b.components


def test_hcomp_nats_associative(w, cells):
    # beta (gamma alpha) = (beta gamma) alpha for juxtaposition.
    for a in (cells["n_one"], cells["n_t"]):
        for g in (cells["n_one"], cells["n_t"]):
            for b in (cells["n_one"], cells["n_t"]):
                lhs = hcomp_nats_along_category(
                    b, hcomp_nats_along_category(g, a))
                rhs = hcomp_nats_along_category(
                    hcomp_nats_along_category(b, g), a)
                assert lhs == rhs


def identity_pasting(u):
    one_f = identity_v2functor(u)
    one_n = id_nat(one_f)
    one_m = id_modification(one_n)
    return PastingInstance(
        u, u, u, one_f, one_f, one_f, one_f, one_f, one_f,
        one_n, one_n, one_n, one_m, one_m,
        one_n, one_n, one_n, one_m, one_m,
        one_n, one_n, one_n, one_m, one_m,
        one_n, one_n, one_n, one_m, one_m)


def test_exchange_all_identity(w):
    rep = exchange_suite(identity_pasting(w))
    assert rep.ok
    assert set(rep.families) == {"exchange-1", "exchange-2", "exchange-3",
                                 "exchange-4"}


def test_exchange_seeded(w, xor_x2):
    import random
    for seed, u in ((11, w), (12, xor_x2)):
        p = _random_pasting(u, random.Random(seed))
        assert exchange_suite(p).ok


def test_a_second_exchange_suite_run_keeps_nothing_new(w):
    # Every cell the suite composes is itself built once from the pasting's
    # cells, so a second run is all hits and leaves no entry behind.
    import random
    p = _random_pasting(w, random.Random(11))

    def memo_sizes():
        return [len(getattr(getattr(p, name), "_memo", {}))
                for name in PastingInstance.__slots__]

    def alive():
        gc.collect()
        return sum(type(o) in (VModification, V2NatTransform, VNatTransform)
                   for o in gc.get_objects())
    assert exchange_suite(p).ok
    sizes, before = memo_sizes(), alive()
    assert exchange_suite(p).ok
    assert memo_sizes() == sizes
    assert alive() == before


def test_exchange_suites_over_one_structure_leave_nothing_on_it():
    # Level-1 composites are built fresh and dropped, and level-2 ones are
    # kept on the pasting's cells, so checking many pastings of one
    # V-2-category keeps nothing on its lasting composition functor.
    w = join_monoid_v2cat(bool_poset(2))

    def alive():
        gc.collect()
        return sum(type(o) is VFunctor for o in gc.get_objects())
    for seed in range(1, 41):
        assert exchange_suite(_random_pasting(w, random.Random(seed))).ok
        if seed == 1:
            first = alive()
    assert list(w.comp[("*", "*", "*")]._memo) == ["report"]
    assert alive() == first


def test_exchange_frame_validation(w, xor_x2):
    p = identity_pasting(w)
    q = identity_pasting(xor_x2)
    broken = PastingInstance(
        w, w, w, p.f, p.h, p.p, q.g, q.k, q.q,
        p.alpha1, p.beta1, p.gamma1, p.mu1, p.nu1,
        p.alpha2, p.beta2, p.gamma2, p.mu2, p.nu2,
        q.alpha3, q.beta3, q.gamma3, q.mu3, q.nu3,
        q.alpha4, q.beta4, q.gamma4, q.mu4, q.nu4)
    with pytest.raises(InvalidPasting):
        exchange_suite(broken)


def corrupted_join_pasting():
    """Build valid cells first, then rewire the join table underneath them:
    the frames still line up but the composition table is wrong."""
    broken = join_monoid_v2cat(bool_poset(2))
    endos = _endo_v2functors(broken)
    idb = next(e for e in endos
               if e.hom_map[("*", "*")].obj_map == {"one": "one", "t": "t"})
    nats = _nats_between(idb, idb)
    picks = {n.components["*"].obj_map["0"]: n for n in nats}
    n_one, n_t = picks["one"], picks["t"]
    rise = _mods_between(n_one, n_t)[0]
    stay = _mods_between(n_t, n_t)[0]
    broken.comp[("*", "*", "*")].obj_map[pair("t", "one")] = "one"
    p = PastingInstance(
        broken, broken, broken, idb, idb, idb, idb, idb, idb,
        n_one, n_t, n_t, rise, stay,
        n_one, n_t, n_t, rise, stay,
        n_one, n_t, n_t, rise, stay,
        n_one, n_t, n_t, rise, stay)
    return p, rise, stay


def test_exchange_detects_corrupted_composition():
    p, _, _ = corrupted_join_pasting()
    rep = exchange_suite(p)
    assert not rep.ok
    # The route disagreement inside the horizontal composite along the
    # 2-category surfaces, message and all, as the lhs of both identities
    # that use it.
    lhs = ("<error: two routes for the horizontal composite differ at "
           "component[*].obj[0]: one != t>")
    rep = exchange_suite(p, all_witnesses=True)
    assert [(w.diagram, w.instance, w.lhs, w.rhs) for w in rep.witnesses] == [
        ("exchange-3", ("pasting",), lhs, "<undefined>"),
        ("exchange-4", ("pasting",), lhs, "<undefined>")]


def test_a_failed_route_check_is_never_memoized():
    p, rise, _ = corrupted_join_pasting()
    for _ in range(3):
        with pytest.raises(AgreementFailure, match="^two routes for the "
                           "horizontal composite differ"):
            hcomp_mods_along_category(rise, rise)
    # A third run on a warm memo, and a run on the same cells read back from
    # a document, give the witnesses that
    # test_exchange_detects_corrupted_composition pins.
    exchange_suite(p)
    exchange_suite(p, all_witnesses=True)
    tower = Tower(p.cat_u.base, v2categories={"U": p.cat_u},
                  v2functors={"idb": p.f},
                  v2nats={"one": p.alpha1, "t": p.beta1},
                  modifications={"rise": p.mu1, "stay": p.nu1},
                  pastings={"p": p})
    lhs = ("<error: two routes for the horizontal composite differ at "
           "component[*].obj[0]: one != t>")
    for q in (p, loads(dumps(tower)).pastings["p"]):
        rep = exchange_suite(q, all_witnesses=True)
        assert [(w.diagram, w.instance, w.lhs, w.rhs)
                for w in rep.witnesses] == [
            ("exchange-3", ("pasting",), lhs, "<undefined>"),
            ("exchange-4", ("pasting",), lhs, "<undefined>")]


def test_product_v2cat(bool3, zmod3, xor_x2):
    w3 = join_monoid_v2cat(bool3)
    prod = product_v2cat(1, w3, w3)
    assert check_v2category(prod).ok
    # Hom formula: the product hom is the shifted level-1 product.
    key = (pair("*", "*"), pair("*", "*"))
    assert prod.hom[key] == product_vcat(2, w3.hom[("*", "*")],
                                         w3.hom[("*", "*")])
    # The pentagon only compares its two 64-object frames by identity, so
    # their composition tables are never built.
    h = prod.hom[key]
    for frame in (product_vcat(1, product_vcat(1, h, h), h),
                  product_vcat(1, h, product_vcat(1, h, h))):
        assert len(frame.objects) == 64
        assert frame.comp._table is None
    prodx = product_v2cat(1, xor_x2, xor_x2)
    assert check_v2category(prodx).ok


def _eager_product_v2cat(i, u, w):
    """Reference: the level-2 product with every table built eagerly, loop
    for loop through the level-1 constructions."""
    uo, wo = sorted(u.objects), sorted(w.objects)
    objects = {pair(a, b) for a in uo for b in wo}
    hom = {}
    for (a, b) in iproduct(uo, wo):
        for (a2, b2) in iproduct(uo, wo):
            hom[(pair(a, b), pair(a2, b2))] = product_vcat(
                i + 1, u.hom[(a, a2)], w.hom[(b, b2)])
    comp = {}
    for (a, b), (a2, b2), (a3, b3) in iproduct(iproduct(uo, wo), repeat=3):
        eta = interchange_vcat(1, i + 1,
                               u.hom[(a2, a3)], w.hom[(b2, b3)],
                               u.hom[(a, a2)], w.hom[(b, b2)])
        both = product_vfunctor(i + 1, u.comp[(a, a2, a3)],
                                w.comp[(b, b2, b3)])
        comp[(pair(a, b), pair(a2, b2), pair(a3, b3))] = \
            compose_vfunctor(both, eta)
    intro = unit_pair_intro(i + 1, u.base)
    identity = {}
    for (a, b) in iproduct(uo, wo):
        identity[pair(a, b)] = compose_vfunctor(
            product_vfunctor(i + 1, u.identity[a], w.identity[b]), intro)
    return V2Category(u.base, objects, hom, comp, identity)


def _codiscrete(u, objects):
    """The one-object ``u`` spread over ``objects``: every hom is u's hom
    category, every composite u's composition functor and every identity
    u's.  Its product's composition functors all read the same six cells."""
    (x,) = u.objects
    return V2Category(
        u.base, set(objects),
        {key: u.hom[(x, x)] for key in iproduct(objects, repeat=2)},
        {key: u.comp[(x, x, x)] for key in iproduct(objects, repeat=3)},
        {y: u.identity[x] for y in objects})


@pytest.mark.parametrize("make", [lambda: join_monoid_v2cat(bool_poset(3)),
                                  lambda: xor_group_v2cat(zmod2(3)),
                                  lambda: _codiscrete(
                                      join_monoid_v2cat(bool_poset(3)), "pq")],
                         ids=["W3", "X2", "W3-on-two-objects"])
def test_product_v2cat_matches_the_eager_construction(make):
    u = make()
    prod = product_v2cat(1, u, u)
    # Nothing has read the composition table yet, if it is a lazy one.
    assert not isinstance(prod.comp, LazyTable) or prod.comp._table is None
    before = dumps(Tower(u.base, v2categories={"prod": prod}))
    ref = _eager_product_v2cat(1, u, u)
    assert prod.objects == ref.objects
    assert prod.hom == ref.hom
    assert sorted(prod.comp) == sorted(ref.comp)
    for key, functor in ref.comp.items():
        assert prod.comp[key] == functor
    assert prod.identity == ref.identity
    after = dumps(Tower(u.base, v2categories={"prod": prod}))
    assert before == after
    assert after == dumps(Tower(u.base, v2categories={"prod": ref}))


def test_product_v2cat_index_range_and_memo(bool2, bool3, zmod3, xor_x2):
    with pytest.raises(IndexOutOfRange):
        product_v2cat(1, join_monoid_v2cat(bool2), join_monoid_v2cat(bool2))
    w3 = join_monoid_v2cat(bool3)
    with pytest.raises(IndexOutOfRange):
        product_v2cat(2, w3, w3)  # needs tensor 4
    assert product_v2cat(1, xor_x2, xor_x2) is product_v2cat(1, xor_x2, xor_x2)
    assert unit_v2category(zmod3) is unit_v2category(zmod3)


def test_lazy_product_v2cat_names_the_factors_missing_functor(bool3):
    broken = join_monoid_v2cat(bool3)
    del broken.comp[("*", "*", "*")]
    prod = product_v2cat(1, broken, join_monoid_v2cat(bool3))
    with pytest.raises(MalformedTable, match=r"\('\*', '\*', '\*'\) missing"):
        check_v2category(prod)


def test_product_v2cat_unit_relabel(zmod3, xor_x2):
    unit2 = unit_v2category(zmod3)
    assert check_v2category(unit2).ok
    prod = product_v2cat(1, xor_x2, unit2)
    omap = {pair(u, "0"): u for u in xor_x2.objects}
    cellmaps = {(a, b): {pair(f, "0"): f
                         for f in xor_x2.hom[(omap[a], omap[b])].objects}
                for a in prod.objects for b in prod.objects}
    assert relabel_v2category(prod, omap, cellmaps) == xor_x2


def test_unit_v2category(bool2, zmod3):
    for base in (bool2, zmod3):
        u = unit_v2category(base)
        assert check_v2category(u).ok
        assert u.hom[("0", "0")] == unit_vcategory(base)


def test_not_composable(cells, xor_x2):
    other = id_nat(identity_v2functor(xor_x2))
    with pytest.raises(NotComposable):
        compose_nat_along_functor(cells["n_t"], other)


def test_agreement_failure_is_loud():
    # Feeding corrupt cells into a multi-route operation must raise, not
    # silently return one route.
    _, rise, _ = corrupted_join_pasting()
    with pytest.raises((AgreementFailure, NotComposable)):
        hcomp_mods_along_category(rise, rise)


def test_random_level2_instances(bool2, zmod3):
    for seed in (1, 2, 3):
        u = random_instance("v2category", seed, Bounds(max_hom=3))
        assert check_v2category(u).ok
        nat = random_instance("v2nat", seed, Bounds(max_hom=2))
        assert check_v2nat(nat).ok
        mod = random_instance("modification", seed, Bounds(max_hom=2))
        assert check_modification(mod).ok


# -- the modification square against the per-(f, g) closure it replaced --------

def _square_closure(m):
    """The modification square one (x, y, f, g) at a time, as a closure over
    the base's second tensor: the failing rows' instances."""
    th, ph = m.source, m.target
    t, s = th.source, th.target
    u, w = t.source, t.target
    base = u.base
    cat = base.base

    def q(nat, x):
        return nat.components[x].obj_map["0"]
    failing = []
    for x, y in iproduct(sorted(u.objects), repeat=2):
        tx, ty, sx, sy = t.obj_map[x], t.obj_map[y], s.obj_map[x], s.obj_map[y]
        for f, g in iproduct(u.one_cells(x, y), repeat=2):
            tf = t.hom_map[(x, y)].obj_map[f]
            tg = t.hom_map[(x, y)].obj_map[g]
            sf = s.hom_map[(x, y)].obj_map[f]
            sg = s.hom_map[(x, y)].obj_map[g]
            lhs = cat.comp.get((
                w.comp[(tx, ty, sy)].hom_map[
                    (pair(q(th, y), tf), pair(q(ph, y), tg))],
                base.tensor_mor_table[2].get(
                    (m.components[y], t.hom_map[(x, y)].hom_map[(f, g)]))))
            rhs = cat.comp.get((
                w.comp[(tx, sx, sy)].hom_map[
                    (pair(sf, q(th, x)), pair(sg, q(ph, x)))],
                base.tensor_mor_table[2].get(
                    (s.hom_map[(x, y)].hom_map[(f, g)], m.components[x]))))
            if lhs is None or lhs != rhs:
                failing.append(((x, y), f, g))
    return failing


def _candidate_mods(u):
    """Every modification candidate between transformations of endofunctors
    of a one-object ``u``: each morphism I -> hom(q, q^) as the component."""
    cat = u.base.base
    star, = u.objects
    endos = _endo_v2functors(u)
    for t, s in iproduct(endos, repeat=2):
        w_hom = t.target.hom[(t.obj_map[star], s.obj_map[star])]
        nats = _nats_between(t, s)
        for a, b in iproduct(nats, repeat=2):
            q = a.components[star].obj_map["0"]
            q2 = b.components[star].obj_map["0"]
            for mor in cat.hom(u.base.unit, w_hom.hom[(q, q2)]):
                yield VModification(a, b, {star: mor})


def test_modification_square_matches_the_closure(bool2, bool3, zmod3):
    # Naturality over V-Cat's 2-cells, one row per (x, y), passes exactly
    # when every per-(f, g) square does, on every enumerated candidate.
    structures = [join_monoid_v2cat(bool2), join_monoid_v2cat(bool3),
                  xor_group_v2cat(zmod3)]
    # Over B(Z/3), rejection sampling takes seconds to minutes at other seeds.
    for base, seeds in ((bool2, (0, 2, 4, 5, 6)), (zmod3, (0, 2, 4, 5, 6)),
                        (deloop(3), (2, 4))):
        structures += [_random_v2category(base, random.Random(seed), Bounds())
                       for seed in seeds]
    seen = 0
    for u in structures:
        for m in _candidate_mods(u):
            rep = check_modification(m)
            assert rep.families["modification-square"] == len(u.objects) ** 2
            assert rep.ok == (not _square_closure(m))
            seen += 1
    assert seen >= 100


def test_modification_square_fails_where_the_closure_does():
    # B(Z/3) spread over two objects: the (x, y) square sets m's component at
    # y against its component at x, so components that differ are not
    # natural, in either form.
    u = _codiscrete(_random_v2category(deloop(3), random.Random(2),
                                       Bounds()), "xy")
    assert check_v2category(u).ok
    a = id_nat(identity_v2functor(u))
    constant = VModification(a, a, {"x": "g1", "y": "g1"})
    assert check_modification(constant).ok and not _square_closure(constant)
    m = VModification(a, a, {"x": "g2", "y": "g0"})
    rep = check_modification(m, all_witnesses=True)
    assert [(w.diagram, w.instance, w.lhs, w.rhs) for w in rep.witnesses] == [
        ("modification-square", ("x", "y"),
         "component[c0]=g0", "component[c0]=g2"),
        ("modification-square", ("y", "x"),
         "component[c0]=g2", "component[c0]=g0")]
    assert {xy for xy, _, _ in _square_closure(m)} == {("x", "y"), ("y", "x")}


def test_relabel_v2category_rejects_a_non_injective_map(w):
    hom, = w.hom.values()
    comp, = w.comp.values()
    ident, = w.identity.values()
    objs = ("a", "b")
    two = V2Category(w.base, set(objs),
                     {key: hom for key in iproduct(objs, repeat=2)},
                     {key: comp for key in iproduct(objs, repeat=3)},
                     dict.fromkeys(objs, ident))
    assert check_v2category(two).ok
    cells = {key: {c: c for c in hom.objects}
             for key in iproduct(objs, repeat=2)}
    swapped = relabel_v2category(two, {"a": "b", "b": "a"}, cells)
    assert swapped.objects == {"a", "b"} and check_v2category(swapped).ok
    with pytest.raises(MalformedTable, match="not a bijection"):
        relabel_v2category(two, {"a": "x", "b": "x"}, cells)
