import json
import random
from functools import partial
from itertools import product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enrichkit.errors import (
    BaseInvalid,
    IndexOutOfRange,
    KernelError,
    MalformedTable,
    NotParallel,
)
from enrichkit.fincat import compose
from enrichkit.kfold import KFoldMonoidal, check_kfold
from enrichkit.instances import (
    bool_poset,
    cocycle_vcat,
    preorder_vcat,
    unique_morphism,
)
from enrichkit.serialize import Tower, dumps, loads
from enrichkit.vcat import (
    VCategory,
    VFunctor,
    VNatTransform,
    _scan_vcategory,
    _scan_vfunctor,
    assoc_vcat,
    check_vcategory,
    check_vfunctor,
    check_vnat,
    compose_vfunctor,
    compose_vnat_vert,
    identity_vfunctor,
    identity_vnat,
    interchange_vcat,
    made_of,
    pair,
    product_vcat,
    product_vfunctor,
    product_vnat,
    relabel_vcategory,
    unit_vcategory,
    vfunctor_equal,
    whisker_vnat,
)

from helpers import (capped_chain, chain, chain_d, chain_m, deloop,
                     metric_space, outcome, replaced, rewire, thin_morphism,
                     two_point_spaces)
from mutants import MUTANTS, ROOT


def collapse_functor(p):
    """Send everything onto the bottom object of a chain preorder."""
    cat = p.base.base
    return VFunctor(p, p, {x: "a" for x in p.objects},
                    {(x, y): unique_morphism(cat, p.hom[(x, y)],
                                             p.hom[("a", "a")])
                     for x in p.objects for y in p.objects})


def test_preorder_passes(preorder_p):
    assert check_vcategory(preorder_p).ok


@pytest.mark.parametrize("n, candidates, accepted",
                         [(1, 2, 1), (2, 16, 4), (3, 512, 29)])
def test_accepted_hom_assignments_are_the_labelled_preorders(
        bool2, n, candidates, accepted):
    # Every hom assignment on n objects over the two-point meet poset, each
    # composite and identity the unique arrow of its boundary when there is
    # one and a wrong-boundary arrow when not.  The checker must accept
    # exactly the labelled preorders on n points (OEIS A000798).
    tried = passed = 0
    for vc in _hom_assignments(bool2, n):
        tried += 1
        passed += check_vcategory(vc).ok
    assert (tried, passed) == (candidates, accepted)


def _hom_assignments(base, n: int):
    """Every hom assignment on the objects "0".."n-1" over a thin base with
    objects "bot" and "top", each composite and identity the unique arrow of
    its boundary when there is one and a wrong-boundary arrow when not."""
    cat = base.base

    def arrow(a, b):
        return thin_morphism(cat, a, b) or cat.identity[b]

    objects = [str(x) for x in range(n)]
    keys = list(iproduct(objects, repeat=2))
    for values in iproduct(sorted(cat.objects), repeat=len(keys)):
        hom = dict(zip(keys, values))
        comp = {(a, b, c): arrow(base.tensor_obj(1, hom[(b, c)], hom[(a, b)]),
                                 hom[(a, c)])
                for a, b, c in iproduct(objects, repeat=3)}
        identity = {a: arrow(base.unit, hom[(a, a)]) for a in objects}
        yield VCategory(base, set(objects), hom, comp, identity)


def test_accepted_assignments_over_a_delooped_group_are_the_cocycles():
    # Every composition and identity assignment on two objects over B(Z/2),
    # every hom the one object.  The checker must accept exactly the
    # normalized 2-cocycles, |A|^(n^2 - n + 1) with |A| = 2 and n = 2.
    base = deloop(2)
    elements = sorted(base.base.morphisms)
    objects = ["x", "y"]
    hom = dict.fromkeys(iproduct(objects, repeat=2), "*")
    keys = list(iproduct(objects, repeat=3))
    tried = passed = 0
    for values in iproduct(elements, repeat=len(keys) + len(objects)):
        comp = dict(zip(keys, values))
        identity = dict(zip(objects, values[len(keys):]))
        tried += 1
        passed += check_vcategory(
            VCategory(base, set(objects), hom, comp, identity)).ok
    assert (tried, passed) == (1024, 8)


def test_cocycle_passes(cocycle_d):
    assert check_vcategory(cocycle_d).ok


def test_flipped_weight_fails(zmod3):
    d = cocycle_vcat(zmod3, {"x": "0", "y": "1"})
    broken = VCategory(d.base, d.objects, rewire(d.hom, ("x", "y"), "0"),
                       d.comp, d.identity)
    rep = check_vcategory(broken)
    # In the discrete base the composition morphism now has dom != cod.
    assert rep.first_for("composition-boundary") is not None


def test_identity_vfunctor_passes(preorder_p):
    assert check_vfunctor(identity_vfunctor(preorder_p)).ok


def test_identity_vnat_passes(preorder_p):
    # Components are the identity elements j.
    nat = identity_vnat(identity_vfunctor(preorder_p))
    assert check_vnat(nat).ok
    for x in preorder_p.objects:
        assert nat.components[x] == preorder_p.identity[x]


def test_hom_map_rewire_fails(preorder_p):
    t = identity_vfunctor(preorder_p)
    broken = VFunctor(t.source, t.target, t.obj_map,
                      rewire(t.hom_map, ("a", "a"), "u"))
    rep = check_vfunctor(broken)
    assert not rep.ok


def test_vfunctor_equal(preorder_p):
    ident = identity_vfunctor(preorder_p)
    other = collapse_functor(preorder_p)
    assert vfunctor_equal(ident, ident)
    assert not vfunctor_equal(ident, other)
    # Two presentations of the same composite agree after evaluation.
    left = compose_vfunctor(ident, other)
    right = compose_vfunctor(other, ident)
    assert vfunctor_equal(left, right)
    with pytest.raises(NotParallel):
        vfunctor_equal(ident, identity_vfunctor(unit_vcategory(preorder_p.base)))


def test_equality_criterion_matches_j_component_transform(preorder_p):
    # Equal functors are exactly those with equal object maps whose
    # j-component transformation is valid, checked both ways on the corpus.
    ident = identity_vfunctor(preorder_p)
    other = collapse_functor(preorder_p)
    for t, s in [(ident, ident), (other, other), (ident, other),
                 (other, ident)]:
        jnat = VNatTransform(
            t, s, {x: t.target.identity[t.obj_map[x]]
                   for x in t.source.objects})
        criterion = t.obj_map == s.obj_map and check_vnat(jnat).ok
        assert criterion == vfunctor_equal(t, s)


def test_unit_vcategory(bool2, zmod3):
    u = unit_vcategory(bool2)
    assert u.objects == {"0"}
    assert u.hom[("0", "0")] == "top"
    assert check_vcategory(u).ok
    u2 = unit_vcategory(zmod3)
    assert u2.hom[("0", "0")] == "0"
    assert check_vcategory(u2).ok


def test_product_hom_table(preorder_p):
    pp = product_vcat(1, preorder_p, preorder_p)
    assert pp.hom[(pair("a", "a"), pair("b", "b"))] == "top"
    assert pp.hom[(pair("b", "b"), pair("a", "a"))] == "bot"
    assert check_vcategory(pp).ok


def test_product_composition_is_thin_morphism(preorder_p):
    pp = product_vcat(1, preorder_p, preorder_p)
    cat = preorder_p.base.base
    expected = {
        key: thin_morphism(
            cat,
            preorder_p.base.tensor_obj(1, pp.hom[key[1:]],
                                       pp.hom[(key[0], key[1])]),
            pp.hom[(key[0], key[2])])
        for key in iproduct(sorted(pp.objects), repeat=3)}
    assert dict(pp.comp) == expected
    assert pp.comp == expected and expected == pp.comp
    assert not pp.comp != expected


def test_product_composition_table_is_read_only(preorder_p):
    pp = product_vcat(1, preorder_p, preorder_p)
    key = (pair("a", "a"), pair("a", "b"), pair("b", "b"))
    with pytest.raises(TypeError):
        pp.comp[key] = pp.comp[key]


def test_product_save_is_the_same_before_and_after_the_build(bool2):
    p = preorder_vcat(bool2, ["a", "b"], {("a", "a"), ("a", "b"), ("b", "b")})
    pp = product_vcat(1, p, p)
    tower = Tower(bool2, vcategories={"P": p, "PP": pp})
    first = dumps(tower)
    assert pp.comp._table is None    # saved as a reference, not read
    assert json.loads(first)["vcategories"]["PP"] == {
        "product": {"index": 1, "factors": ["P", "P"]}}
    assert len(pp.comp) == 4 ** 3
    assert dumps(tower) == first
    # The same tables without the construction are saved as tables.
    plain = VCategory(pp.base, pp.objects, pp.hom, dict(pp.comp), pp.identity)
    text = dumps(Tower(bool2, vcategories={"P": p, "PP": plain}))
    assert loads(text).vcategories["PP"] == pp
    assert "product" not in json.loads(text)["vcategories"]["PP"]


def test_product_strict_unit_relabel(preorder_p, cocycle_d):
    for a in (preorder_p, cocycle_d):
        unitv = unit_vcategory(a.base)
        for i in range(1, a.base.n):
            right = relabel_vcategory(product_vcat(i, a, unitv),
                                      {pair(x, "0"): x for x in a.objects})
            assert right == a
            left = relabel_vcategory(product_vcat(i, unitv, a),
                                     {pair("0", x): x for x in a.objects})
            assert left == a


def test_product_index_range(preorder_p):
    # The message names the valid range, as a tensor index's does.
    for i in (2, 0, -1):    # 2 needs tensor 3
        with pytest.raises(IndexOutOfRange,
                           match=rf"^product index {i} outside 1\.\.1$"):
            product_vcat(i, preorder_p, preorder_p)


def test_products_and_unit_are_built_once(preorder_p):
    assert product_vcat(1, preorder_p, preorder_p) \
        is product_vcat(1, preorder_p, preorder_p)
    assert unit_vcategory(preorder_p.base) is unit_vcategory(preorder_p.base)


def test_product_memo_never_serves_a_dead_factor(bool2):
    # Each b is freed once its product is taken, so the next b may reuse its
    # id; the product kept on a must still be the one of the live b.
    a = preorder_vcat(bool2, ["a", "b"], {("a", "a"), ("a", "b"), ("b", "b")})
    e = bool2.base.identity[bool2.unit]
    for k in range(200):
        o = f"o{k}"
        b = VCategory(bool2, {o}, {(o, o): bool2.unit}, {(o, o, o): e}, {o: e})
        prod = product_vcat(1, a, b)
        assert prod.objects == {pair(x, o) for x in a.objects}
        del b, prod


def test_lazy_product_names_the_factors_missing_composition_entry(bool2):
    # The factor fails its own check, so the product is scanned, not
    # certified, and the scan's message names the factor's key.
    broken = preorder_vcat(bool2, ["a", "b"],
                           {("a", "a"), ("a", "b"), ("b", "b")})
    del broken.comp[("a", "a", "a")]
    good = preorder_vcat(bool2, ["a", "b"],
                         {("a", "a"), ("a", "b"), ("b", "b")})
    prod = product_vcat(1, broken, good)
    with pytest.raises(MalformedTable, match=r"^product factor's composition "
                       r"entry \('a', 'a', 'a'\) missing$"):
        check_vcategory(prod)


def _formula_comp(i, a, b):
    """Reference: a product's composition table entry by entry, as the
    formula reads it, comp(tensor_{i+1}(a.comp, b.comp), η^{1,i+1}(homs)),
    with its first error as ``type: message``."""
    base = a.base
    comp = {}
    try:
        for (x, y), (x2, y2), (x3, y3) in iproduct(
                iproduct(sorted(a.objects), sorted(b.objects)), repeat=3):
            eta = base.interchange_mor(1, i + 1, a.hom[(x2, x3)],
                                       b.hom[(y2, y3)], a.hom[(x, x2)],
                                       b.hom[(y, y2)])
            both = base.tensor_mor(i + 1, a.comp[(x, x2, x3)],
                                   b.comp[(y, y2, y3)])
            comp[(pair(x, y), pair(x2, y2), pair(x3, y3))] = \
                compose(base.base, both, eta)
    except KernelError as err:
        return f"{type(err).__name__}: {err}"
    return comp


def _built_comp(prod):
    """The product's built composition table, or the error building it."""
    try:
        return dict(prod.comp)
    except KernelError as err:
        return f"{type(err).__name__}: {err}"


@given(data=st.data())
def test_product_comp_is_the_formula_entry_by_entry(bool2, bool3, zmod3,
                                                    data):
    # Plain and nested products, over passing or corrupted factors, at
    # every index: the same table, or the same first error.
    from enrichkit.instances import Bounds, random_instance
    base = data.draw(st.sampled_from([bool2, bool3, zmod3]))
    factors = []
    for _ in "ABC":
        vc = random_instance("vcategory", data.draw(st.integers(0, 50)),
                             Bounds(max_objects=2), base=base)
        if data.draw(st.integers(0, 3)) == 0:
            vc = _corrupted(vc, data.draw(st.sampled_from(sorted(vc.comp))))
        factors.append(vc)
    a, b, c = factors
    for i in range(1, base.n):
        ab = product_vcat(i, a, b)
        built = _built_comp(ab)
        assert built == _formula_comp(i, a, b)
        if isinstance(built, str):
            continue
        for j in range(1, base.n):
            for x, y in ((ab, c), (c, ab)):
                assert _built_comp(product_vcat(j, x, y)) == \
                    _formula_comp(j, x, y)


def test_product_comp_raises_the_formulas_first_base_error(bool2):
    # tensor_2(u, id_top) is read by the composition table only: the
    # identities tensor id_top with itself.
    table = {**bool2.tensor_mor_table[2]}
    del table[("u", "id_top")]
    base = replaced(
        bool2, tensor_mor_table={**bool2.tensor_mor_table, 2: table})
    p = preorder_vcat(base, ["a", "b"], {("a", "a"), ("a", "b"), ("b", "b")})
    pp = product_vcat(1, p, p)
    expected = _formula_comp(1, p, p)
    assert expected == ("UnknownMorphism: no tensor_2 entry for morphisms "
                        "(u, id_top)")
    assert _built_comp(pp) == expected


def test_product_comp_asks_the_base_once_per_distinct_entries(monkeypatch):
    base = bool_poset(2)
    calls = []

    def counted(self, *args, tensor_mor=KFoldMonoidal.tensor_mor):
        calls.append(args)
        return tensor_mor(self, *args)
    # before the base's cells are built; records have no instance dict
    monkeypatch.setattr(KFoldMonoidal, "tensor_mor", counted)
    p3 = preorder_vcat(base, ["a", "b", "c"],
                       {("a", "a"), ("b", "b"), ("c", "c"),
                        ("a", "b"), ("b", "c"), ("a", "c")})
    frame = product_vcat(1, product_vcat(1, p3, p3), p3)
    calls.clear()
    assert len(frame.comp) == 27 ** 3
    # Both products' tables, the inner one's 729 entries included.
    assert 0 < len(calls) < 27 ** 3 // 100
    assert _built_comp(frame) == _formula_comp(
        1, product_vcat(1, p3, p3), p3)


def _failing(a):
    """``a`` with its first composition entry redirected, so that it fails."""
    key, cat = min(a.comp), a.base.base
    bad = VCategory(a.base, set(a.objects), dict(a.hom),
                    {**a.comp, key: min(m for m in cat.morphisms
                                        if m != a.comp[key])},
                    dict(a.identity))
    assert not check_vcategory(bad).ok
    return bad


def _colliding(a, b):
    """``a`` and ``b`` relabeled so that pair("a", "b,c") == pair("a,b",
    "c"): their products have fewer objects than the pairs."""
    return (relabel_vcategory(a, dict(zip(sorted(a.objects), ("a", "a,b")))),
            relabel_vcategory(b, dict(zip(sorted(b.objects), ("b,c", "c")))))


@pytest.mark.parametrize("base_name", ["bool2", "bool3", "zmod3"])
def test_certified_product_report_is_the_scans(base_name, request):
    from enrichkit.instances import _random_vcategory_on
    base = request.getfixturevalue(base_name)
    for seed in range(12):
        # Two objects a side, so that the products have four and eight.
        a, b = (_random_vcategory_on(base, ["o0", "o1"], random.Random(s))
                for s in (seed, seed + 100))
        bad = _failing(a)
        for i in range(1, base.n):
            for p in (product_vcat(i, a, b),
                      product_vcat(i, product_vcat(i, a, b), a)):
                certified = outcome(check_vcategory, p)
                assert p.comp._table is None    # derived, not scanned
                assert certified == outcome(_scan_vcategory, p)
            p = product_vcat(i, bad, b)
            assert outcome(check_vcategory, p) == outcome(_scan_vcategory, p)


def test_colliding_product_ids_are_scanned(preorder_p):
    # pair("a", "b,c") == pair("a,b", "c"): the product has 3 objects, not
    # 4, so it is no certified product.
    p = product_vcat(1, *_colliding(preorder_p, preorder_p))
    assert len(p.objects) == 3
    reported = outcome(check_vcategory, p)
    assert p.comp._table is not None    # the scan read it
    assert reported == outcome(_scan_vcategory, p)


def test_associator_frames_are_certified_not_scanned(bool2, monkeypatch):
    from enrichkit import vcat
    scanned = []

    def spy(vc, all_witnesses=False):
        scanned.append(vc)
        return _scan_vcategory(vc, all_witnesses)
    monkeypatch.setattr(vcat, "_scan_vcategory", spy)
    p3 = preorder_vcat(bool2, ["a", "b", "c"],
                       {("a", "a"), ("b", "b"), ("c", "c"),
                        ("a", "b"), ("b", "c"), ("a", "c")})
    f = assoc_vcat(1, p3, p3, p3)
    assert check_vcategory(f.source).ok and check_vcategory(f.target).ok
    assert f.source.comp._table is None and f.target.comp._table is None
    assert check_vfunctor(f).ok
    assert f.source.comp._table is None and f.target.comp._table is None
    assert [id(vc) for vc in scanned] == [id(p3)]


def _loaded(vcategories):
    """The V-categories of a tower, saved and loaded again."""
    base = next(iter(vcategories.values())).base
    return loads(dumps(Tower(base, vcategories=vcategories))).vcategories


def _plain_copy(vc):
    """``vc``'s tables without its construction, so saved as tables."""
    return VCategory(vc.base, set(vc.objects), dict(vc.hom), dict(vc.comp),
                     dict(vc.identity))


def _corrupted(vc, key):
    """A copy of ``vc`` whose composition entry at ``key`` is wrong."""
    wrong = min(m for m in vc.base.base.morphisms if m != vc.comp[key])
    return VCategory(vc.base, set(vc.objects), dict(vc.hom),
                     {**vc.comp, key: wrong}, dict(vc.identity))


# Object ids for a factor: plain, or holding "," and parentheses.
IDS = [st.lists(cells, min_size=2, max_size=2, unique=True)
       for cells in (st.sampled_from("abc"),
                     st.text(alphabet="a,()", min_size=1, max_size=3))]


@given(data=st.data())
def test_loaded_product_report_is_the_scans(bool2, bool3, zmod3, data):
    # Products saved as references and loaded again, named or nested, over
    # a failing factor or over ids holding "," or parentheses, report what
    # the scan reports, or raise what it raises.
    from enrichkit.instances import Bounds, random_instance
    base = data.draw(st.sampled_from([bool2, bool3, zmod3]))
    ids, factors = IDS[data.draw(st.integers(0, 1))], []
    for _ in "ABC":
        vc = random_instance("vcategory", data.draw(st.integers(0, 50)),
                             Bounds(max_objects=2), base=base)
        vc = relabel_vcategory(vc, dict(zip(sorted(vc.objects),
                                            data.draw(ids))))
        if data.draw(st.integers(0, 3)) == 0:
            vc = _corrupted(vc, data.draw(st.sampled_from(sorted(vc.comp))))
        factors.append(vc)
    a, b, c = factors
    i = data.draw(st.integers(1, base.n - 1))
    ab = product_vcat(i, a, b)
    loaded = _loaded({"A": a, "B": b, "C": c, "AB": ab,
                      "ABC": product_vcat(i, ab, c),
                      "A(BC)": product_vcat(i, a, product_vcat(i, b, c))})
    for name in ("AB", "ABC", "A(BC)"):
        assert made_of(loaded[name]) is not None
    for vc in loaded.values():
        for all_witnesses in (False, True):
            assert outcome(partial(check_vcategory,
                                    all_witnesses=all_witnesses), vc) == \
                outcome(partial(_scan_vcategory,
                                 all_witnesses=all_witnesses), vc)


def test_loaded_product_references_are_certified(preorder_p):
    inner = product_vcat(1, preorder_p, preorder_p)
    text = dumps(Tower(preorder_p.base, vcategories={
        "P": preorder_p, "PP": inner,
        "PPP": product_vcat(1, inner, preorder_p)}))
    assert json.loads(text)["vcategories"]["PPP"] == {
        "product": {"index": 1, "factors": ["PP", "P"]}}
    loaded = loads(text).vcategories
    (i,), (a, b) = made_of(loaded["PPP"])
    assert (i, a, b) == (1, loaded["PP"], loaded["P"]) and a is loaded["PP"]
    report = check_vcategory(loaded["PPP"])
    assert loaded["PPP"].comp._table is None    # certified, not scanned
    assert report == _scan_vcategory(loaded["PPP"])
    assert made_of(loaded["P"]) is None


def test_tower1_full_table_product_is_scanned(preorder_p, monkeypatch):
    # A tower/1 document holds its products as tables: read as any other
    # V-category, it is scanned and reports what the scan reports.
    from enrichkit import vcat
    prod = product_vcat(1, preorder_p, preorder_p)
    doc = json.loads(dumps(Tower(preorder_p.base, vcategories={
        "P": preorder_p, "PP": _plain_copy(prod)})))
    doc["format"] = "tower/1"
    loaded = loads(json.dumps(doc)).vcategories["PP"]
    assert loaded == prod and made_of(loaded) is None
    scanned = []

    def spy(vc, all_witnesses=False):
        scanned.append(vc)
        return _scan_vcategory(vc, all_witnesses)
    monkeypatch.setattr(vcat, "_scan_vcategory", spy)
    assert check_vcategory(loaded) == _scan_vcategory(loaded)
    assert scanned[0] is loaded


def test_saved_references_round_trip(bool2, preorder_p):
    # Two names for one product, a product of a named product, and a
    # nested reference to an unnamed one: load then save is the identity.
    discrete = preorder_vcat(bool2, ["a", "b"], {("a", "a"), ("b", "b")})
    inner = product_vcat(1, preorder_p, preorder_p)
    doc = json.loads(dumps(Tower(bool2, vcategories={
        "P": preorder_p, "D": discrete, "X": inner, "Y": inner,
        "Z": product_vcat(1, inner, preorder_p),
        "N": product_vcat(1, discrete, product_vcat(1, discrete, preorder_p))},
        vfunctors={"id_X": identity_vfunctor(inner)})))
    refs = doc["vcategories"]
    assert refs["X"] == refs["Y"] == {
        "product": {"index": 1, "factors": ["P", "P"]}}
    assert refs["Z"]["product"]["factors"] == ["X", "P"]
    assert refs["N"]["product"]["factors"] == ["D", {
        "product": {"index": 1, "factors": ["D", "P"]}}]
    doc["vfunctors"]["id_Y"] = {**doc["vfunctors"]["id_X"],
                                "source": "Y", "target": "Y"}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    tower = loads(text)
    x, y = tower.vcategories["X"], tower.vcategories["Y"]
    assert x is not y and x == y and made_of(y) is not None
    assert tower.vfunctors["id_Y"].source is y
    assert dumps(tower) == text


def test_corrupted_loaded_product_is_scanned(preorder_p):
    prod = product_vcat(1, preorder_p, preorder_p)
    key = (pair("a", "a"), pair("a", "b"), pair("b", "b"))
    loaded = _loaded({"P": preorder_p, "PP": _corrupted(prod, key)})["PP"]
    assert made_of(loaded) is None
    assert not check_vcategory(loaded).ok
    assert outcome(check_vcategory, loaded) == \
        outcome(_scan_vcategory, loaded)


def test_loaded_product_of_an_incomplete_factor_is_scanned(preorder_p):
    # Saved as tables, the product keeps its own scan, and the check still
    # names the factor's missing entry; saved as a reference, the product's
    # check names it too.
    prod = product_vcat(1, preorder_p, preorder_p)
    doc = json.loads(dumps(Tower(preorder_p.base, vcategories={
        "P": preorder_p, "PP": _plain_copy(prod), "R": prod})))
    rows = doc["vcategories"]["P"]["comp"]
    rows.remove(next(row for row in rows if row[:3] == ["a", "a", "a"]))
    tower = loads(json.dumps(doc))
    parent = tower.vcategories["PP"]
    assert made_of(parent) is None
    assert check_vcategory(parent).ok and _scan_vcategory(parent).ok
    with pytest.raises(MalformedTable, match=r"^composition entry "
                       r"\('a', 'a', 'a'\) missing or unknown$"):
        check_vcategory(tower.vcategories["P"])
    with pytest.raises(MalformedTable, match=r"^product factor's composition "
                       r"entry \('a', 'a', 'a'\) missing$"):
        check_vcategory(tower.vcategories["R"])


def test_equal_loaded_products_keep_their_names(preorder_p):
    # Two names with equal product tables stay two structures, so a
    # reference to the second is saved under its own name.
    prod = product_vcat(1, preorder_p, preorder_p)
    twin = _plain_copy(prod)
    text = dumps(Tower(prod.base, vcategories={
        "P": preorder_p, "X": prod, "Y": twin},
        vfunctors={"id_Y": identity_vfunctor(twin)}))
    tower = loads(text)
    x, y = tower.vcategories["X"], tower.vcategories["Y"]
    assert x is not y and x == y
    assert made_of(x) is not None and made_of(y) is None
    assert json.loads(text)["vfunctors"]["id_Y"]["source"] == "Y"
    assert dumps(tower) == text


def test_product_vfunctor_identity(preorder_p):
    ident = identity_vfunctor(preorder_p)
    prod = product_vfunctor(1, ident, ident)
    assert vfunctor_equal(prod,
                          identity_vfunctor(product_vcat(1, preorder_p,
                                                         preorder_p)))


def test_product_vfunctor_passes(preorder_p):
    other = collapse_functor(preorder_p)
    prod = product_vfunctor(1, identity_vfunctor(preorder_p), other)
    assert check_vfunctor(prod).ok


def test_product_vnat_components(preorder_p):
    ident = identity_vfunctor(preorder_p)
    jnat = identity_vnat(ident)
    prod = product_vnat(1, jnat, jnat)
    assert check_vnat(prod).ok
    base = preorder_p.base
    for x in preorder_p.objects:
        for y in preorder_p.objects:
            assert prod.components[pair(x, y)] == base.tensor_mor(
                2, jnat.components[x], jnat.components[y])


def test_assoc_vcat(preorder_p, cocycle_d):
    for a in (preorder_p, cocycle_d):
        cat = a.base.base
        al = assoc_vcat(1, a, a, a)
        assert _scan_vfunctor(al).ok
        for m in al.hom_map.values():
            assert m == cat.identity[cat.dom[m]]
    obj = assoc_vcat(1, preorder_p, preorder_p, preorder_p).obj_map
    assert obj[pair(pair("a", "a"), "a")] == pair("a", pair("a", "a"))


def test_assoc_pentagon(cocycle_d):
    # The level-1 pentagon for the associator functors, as functor equality.
    a = cocycle_d
    i = 1
    ab = product_vcat(i, a, a)
    bc = product_vcat(i, a, a)
    cd = product_vcat(i, a, a)
    lhs = compose_vfunctor(
        product_vfunctor(i, identity_vfunctor(a), assoc_vcat(i, a, a, a)),
        compose_vfunctor(
            assoc_vcat(i, a, ab, a),
            product_vfunctor(i, assoc_vcat(i, a, a, a),
                             identity_vfunctor(a))))
    rhs = compose_vfunctor(assoc_vcat(i, a, a, cd), assoc_vcat(i, ab, a, a))
    assert vfunctor_equal(lhs, rhs)


def test_interchange_vcat(zmod3, bool3, cocycle_d):
    k = interchange_vcat(1, 2, cocycle_d, cocycle_d, cocycle_d, cocycle_d)
    assert _scan_vfunctor(k).ok
    cat = zmod3.base
    for m in k.hom_map.values():
        assert m == cat.identity[cat.dom[m]]
    assert k.obj_map[pair(pair("x", "y"), pair("y", "x"))] \
        == pair(pair("x", "y"), pair("y", "x"))
    assert k.obj_map[pair(pair("x", "y"), pair("x", "x"))] \
        == pair(pair("x", "x"), pair("y", "x"))
    # Same construction over a thin three-tensor base.
    from enrichkit.instances import preorder_vcat
    p3 = preorder_vcat(bool3, ["a", "b"], {("a", "a"), ("a", "b"), ("b", "b")})
    k2 = interchange_vcat(1, 2, p3, p3, p3, p3)
    assert _scan_vfunctor(k2).ok


def test_interchange_unit_slots_collapse(cocycle_d):
    # With unit categories in the second and fourth slots, the components
    # fall under the external unit condition and are identities.
    unitv = unit_vcategory(cocycle_d.base)
    k = interchange_vcat(1, 2, cocycle_d, unitv, cocycle_d, unitv)
    cat = cocycle_d.base.base
    for m in k.hom_map.values():
        assert m == cat.identity[cat.dom[m]]


def test_interchange_index_errors(cocycle_d):
    with pytest.raises(IndexOutOfRange):
        interchange_vcat(1, 1, cocycle_d, cocycle_d, cocycle_d, cocycle_d)
    with pytest.raises(IndexOutOfRange):
        interchange_vcat(2, 3, cocycle_d, cocycle_d, cocycle_d, cocycle_d)


def test_compose_vfunctor_unit(preorder_p):
    t = collapse_functor(preorder_p)
    assert vfunctor_equal(compose_vfunctor(t, identity_vfunctor(preorder_p)), t)
    assert vfunctor_equal(compose_vfunctor(identity_vfunctor(preorder_p), t), t)


def test_vertical_composite_of_identity_transforms(preorder_p):
    ident = identity_vfunctor(preorder_p)
    j = identity_vnat(ident)
    composite = compose_vnat_vert(j, j)
    # M o (j tensor j) = j by the unit axiom.
    assert composite.components == j.components
    assert check_vnat(composite).ok


def test_whisker_identity_transform(preorder_p):
    t = collapse_functor(preorder_p)
    j = identity_vnat(identity_vfunctor(preorder_p))
    left = whisker_vnat("left", t, j)
    assert left.components == identity_vnat(t).components
    right = whisker_vnat("right", t, j)
    assert right.components == identity_vnat(t).components


def test_base_invalid_gate(bool2):
    v = bool_poset(2)
    v.assoc_table[1][("top", "top", "top")] = "u"
    p = VCategory(v, {"a"}, {("a", "a"): "top"},
                  {("a", "a", "a"): "id_top"}, {"a": "id_top"})
    with pytest.raises(BaseInvalid):
        check_vcategory(p)


def test_closure_on_seeded_randoms(bool2, zmod3):
    # Iterated products grow quartically in the pentagon scan, so the
    # inputs feeding assoc/interchange stay at two objects.
    from enrichkit.instances import Bounds, random_instance
    small = Bounds(max_objects=2)
    for seed in range(6):
        base = bool2 if seed % 2 == 0 else zmod3
        a = random_instance("vcategory", seed, Bounds(), base=base)
        b = random_instance("vcategory", seed + 100, Bounds(), base=base)
        for i in range(1, base.n):
            assert _scan_vcategory(product_vcat(i, a, b)).ok
        a2 = random_instance("vcategory", seed, small, base=base)
        b2 = random_instance("vcategory", seed + 100, small, base=base)
        for i in range(1, base.n):
            assert _scan_vfunctor(assoc_vcat(i, a2, b2, a2)).ok
        if base.n >= 3:
            assert _scan_vfunctor(interchange_vcat(1, 2, a2, b2, a2, b2)).ok


def test_vcat_associator_and_interchange_on_a_non_replicated_base():
    # Every shipped base repeats one tensor, so reading the associator or
    # interchange at the wrong tensor index goes unseen there.  On the
    # capped max-plus chain, tensor 1 (truncated +) differs from the rest
    # (max): V-Cat's associator and interchange functors hold only at the
    # shifted indices.
    chain = capped_chain(2, 4)
    assert check_kfold(chain).ok
    a = metric_space(chain, {("p", "q"): "1", ("q", "p"): "2"})
    b = metric_space(chain, {("r", "s"): "2", ("s", "r"): "0"})
    assert check_vcategory(a).ok and check_vcategory(b).ok
    assert _scan_vfunctor(assoc_vcat(1, a, b, a)).ok
    assert _scan_vfunctor(interchange_vcat(1, 2, a, b, a, b)).ok


# Bases whose tensors do not commute: on the chain "0".."3", [M, max] has
# a non-commutative first tensor and [D, M, max] a non-commutative second
# one (``helpers.chain_m``, ``helpers.chain_d``).  Over a commutative
# tensor, swapping the two pairs of an interchange's arguments, or the two
# factors of a product functor, changes nothing.

def test_products_over_a_non_commutative_first_tensor_scan_clean():
    base = chain(3, chain_m, max)
    assert check_kfold(base).ok
    spaces = two_point_spaces(base)
    assert len(spaces) == 16
    assert all(check_vcategory(a).ok for a in spaces)
    for a, b in iproduct(spaces, repeat=2):
        assert _scan_vcategory(product_vcat(1, a, b)).ok


def test_product_functors_over_a_non_commutative_second_tensor():
    base = chain(3, chain_d, chain_m, max)
    assert check_kfold(base).ok
    spaces = two_point_spaces(base)
    assert all(check_vcategory(a).ok for a in spaces)
    for i, a, b in iproduct((1, 2), spaces, spaces):
        assert check_vfunctor(product_vfunctor(
            i, identity_vfunctor(a), identity_vfunctor(b))).ok


def test_certificate_is_the_scan_on_every_product_of_two_point_preorders(
        bool3):
    # Every one of the 16 hom assignments on two objects over the
    # three-tensor meet poset (4 preorders, 12 failing) times each preorder,
    # at every index, and each passing product times a preorder once more.
    candidates = list(_hom_assignments(bool3, 2))
    preorders = [a for a in candidates if _scan_vcategory(a).ok]
    assert (len(candidates), len(preorders)) == (16, 4)
    certified = 0
    for a, b, i in iproduct(candidates, preorders, (1, 2)):
        passing = a in preorders
        p = product_vcat(i, a, b)
        for q in [p, product_vcat(i, p, b)] if passing else [p]:
            got = outcome(check_vcategory, q)
            certified += passing and q.comp._table is None
            assert got == outcome(_scan_vcategory, q)
    assert certified == 2 * 4 * 4 * 2


@pytest.mark.parametrize("base_name", ["bool3", "zmod3", "capped", "m_max",
                                       "dm_max"])
def test_certified_functor_report_is_the_scans(base_name, request):
    # V-Cat's associator and interchange of passing V-categories are
    # certified, and neither frame's composition is built; with a failing
    # factor or colliding ids they are scanned.  Either way the report is
    # the scan's.
    from enrichkit.instances import Bounds, random_instance
    if base_name in ("bool3", "zmod3"):
        base = request.getfixturevalue(base_name)
        draws = (random_instance("vcategory", seed, Bounds(max_objects=2),
                                 base=base) for seed in range(12))
        spaces = [a for a in draws if len(a.objects) == 2][:3]
    else:
        base = {"capped": capped_chain(2, 3), "m_max": chain(3, chain_m, max),
                "dm_max": chain(3, chain_d, chain_m, max)}[base_name]
        spaces = two_point_spaces(base)[1::6]
    indices = range(1, base.n)
    for a, b in zip(spaces, spaces[1:]):
        for (x, y), passing in (((a, b), True), ((_failing(a), b), False),
                                (_colliding(a, b), False)):
            functors = [assoc_vcat(i, x, y, y) for i in indices] + [
                interchange_vcat(i, j, x, y, y, x)
                for i, j in iproduct(indices, repeat=2) if i < j]
            for f in functors:
                certified = outcome(check_vfunctor, f)
                if passing:
                    assert f.source.comp._table is None
                    assert f.target.comp._table is None
                assert certified == outcome(_scan_vfunctor, f)


def test_every_mutant_edits_one_place():
    for mutant in MUTANTS:
        with open(f"{ROOT}/{mutant.path}", encoding="utf-8") as fh:
            assert fh.read().count(mutant.old) == 1, mutant.name
