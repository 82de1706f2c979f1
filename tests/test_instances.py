import pytest

from enrichkit.errors import (BudgetExhausted, NotPreorder, NotSymmetric,
                              UnknownObject)
from enrichkit.instances import (
    Bounds,
    bool_poset,
    bool_symmetric,
    cocycle_vcat,
    from_symmetric,
    preorder_vcat,
    random_instance,
    xor_group_v2cat,
    zmod2_symmetric,
)
from enrichkit.kfold import check_kfold
from enrichkit.vcat import check_vcategory, pair
from enrichkit.v2cat import check_v2category

from helpers import rewire


def test_from_symmetric_bool_identities():
    # All coherence data of the meet poset is the identity, so the composite
    # through the symmetry must evaluate to identities everywhere.
    v = from_symmetric(bool_symmetric(), 2)
    cat = v.base
    for table in v.interchange_table.values():
        for m in table.values():
            assert m == cat.identity[cat.dom[m]]
    assert check_kfold(v).ok


def test_from_symmetric_zmod_hexagon():
    v = from_symmetric(zmod2_symmetric(), 3)
    rep = check_kfold(v)
    assert rep.ok
    assert rep.families["hexagon[1,2,3]"] > 0


def test_from_symmetric_rejects_broken_symmetry():
    sym = bool_symmetric()
    sym.symmetry = rewire(sym.symmetry, ("bot", "top"), "u")
    with pytest.raises(NotSymmetric) as err:
        from_symmetric(sym, 2)
    assert err.value.report is not None
    assert not err.value.report.ok


def test_shipped_bases(bool2, zmod3):
    assert check_kfold(bool2).ok
    assert check_kfold(zmod3).ok
    for a in bool2.base.objects:
        assert bool2.tensor_obj(1, a, "top") == a


def test_preorder_rejects_bad_relations(bool2):
    with pytest.raises(NotPreorder):
        preorder_vcat(bool2, ["a", "b"], {("a", "b"), ("b", "b")})
    with pytest.raises(NotPreorder):
        preorder_vcat(bool2, ["a", "b", "c"],
                      {("a", "a"), ("b", "b"), ("c", "c"),
                       ("a", "b"), ("b", "c")})


def test_constant_potential_is_flat(zmod3):
    d = cocycle_vcat(zmod3, {"x": "0", "y": "0"})
    assert set(d.hom.values()) == {"0"}
    assert check_vcategory(d).ok


def test_join_monoid_axioms(join_w):
    rep = check_v2category(join_w)
    assert rep.ok
    # Unit 1-cell is the join unit and its identity element is the
    # J-component at (0, 0).
    assert join_w.unit1("*") == "one"
    assert join_w.identity["*"].hom_map[("0", "0")] \
        == join_w.hom[("*", "*")].identity["one"]
    m = join_w.comp[("*", "*", "*")].obj_map
    for f in join_w.one_cells("*", "*"):
        assert m[pair(f, "one")] == f == m[pair("one", f)]
        for g in join_w.one_cells("*", "*"):
            for h in join_w.one_cells("*", "*"):
                assert m[pair(m[pair(f, g)], h)] == m[pair(f, m[pair(g, h)])]


def test_xor_group(xor_x2):
    assert check_v2category(xor_x2).ok
    m = xor_x2.comp[("*", "*", "*")].obj_map
    assert m[pair("y", "y")] == "x"


def test_xor_group_needs_a_z2_base():
    # The meet poset's objects are top and bot, not the parities 0 and 1.
    with pytest.raises(UnknownObject, match="objects '0' and '1'"):
        xor_group_v2cat(bool_poset(2))


def test_corpus_validated_and_deterministic():
    from enrichkit.instances import corpus
    from enrichkit.kfold import check_kfold
    from enrichkit.vcat import check_vfunctor, check_vnat
    from enrichkit.v2cat import (check_modification, check_v2functor,
                                 check_v2nat, exchange_suite)
    c = corpus(3)
    assert c == corpus(3)
    assert sorted(c) == ["bool2", "bool3", "zmod3"]
    for tower in c.values():
        assert check_kfold(tower.base).ok
        for vc in tower.vcategories.values():
            assert check_vcategory(vc).ok
        for vf in tower.vfunctors.values():
            assert check_vfunctor(vf).ok
        for nat in tower.vnats.values():
            assert check_vnat(nat).ok
        for u in tower.v2categories.values():
            assert check_v2category(u).ok
        for vf in tower.v2functors.values():
            assert check_v2functor(vf).ok
        for nat in tower.v2nats.values():
            assert check_v2nat(nat).ok
        for m in tower.modifications.values():
            assert check_modification(m).ok
        for p in tower.pastings.values():
            assert exchange_suite(p).ok


@pytest.mark.parametrize("level", ["vcategory", "vfunctor", "v2category"])
def test_random_instance_determinism(level):
    # The rejection sampler's three callers: equal draws from one seed, and
    # the attempt that produced each is recorded.
    a = random_instance(level, 42)
    b = random_instance(level, 42)
    assert a == b
    assert a._generation_attempts >= 1
    assert b._generation_attempts == a._generation_attempts


def test_random_modification_determinism():
    c = random_instance("modification", 5, Bounds(max_hom=2))
    d = random_instance("modification", 5, Bounds(max_hom=2))
    assert c == d


def test_shipped_corpus_product_closure():
    from enrichkit.instances import corpus
    from enrichkit.vcat import _scan_vcategory, product_vcat
    for tower in corpus(0).values():
        group = list(tower.vcategories.values())
        for a in group:
            for b in group:
                for i in range(1, a.base.n):
                    assert _scan_vcategory(product_vcat(i, a, b)).ok


def test_random_instance_bounds():
    bounds = Bounds(max_objects=2, max_hom=2)
    for seed in range(4):
        vc = random_instance("vcategory", seed, bounds)
        assert 1 <= len(vc.objects) <= 2


def test_budget_exhausted_on_empty_bounds():
    with pytest.raises(BudgetExhausted):
        random_instance("vcategory", 0, Bounds(max_objects=0))


def test_random_levels(bool2):
    assert check_vcategory(random_instance("vcategory", 9, base=bool2)).ok
    f = random_instance("vfunctor", 9, base=bool2)
    from enrichkit.vcat import check_vfunctor
    assert check_vfunctor(f).ok
    nat = random_instance("vnat", 9, base=bool2)
    from enrichkit.vcat import check_vnat
    assert check_vnat(nat).ok
