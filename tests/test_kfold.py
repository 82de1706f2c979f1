from itertools import combinations
from unittest import mock

import pytest

from enrichkit import report
from enrichkit.errors import IndexOutOfRange, MalformedTable, UnknownObject
from enrichkit.kfold import KFoldMonoidal, check_kfold
from enrichkit.instances import bool_poset, from_symmetric, zmod2

from helpers import (add2, idempotent_monoid_category, meet, rewire,
                     thin_morphism, zmod_symmetric)


def test_tensor_obj_meet_table(bool2):
    # Oracle: meet restated from the order.
    for a in sorted(bool2.base.objects):
        for b in sorted(bool2.base.objects):
            assert bool2.tensor_obj(1, a, b) == meet(a, b)
    assert bool2.tensor_obj(1, "top", "top") == "top"


def test_tensor_obj_strict_unit(bool2, zmod3):
    for v in (bool2, zmod3):
        for i in range(1, v.n + 1):
            for a in sorted(v.base.objects):
                assert v.tensor_obj(i, a, v.unit) == a
                assert v.tensor_obj(i, v.unit, a) == a


def test_tensor_obj_addition(zmod3):
    for a in sorted(zmod3.base.objects):
        for b in sorted(zmod3.base.objects):
            assert zmod3.tensor_obj(2, a, b) == add2(a, b)
    assert zmod3.tensor_obj(2, "1", "1") == "0"


def test_tensor_obj_errors(bool2):
    with pytest.raises(IndexOutOfRange):
        bool2.tensor_obj(3, "top", "top")
    with pytest.raises(UnknownObject):
        bool2.tensor_obj(1, "top", "zz")


def test_tensor_mor_meet(bool2):
    cat = bool2.base
    # u tensored with id_top is the unique morphism between the meets.
    expected = thin_morphism(cat, meet("bot", "top"), meet("top", "top"))
    assert bool2.tensor_mor(1, "u", "id_top") == expected == "u"


def test_tensor_mor_strict_unit(bool2):
    e = bool2.base.identity[bool2.unit]
    for f in sorted(bool2.base.morphisms):
        assert bool2.tensor_mor(1, f, e) == f
        assert bool2.tensor_mor(1, e, f) == f


def test_tensor_mor_identities(bool2, zmod3):
    for v in (bool2, zmod3):
        cat = v.base
        for i in range(1, v.n + 1):
            for a in sorted(cat.objects):
                for b in sorted(cat.objects):
                    assert v.tensor_mor(i, cat.identity[a], cat.identity[b]) \
                        == cat.identity[v.tensor_obj(i, a, b)]


def test_interchange_unit_conditions(bool2, zmod3):
    # Internal: eta_{ABII} = eta_{IIAB} = 1_{A tensor_j B}
    # External: eta_{AIBI} = eta_{IAIB} = 1_{A tensor_i B}
    for v in (bool2, zmod3):
        cat = v.base
        e = v.unit
        for (i, j) in sorted(v.interchange_table):
            for a in sorted(cat.objects):
                for b in sorted(cat.objects):
                    inner = cat.identity[v.tensor_obj(j, a, b)]
                    assert v.interchange_mor(i, j, a, b, e, e) == inner
                    assert v.interchange_mor(i, j, e, e, a, b) == inner
                    outer = cat.identity[v.tensor_obj(i, a, b)]
                    assert v.interchange_mor(i, j, a, e, b, e) == outer
                    assert v.interchange_mor(i, j, e, a, e, b) == outer


def test_interchange_index_errors(zmod3):
    with pytest.raises(IndexOutOfRange):
        zmod3.interchange_mor(2, 2, "0", "0", "0", "0")
    with pytest.raises(IndexOutOfRange):
        zmod3.interchange_mor(2, 1, "0", "0", "0", "0")


def test_bool_components_all_identities(bool2):
    # In a thin base with dom = cod, the only endomorphism is the identity.
    cat = bool2.base
    for table in bool2.assoc_table.values():
        for m in table.values():
            assert m == cat.identity[cat.dom[m]]
    for table in bool2.interchange_table.values():
        for m in table.values():
            assert m == cat.identity[cat.dom[m]]


def test_check_kfold_bool2(bool2):
    rep = check_kfold(bool2)
    assert rep.ok
    assert rep.families["hexagon"] == 0  # vacuous below three tensors
    assert not rep.warnings


def test_check_kfold_zmod3_hexagon_nonvacuous(zmod3):
    rep = check_kfold(zmod3)
    assert rep.ok
    assert rep.families["hexagon[1,2,3]"] == 256


def test_interchange_mutation(bool2):
    v = bool_poset(2)
    eta = rewire(v.interchange_table[(1, 2)], ("top", "top", "top", "top"), "u")
    mutated = KFoldMonoidal(v.base, v.n, v.unit, v.tensor_obj_table,
                            v.tensor_mor_table, v.assoc_table, {(1, 2): eta})
    rep = check_kfold(mutated, all_witnesses=True)
    assert not rep.ok
    # The unit object is top, so the all-top component sits inside both unit
    # conditions as well as the boundary, naturality, and associativity
    # families; nothing outside the interchange families is touched.
    assert rep.failing_families() == {
        "eta-boundary[1,2]", "eta-internal-unit[1,2]", "eta-external-unit[1,2]",
        "eta-naturality[1,2]", "eta-internal-assoc[1,2]",
        "eta-external-assoc[1,2]"}


def test_pentagon_mutation_zmod(zmod3):
    v = zmod2(3)
    assoc1 = rewire(v.assoc_table[1], ("1", "1", "1"), "id0")
    mutated = KFoldMonoidal(v.base, v.n, v.unit, v.tensor_obj_table,
                            v.tensor_mor_table, {**v.assoc_table, 1: assoc1},
                            v.interchange_table)
    rep = check_kfold(mutated, all_witnesses=True)
    # (1+1)+1 = 1: the rewired component id0 has the wrong endpoints, so the
    # boundary fails along with every diagram family that evaluates it.
    assert rep.failing_families() == {
        "associator-boundary[1]", "associator-naturality[1]", "pentagon[1]",
        "eta-internal-assoc[1,2]", "eta-internal-assoc[1,3]"}


def test_noninvertible_associator_is_warning_only():
    # One object, morphisms {e, a} with a.a = a: taking a as the associator
    # component satisfies the pentagon (a is idempotent) and naturality (the
    # monoid is commutative) but has no inverse.
    cat = idempotent_monoid_category()
    v = KFoldMonoidal(
        cat, 1, "*",
        {1: {("*", "*"): "*"}},
        {1: {(f, g): cat.comp[(f, g)] for f in cat.morphisms
             for g in cat.morphisms}},
        {1: {("*", "*", "*"): "a"}},
        {})
    rep = check_kfold(v)
    assert rep.ok
    assert any(w.diagram == "associator-invertible[1]" for w in rep.warnings)


def test_missing_table_entry_is_malformed(bool2):
    v = bool_poset(2)
    broken_obj = dict(v.tensor_obj_table[1])
    del broken_obj[("top", "top")]
    mutated = KFoldMonoidal(v.base, v.n, v.unit,
                            {**v.tensor_obj_table, 1: broken_obj},
                            v.tensor_mor_table, v.assoc_table,
                            v.interchange_table)
    with pytest.raises(MalformedTable):
        check_kfold(mutated)


def test_check_covers_expected_families(zmod3):
    rep = check_kfold(zmod3)
    expected_kinds = {"tensor-identity", "tensor-boundary", "tensor-composition",
                      "unit-strict-object", "unit-strict-morphism",
                      "associator-boundary", "associator-naturality", "pentagon",
                      "eta-boundary", "eta-internal-unit", "eta-external-unit",
                      "eta-naturality", "eta-internal-assoc",
                      "eta-external-assoc", "hexagon"}
    seen = {fam.split("[")[0] for fam in rep.families}
    assert seen == expected_kinds


# Instances of each family over a discrete base: a tuple of objects, or of
# morphisms, one per position, and the base has one morphism per object.
TENSOR_ARITY = {"tensor-identity": 2, "tensor-boundary": 2,
                "tensor-composition": 2, "unit-strict-object": 1,
                "unit-strict-morphism": 1, "associator-boundary": 3,
                "associator-naturality": 3, "pentagon": 4}
ETA_ARITY = {"eta-boundary": 4, "eta-internal-unit": 2,
             "eta-external-unit": 2, "eta-naturality": 4,
             "eta-internal-assoc": 6, "eta-external-assoc": 6}


def test_zmod4_tower_counts_every_family_at_n_to_the_arity():
    n, k = 4, 3
    rep = check_kfold(from_symmetric(zmod_symmetric(n), k))
    want = {}
    for i in range(1, k + 1):
        want.update({f"{fam}[{i}]": n ** arity
                     for fam, arity in TENSOR_ARITY.items()})
    for i, j in combinations(range(1, k + 1), 2):
        want.update({f"{fam}[{i},{j}]": n ** arity
                     for fam, arity in ETA_ARITY.items()})
    want["hexagon[1,2,3]"] = n ** 8
    assert rep.ok
    assert rep.families == want


def test_coded_and_list_kernels_report_alike_on_a_mutated_zmod4_tower():
    v = from_symmetric(zmod_symmetric(4), 3)
    v.interchange_table[(1, 2)] = rewire(
        v.interchange_table[(1, 2)], ("z1", "z2", "z3", "z0"), "id_z1")
    for all_witnesses in (False, True):
        reports = []
        for coded in (False, True, None):
            # None keeps the shape rule: only the large blocks are coded.
            select = report._coded if coded is None else (
                lambda rows, sizes, coded=coded: coded)
            with mock.patch.object(report, "_coded", select):
                reports.append(check_kfold(v, all_witnesses=all_witnesses))
        assert reports[0] == reports[1] == reports[2]
        assert "hexagon[1,2,3]" in reports[0].failing_families()
    assert len(reports[0].witnesses) > len(reports[0].failing_families())
