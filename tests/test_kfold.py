from itertools import combinations
import re
from unittest import mock

import pytest

from enrichkit import kfold, report
from enrichkit.errors import IndexOutOfRange, MalformedTable, UnknownObject
from enrichkit.kfold import KFoldMonoidal, check_kfold
from enrichkit.instances import bool_poset, from_symmetric, zmod2
from enrichkit.report import ReportBuilder

from helpers import (add2, capped_chain, idempotent_monoid_category, meet,
                     rewire, thin_morphism, zmod_symmetric)


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
    # The same component at a second index is probed once and warned at both.
    twice = KFoldMonoidal(cat, 2, "*", *({1: t[1], 2: dict(t[1])} for t in (
        v.tensor_obj_table, v.tensor_mor_table, v.assoc_table)),
        {(1, 2): {("*",) * 4: "e"}})
    assert [w.diagram for w in check_kfold(twice).warnings] == [
        "associator-invertible[1]", "associator-invertible[2]"]


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


@pytest.mark.parametrize("field, index, message", [
    ("tensor_obj_table", 2, "tensor_2 missing object entry"),
    ("tensor_mor_table", 3, "tensor_3 missing morphism entry"),
    ("assoc_table", 2, "associator_2 missing component"),
    ("interchange_table", (2, 3), "interchange_(2, 3) missing component")],
    ids=["tensor_obj", "tensor_mor", "assoc", "interchange"])
def test_a_table_unlike_the_earlier_ones_is_required_whole(field, index,
                                                           message):
    # Index 1's tables pass; an equal table passes as they did, and a later
    # one missing an entry is still found and named.
    v = from_symmetric(zmod_symmetric(3), 3)
    tables = {name: dict(getattr(v, name)) for name in (
        "tensor_obj_table", "tensor_mor_table", "assoc_table",
        "interchange_table")}
    broken = dict(tables[field][index])
    del broken[max(broken)]
    tables[field][index] = broken
    with pytest.raises(MalformedTable, match=re.escape(message)):
        check_kfold(KFoldMonoidal(v.base, v.n, v.unit, **tables))


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
    # Also at Z/5, where the interchange lookups have 625 keys and the
    # hexagon's blocks hold 78,125 rows.
    for n, wrong in ((4, "id_z1"), (5, "id_z2")):
        v = from_symmetric(zmod_symmetric(n), 3)
        v.interchange_table[(1, 2)] = rewire(
            v.interchange_table[(1, 2)], ("z1", "z2", "z3", "z0"), wrong)
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


# -- families over equal tables share one scan ----------------------------------

def _unshared():
    """Every family keyed apart, so each one is scanned."""
    return mock.patch.object(kfold, "_family_key", lambda name, reads: name)


def _scanned(v):
    """check_kfold's report on ``v`` and its number of family scans."""
    with mock.patch.object(kfold, "equations", wraps=kfold.equations) as scans:
        rep = check_kfold(v)
    return rep, scans.call_count


def _edited(v, field, index):
    """``v`` with the last entry of ``field[index]`` redirected to the first
    id of its kind that differs from it."""
    tables = {name: getattr(v, name) for name in (
        "tensor_obj_table", "tensor_mor_table", "assoc_table",
        "interchange_table")}
    table = tables[field][index]
    key = max(table)
    ids = v.base.objects if field == "tensor_obj_table" else v.base.morphisms
    value = min(x for x in ids if x != table[key])
    tables[field] = {**tables[field], index: rewire(table, key, value)}
    return KFoldMonoidal(v.base, v.n, v.unit, **tables)


EDITS = (("tensor_obj_table", 2), ("tensor_mor_table", 2), ("assoc_table", 3),
         ("interchange_table", (1, 3)), ("interchange_table", (2, 3)))


@pytest.mark.parametrize("base", ["z3k3", "z4k4", "bool3"])
def test_shared_families_report_as_their_scans(base):
    v = {"z3k3": lambda: from_symmetric(zmod_symmetric(3), 3),
         "z4k4": lambda: from_symmetric(zmod_symmetric(4), 4),
         "bool3": lambda: bool_poset(3)}[base]()
    for field, index in EDITS:
        edited = _edited(v, field, index)
        for all_witnesses in (False, True):
            rep = check_kfold(edited, all_witnesses=all_witnesses)
            with _unshared():
                scanned = check_kfold(edited, all_witnesses=all_witnesses)
            assert not rep.ok
            assert rep == scanned, (field, index, all_witnesses)
            assert list(rep.families) == list(scanned.families)


def test_equal_tables_are_scanned_once():
    v = from_symmetric(zmod_symmetric(4), 4)
    t = kfold.LiftedTables(v)
    assert t.tm[2] is t.tm[1] and t.eta[(2, 3)] is t.eta[(1, 2)]
    rep, scans = _scanned(v)
    with _unshared():
        scanned, every = _scanned(v)
    # 8 tensor families, 6 interchange families and the hexagon, against 8
    # per tensor, 6 per interchange and one per index triple.
    assert (scans, every) == (15, 72)
    assert rep.ok and rep == scanned


def test_families_over_differing_tables_are_scanned_apart():
    # Tensor 1 is truncated addition and tensors 2 and 3 are max, so only
    # the families of the second and third tensor, and of eta_12 and eta_13,
    # read equal tables.
    v = capped_chain(2, 3)
    family, replay = ReportBuilder.family, ReportBuilder.replay
    calls, shared = [], {}

    def replaying(b, earlier):
        calls.append(earlier)
        return replay(b, earlier)

    def recording(b, name, blocks, check):
        if calls:
            shared[name] = calls.pop()
        family(b, name, blocks, check)

    with mock.patch.object(ReportBuilder, "replay", replaying), \
            mock.patch.object(ReportBuilder, "family", recording):
        rep = check_kfold(v)
    want = {f"{fam}[3]": f"{fam}[2]" for fam in TENSOR_ARITY}
    want.update({f"{fam}[1,3]": f"{fam}[1,2]" for fam in ETA_ARITY})
    assert shared == want
    with _unshared():
        assert check_kfold(v) == rep
