"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
Expected values tagged by hand-derivation in comments; mutation expectations
list the exact set of diagram families that read the mutated table entry.
"""
import json
import time

from enrichkit.cli import main
from enrichkit.fincat import FinCategory
from enrichkit.instances import (
    Bounds,
    _endo_v2functors,
    _mods_between,
    _nats_between,
    _random_pasting,
    bool_poset,
    bool_symmetric,
    from_symmetric,
    join_monoid_v2cat,
    random_instance,
    xor_group_v2cat,
    zmod2,
    zmod2_symmetric,
)
from enrichkit.kfold import KFoldMonoidal, check_kfold
from enrichkit.serialize import Tower, dumps, load
from enrichkit.vcat import (
    _scan_vcategory,
    assoc_vcat,
    check_vcategory,
    check_vfunctor,
    check_vnat,
    interchange_vcat,
    pair,
    product_vcat,
    relabel_vcategory,
    unit_vcategory,
)
from enrichkit.v2cat import (
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

from helpers import idempotent_monoid_category


def report(number, elapsed, message):
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {message}")


# -- criterion 1: base validation ------------------------------------------------

def test_criterion_1_base_validation():
    t0 = time.monotonic()
    families_required = {"pentagon", "unit-strict-object",
                         "unit-strict-morphism", "associator-naturality",
                         "eta-naturality", "eta-internal-unit",
                         "eta-external-unit", "eta-internal-assoc",
                         "eta-external-assoc"}
    for base in (bool_poset(2), zmod2(3)):
        rep = check_kfold(base)
        assert rep.ok
        seen = {fam.split("[")[0] for fam in rep.families}
        assert families_required <= seen
    hex_count = check_kfold(zmod2(3)).families["hexagon[1,2,3]"]
    assert hex_count == 256  # 2 objects ** 8 slots: nonvacuous
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, elapsed, "bool_poset(2) and zmod2(3) pass the full k-fold "
           f"check; hexagon scanned {hex_count} instances")


# -- criterion 2: interchange unit laws -------------------------------------------

def test_criterion_2_unit_laws_exact():
    t0 = time.monotonic()
    checked = 0
    for base in (bool_poset(2), bool_poset(3), zmod2(3)):
        cat, e = base.base, base.unit
        for (i, j) in sorted(base.interchange_table):
            for a in sorted(cat.objects):
                for b in sorted(cat.objects):
                    inner = cat.identity[base.tensor_obj(j, a, b)]
                    outer = cat.identity[base.tensor_obj(i, a, b)]
                    assert base.interchange_mor(i, j, a, b, e, e) == inner
                    assert base.interchange_mor(i, j, e, e, a, b) == inner
                    assert base.interchange_mor(i, j, a, e, b, e) == outer
                    assert base.interchange_mor(i, j, e, a, e, b) == outer
                    checked += 4
    report(2, time.monotonic() - t0,
           f"{checked} internal/external unit instances hold as identities")


# -- criterion 3: symmetric construction -------------------------------------------

def test_criterion_3_symmetric_construction():
    t0 = time.monotonic()
    for sym, ks in ((bool_symmetric(), (1, 2, 3)),
                    (zmod2_symmetric(), (1, 2, 3))):
        for k in ks:
            built = from_symmetric(sym, k)
            assert check_kfold(built).ok
    built = from_symmetric(bool_symmetric(), 2)
    cat = built.base
    for table in built.interchange_table.values():
        for m in table.values():
            assert m == cat.identity[cat.dom[m]]
    report(3, time.monotonic() - t0,
           "symmetric inputs replicate into passing k-fold structures; "
           "all meet-poset interchange components are identities")


# -- criterion 4: level-1 closure ---------------------------------------------------

def test_criterion_4_level1_closure():
    t0 = time.monotonic()
    bases = {0: bool_poset(2), 1: zmod2(3)}
    small = Bounds(max_objects=2)
    pairs = 0
    for seed in range(50):
        base = bases[seed % 2]
        a = random_instance("vcategory", seed, Bounds(), base=base)
        b = random_instance("vcategory", seed + 1000, Bounds(), base=base)
        for i in range(1, base.n):
            assert _scan_vcategory(product_vcat(i, a, b)).ok
        a2 = random_instance("vcategory", seed, small, base=base)
        b2 = random_instance("vcategory", seed + 1000, small, base=base)
        assert check_vfunctor(assoc_vcat(1, a2, b2, a2)).ok
        if base.n >= 3:
            assert check_vfunctor(interchange_vcat(1, 2, a2, b2, a2, b2)).ok
        unitv = unit_vcategory(base)
        right = relabel_vcategory(product_vcat(1, a, unitv),
                                  {pair(x, "0"): x for x in a.objects})
        assert right == a
        left = relabel_vcategory(product_vcat(1, unitv, a),
                                 {pair("0", x): x for x in a.objects})
        assert left == a
        pairs += 1
    elapsed = time.monotonic() - t0
    assert pairs >= 50
    assert elapsed < 60.0
    report(4, elapsed, f"{pairs} seeded pairs: products, associators, "
           "interchanges pass; strict-unit relabeling is bit-exact")


# -- criterion 5: level-2 closure and multi-route agreement --------------------------

def _cells_on(u):
    functors = _endo_v2functors(u)
    nats = []
    for t in functors:
        for s in functors:
            nats.extend(_nats_between(t, s))
    mods = []
    for a in nats:
        for b in nats:
            if a.source == b.source and a.target == b.target:
                mods.extend(_mods_between(a, b))
    return functors, nats, mods


def test_criterion_5_level2_closure_and_agreement():
    t0 = time.monotonic()
    w = join_monoid_v2cat(bool_poset(2))
    x2 = xor_group_v2cat(zmod2(3))
    randoms = [random_instance("v2category", seed, Bounds(max_hom=2))
               for seed in (1, 2)]
    instances = 0

    # Constructions pass their checkers.
    w3 = join_monoid_v2cat(bool_poset(3))
    for built in (product_v2cat(1, w3, w3),
                  product_v2cat(1, x2, x2),
                  product_v2cat(1, x2, unit_v2category(zmod2(3))),
                  unit_v2category(bool_poset(2)),
                  unit_v2category(zmod2(3))):
        assert check_v2category(built).ok
        instances += 1

    for u in [w, x2] + randoms:
        assert check_v2category(u).ok
        functors, nats, mods = _cells_on(u)
        for t in functors:
            assert check_v2functor(t).ok
            for s in functors:
                st = compose_v2functors(s, t)
                assert check_v2functor(st).ok
                instances += 1
        # Composition along a functor and whiskers onto nats.
        for g in functors:
            for a in nats:
                got = whisker_functor_nat(g, a)
                assert check_v2nat(got).ok
                got = whisker_nat_functor(a, g)
                assert check_v2nat(got).ok
                instances += 2
        # nu * mu across a shared functor: all three routes, table-exactly.
        for n in mods:
            for m in mods:
                if m.source.target != n.source.source:
                    continue
                got = hcomp_modifications_along_nat(n, m)
                way1 = vcomp_modifications(
                    whisker_nat_mod_left(n.target, m),
                    whisker_nat_mod_right(n, m.source))
                way2 = vcomp_modifications(
                    whisker_nat_mod_right(n, m.target),
                    whisker_nat_mod_left(n.source, m))
                assert got.components == way1.components == way2.components
                assert check_modification(got).ok
                instances += 1
        # gamma alpha across the category: both routes.
        for g in nats:
            for a in nats:
                if a.source.target != g.source.source:
                    continue
                got = hcomp_nats_along_category(g, a)
                way1 = compose_nat_along_functor(
                    whisker_nat_functor(g, a.target),
                    whisker_functor_nat(g.source, a))
                way2 = compose_nat_along_functor(
                    whisker_functor_nat(g.target, a),
                    whisker_nat_functor(g, a.source))
                assert way1 == way2 == got
                assert check_v2nat(got).ok
                instances += 1
        # rho mu and nu alpha: both routes.
        for r in nats:
            for m in mods:
                if m.source.source.target != r.source.source:
                    continue
                got = whisker_nat_mod_along_category(r, m)
                way1 = whisker_nat_mod_right(
                    whisker_functor_mod(r.target, m),
                    whisker_nat_functor(r, m.source.source))
                way2 = whisker_nat_mod_left(
                    whisker_nat_functor(r, m.source.target),
                    whisker_functor_mod(r.source, m))
                assert got.components == way1.components == way2.components
                assert check_modification(got).ok
                instances += 1
        for n in mods:
            for a in nats:
                if a.source.target != n.source.source.source:
                    continue
                got = whisker_mod_nat_along_category(n, a)
                way1 = whisker_nat_mod_right(
                    whisker_mod_functor(n, a.target),
                    whisker_functor_nat(n.source.source, a))
                way2 = whisker_nat_mod_left(
                    whisker_functor_nat(n.source.target, a),
                    whisker_mod_functor(n, a.source))
                assert got.components == way1.components == way2.components
                assert check_modification(got).ok
                instances += 1
        # nu mu across the category: both vertical factorizations.
        for n in mods:
            for m in mods:
                if m.source.source.target != n.source.source.source:
                    continue
                got = hcomp_mods_along_category(n, m)
                way1 = vcomp_modifications(
                    whisker_nat_mod_along_category(n.target, m),
                    whisker_mod_nat_along_category(n, m.source))
                way2 = vcomp_modifications(
                    whisker_mod_nat_along_category(n, m.target),
                    whisker_nat_mod_along_category(n.source, m))
                assert got.components == way1.components == way2.components
                assert check_modification(got).ok
                instances += 1
    elapsed = time.monotonic() - t0
    assert instances >= 50
    report(5, elapsed, f"{instances} level-2 instances: closure holds and "
           "every multi-route operation agrees table-exactly")


# -- criterion 6: exchange identities -------------------------------------------------

def test_criterion_6_exchange():
    import random
    t0 = time.monotonic()
    w = join_monoid_v2cat(bool_poset(2))
    x2 = xor_group_v2cat(zmod2(3))
    pastings = []
    for seed, u in ((21, w), (22, w), (23, x2), (24, x2)):
        pastings.append(_random_pasting(u, random.Random(seed)))
    for seed in (25, 26):
        u = random_instance("v2category", seed, Bounds(max_hom=2))
        pastings.append(_random_pasting(u, random.Random(seed)))
    for p in pastings:
        rep = exchange_suite(p)
        assert rep.ok
        assert set(rep.families) == {"exchange-1", "exchange-2",
                                     "exchange-3", "exchange-4"}
    report(6, time.monotonic() - t0,
           f"all four exchange identities hold on {len(pastings)} pastings, "
           "identifier-exactly")


# -- criterion 7: mutation sensitivity -------------------------------------------------

def _left_zero_tower():
    """Z/3 additive monoid as a one-object symmetric base."""
    objects = {"*"}
    morphisms = {"e", "g", "h"}
    dom = {m: "*" for m in morphisms}
    add = {("e", "e"): "e", ("e", "g"): "g", ("e", "h"): "h",
           ("g", "e"): "g", ("g", "g"): "h", ("g", "h"): "e",
           ("h", "e"): "h", ("h", "g"): "e", ("h", "h"): "g"}
    cat = FinCategory(objects, morphisms, dom, dict(dom), dict(add),
                      {"*": "e"})
    base = KFoldMonoidal(cat, 1, "*", {1: {("*", "*"): "*"}},
                         {1: dict(add)}, {1: {("*", "*", "*"): "e"}}, {})
    return Tower(base)


def _idem_tower():
    cat = idempotent_monoid_category()
    base = KFoldMonoidal(cat, 1, "*", {1: {("*", "*"): "*"}},
                         {1: dict(cat.comp)}, {1: {("*", "*", "*"): "e"}}, {})
    return Tower(base)


def _z2_loop_tower():
    """Z/2 as a one-object group: comp is xor, the tensor repeats it."""
    objects = {"*"}
    morphisms = {"e", "a"}
    dom = {"e": "*", "a": "*"}
    xor = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    cat = FinCategory(objects, morphisms, dom, dict(dom), dict(xor),
                      {"*": "e"})
    base = KFoldMonoidal(cat, 1, "*", {1: {("*", "*"): "*"}},
                         {1: dict(xor)}, {1: {("*", "*", "*"): "e"}}, {})
    return Tower(base)


def _mutate_rows(rows, key, value):
    hit = [row for row in rows if row[:-1] == list(key)]
    assert len(hit) == 1, f"expected one row for {key}"
    hit[0][-1] = value


def _drop_row(rows, key):
    hit = [row for row in rows if row[:-1] == list(key)]
    assert len(hit) == 1
    rows.remove(hit[0])


# Each entry: (name, document, json mutation, checker level + structure,
# exact expected failing families).  The expected sets are derived by hand:
# a family fails iff one of its legs reads the mutated table cell.
def _mutations(corpus):
    bool2_doc, zmod3_doc = corpus["bool2"], corpus["zmod3"]
    muts = []

    def base_mut(name, tower_doc, section, key, value, expected, drop=False):
        def apply(doc):
            rows = doc["base"][section] if section in ("comp",) \
                else doc["base"][section[0]][section[1]]
            if drop:
                _drop_row(rows, key)
            else:
                _mutate_rows(rows, key, value)
        muts.append((name, tower_doc, apply, ("base", None), expected))

    # fincat families: the base gate short-circuits, so the document-level
    # failing set equals the raw category check prefixed with "base:".
    muts.append(("fincat-unit-left", json.loads(dumps(_idem_tower())),
                 lambda d: _mutate_rows(d["base"]["comp"], ("e", "a"), "e"),
                 ("base", None), {"base:unit-left"}))
    muts.append(("fincat-unit-right", json.loads(dumps(_idem_tower())),
                 lambda d: _mutate_rows(d["base"]["comp"], ("a", "e"), "e"),
                 ("base", None), {"base:unit-right"}))
    muts.append(("fincat-associativity", json.loads(dumps(_left_zero_tower())),
                 lambda d: _mutate_rows(d["base"]["comp"], ("g", "g"), "g"),
                 ("base", None), {"base:associativity"}))
    muts.append(("fincat-composition-boundary", json.loads(json.dumps(bool2_doc)),
                 lambda d: _mutate_rows(d["base"]["comp"], ("u", "id_bot"),
                                        "id_bot"),
                 ("base", None),
                 {"base:composition-boundary", "base:unit-right",
                  "base:associativity"}))
    muts.append(("fincat-identity-boundary", json.loads(json.dumps(bool2_doc)),
                 lambda d: d["base"]["identity"].__setitem__("bot", "u"),
                 ("base", None),
                 {"base:identity-boundary", "base:unit-left",
                  "base:unit-right"}))
    # Dropping a composable entry must live in a base-only document: towers
    # with level-2 structures rebuild product categories at load time, which
    # legitimately refuses a non-total composition table (input error).
    muts.append(("fincat-composition-defined",
                 json.loads(dumps(Tower(bool_poset(2)))),
                 lambda d: _drop_row(d["base"]["comp"], ("u", "id_bot")),
                 ("base", None),
                 {"base:composition-defined", "base:unit-right",
                  "base:associativity"}))

    # kfold families.
    muts.append(("kfold-eta-units", json.loads(json.dumps(bool2_doc)),
                 lambda d: _mutate_rows(d["base"]["interchange"]["1,2"],
                                        ("top", "top", "top", "top"), "u"),
                 ("base", None),
                 {"eta-boundary[1,2]", "eta-internal-unit[1,2]",
                  "eta-external-unit[1,2]", "eta-naturality[1,2]",
                  "eta-internal-assoc[1,2]", "eta-external-assoc[1,2]"}))
    muts.append(("kfold-pentagon-and-c", json.loads(json.dumps(zmod3_doc)),
                 lambda d: _mutate_rows(d["base"]["assoc"]["1"],
                                        ("1", "1", "1"), "id0"),
                 ("base", None),
                 {"associator-boundary[1]", "associator-naturality[1]",
                  "pentagon[1]", "eta-internal-assoc[1,2]",
                  "eta-internal-assoc[1,3]"}))
    muts.append(("kfold-external-assoc-d", json.loads(json.dumps(zmod3_doc)),
                 lambda d: _mutate_rows(d["base"]["assoc"]["2"],
                                        ("1", "1", "1"), "id0"),
                 ("base", None),
                 {"associator-boundary[2]", "associator-naturality[2]",
                  "pentagon[2]", "eta-internal-assoc[2,3]",
                  "eta-external-assoc[1,2]"}))
    muts.append(("kfold-hexagon-e", json.loads(json.dumps(zmod3_doc)),
                 lambda d: _mutate_rows(d["base"]["interchange"]["2,3"],
                                        ("1", "1", "1", "1"), "id1"),
                 ("base", None),
                 {"eta-boundary[2,3]", "eta-naturality[2,3]",
                  "eta-internal-assoc[2,3]", "eta-external-assoc[2,3]",
                  "hexagon[1,2,3]"}))
    muts.append(("kfold-tensor-composition", json.loads(dumps(_z2_loop_tower())),
                 lambda d: _mutate_rows(d["base"]["comp"], ("a", "a"), "a"),
                 ("base", None), {"tensor-composition[1]"}))
    muts.append(("kfold-tensor-morphism", json.loads(json.dumps(zmod3_doc)),
                 lambda d: _mutate_rows(d["base"]["tensor_mor"]["1"],
                                        ("id0", "id1"), "id0"),
                 ("base", None),
                 {"tensor-boundary[1]", "tensor-identity[1]",
                  "unit-strict-morphism[1]", "associator-naturality[1]",
                  "pentagon[1]", "eta-naturality[1,2]", "eta-naturality[1,3]",
                  "eta-internal-assoc[1,2]", "eta-internal-assoc[1,3]",
                  "eta-external-assoc[1,2]", "eta-external-assoc[1,3]",
                  "hexagon[1,2,3]"}))
    muts.append(("kfold-unit-strict-object", json.loads(json.dumps(zmod3_doc)),
                 lambda d: _mutate_rows(d["base"]["tensor_obj"]["2"],
                                        ("1", "0"), "0"),
                 ("base", None),
                 {"unit-strict-object[2]", "tensor-identity[2]",
                  "tensor-boundary[2]", "associator-boundary[2]",
                  "pentagon[2]", "eta-boundary[1,2]", "eta-boundary[2,3]",
                  "eta-internal-unit[1,2]", "eta-external-unit[2,3]",
                  "eta-internal-assoc[1,2]", "eta-internal-assoc[2,3]",
                  "eta-external-assoc[1,2]", "eta-external-assoc[2,3]",
                  "hexagon[1,2,3]"}))

    # vcat families.
    muts.append(("vcat-composition-boundary", json.loads(json.dumps(zmod3_doc)),
                 lambda d: _mutate_rows(d["vcategories"]["D"]["hom"],
                                        ("x", "y"), "0"),
                 ("vcategory", "D"),
                 {"composition-boundary", "unit-left", "unit-right",
                  "pentagon"}))
    muts.append(("vcat-identity-boundary", json.loads(json.dumps(zmod3_doc)),
                 lambda d: d["vcategories"]["D"]["identity"].__setitem__(
                     "x", "id1"),
                 ("vcategory", "D"),
                 {"identity-boundary", "unit-left", "unit-right"}))
    muts.append(("vcat-pentagon", json.loads(json.dumps(bool2_doc)),
                 lambda d: _mutate_rows(d["vcategories"]["P"]["comp"],
                                        ("a", "a", "b"), "id_bot"),
                 ("vcategory", "P"),
                 {"composition-boundary", "pentagon", "unit-right"}))
    muts.append(("vcat-functor-axioms", json.loads(json.dumps(bool2_doc)),
                 lambda d: _mutate_rows(d["vfunctors"]["collapse_P"]["hom_map"],
                                        ("b", "b"), "u"),
                 ("vfunctor", "collapse_P"),
                 {"functor-boundary", "functor-composition",
                  "functor-identity"}))
    muts.append(("vcat-naturality", json.loads(json.dumps(bool2_doc)),
                 lambda d: d["vnats"]["collapse_to_id"]["components"]
                 .__setitem__("b", "u"),
                 ("vnat", "collapse_to_id"),
                 {"component-boundary", "naturality"}))

    # v2cat families.
    def redirect_j(doc):
        rows = doc["v2categories"]["W"]["identity"]
        assert len(rows) == 1
        rows[0][1]["obj_map"]["0"] = "t"
    muts.append(("v2cat-unit-triangles", json.loads(json.dumps(bool2_doc)),
                 redirect_j, ("v2category", "W"),
                 {"unit-left", "unit-right"}))
    muts.append(("v2cat-modification-boundary", json.loads(json.dumps(bool2_doc)),
                 lambda d: d["modifications"]["rise"]["components"]
                 .__setitem__("*", "u"),
                 ("modification", "rise"), {"component-boundary"}))
    return muts


CHECKERS = {
    "base": check_kfold,
    "vcategory": check_vcategory,
    "vfunctor": check_vfunctor,
    "vnat": check_vnat,
    "v2category": check_v2category,
    "modification": check_modification,
}


def test_criterion_7_mutation_sensitivity(tmp_path, capsys):
    t0 = time.monotonic()
    corpus_dir = tmp_path / "corpus"
    assert main(["corpus", str(corpus_dir)]) == 0
    capsys.readouterr()
    corpus = {name: json.loads((corpus_dir / f"{name}.json").read_text())
              for name in ("bool2", "zmod3")}
    muts = _mutations(corpus)
    assert len(muts) == 20
    for name, doc, apply, (level, structure), expected in muts:
        pristine = json.loads(json.dumps(doc))
        apply(doc)
        assert doc != pristine, name
        # Library-level: the failing family set is exactly the documented one.
        tower = load_doc(doc)
        target = tower.base if structure is None else \
            getattr(tower, _SECTION[level])[structure]
        if level == "base":
            rep = check_kfold(target, all_witnesses=True)
        else:
            rep = CHECKERS[level](target, all_witnesses=True)
        assert rep.failing_families() == expected, \
            f"{name}: {sorted(rep.failing_families())} != {sorted(expected)}"
        assert rep.witnesses, name
        # Pristine document passes; mutated exits 1 through the CLI.
        good = tmp_path / f"{name}.good.json"
        bad = tmp_path / f"{name}.bad.json"
        good.write_text(json.dumps(pristine))
        bad.write_text(json.dumps(doc))
        assert main(["check", str(good)]) == 0, name
        capsys.readouterr()
        assert main(["check", str(bad)]) == 1, name
        capsys.readouterr()
    report(7, time.monotonic() - t0,
           "20 single-entry mutations each fail exactly their documented "
           "diagram families, exit code 1")


_SECTION = {"vcategory": "vcategories", "vfunctor": "vfunctors",
            "vnat": "vnats", "v2category": "v2categories",
            "modification": "modifications"}


def load_doc(doc):
    from enrichkit.serialize import document_to_tower
    return document_to_tower(json.loads(json.dumps(doc)))


# -- criterion 8: identity laws ---------------------------------------------------------

def test_criterion_8_identity_laws():
    t0 = time.monotonic()
    count = 0
    for u in (join_monoid_v2cat(bool_poset(2)), xor_group_v2cat(zmod2(3))):
        functors, nats, mods = _cells_on(u)
        for t in functors:
            one = id_nat(t)
            for x in sorted(t.source.objects):
                assert one.components[x] == t.target.identity[t.obj_map[x]]
        for a in nats:
            assert compose_nat_along_functor(id_nat(a.target), a) == a
            assert compose_nat_along_functor(a, id_nat(a.source)) == a
            count += 2
        for m in mods:
            assert vcomp_modifications(id_modification(m.target), m) == m
            assert vcomp_modifications(m, id_modification(m.source)) == m
            count += 2
        triple_unit = id_modification(id_nat(identity_v2functor(u)))
        for x in sorted(u.objects):
            assert triple_unit.components[x] \
                == u.hom[(x, x)].identity[u.unit1(x)]
        for m in mods:
            assert hcomp_mods_along_category(triple_unit, m) == m
            assert hcomp_mods_along_category(m, triple_unit) == m
            count += 2
    report(8, time.monotonic() - t0,
           f"{count} identity-absorption instances hold, with the stated "
           "component formulas")


# -- criterion 9: CLI contract ------------------------------------------------------------

def test_criterion_9_cli_contract(tmp_path, capsys):
    t0 = time.monotonic()
    corpus_dir = tmp_path / "shipped"
    assert main(["corpus", str(corpus_dir)]) == 0
    capsys.readouterr()
    for name in ("bool2", "bool3", "zmod3"):
        path = corpus_dir / f"{name}.json"
        original = path.read_text()
        assert dumps(load(path)) == original  # byte-stable round trip
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
    # Exit-code golden tests: 1 for an axiom failure, 2 for input errors.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    for row in doc["base"]["assoc"]["1"]:
        if row[:3] == ["top", "top", "top"]:
            row[3] = "u"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated)]) == 1
    out = capsys.readouterr().out
    assert "pentagon" in out
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{]")
    assert main(["check", str(garbage)]) == 2
    capsys.readouterr()
    dangling = json.loads((corpus_dir / "bool2.json").read_text())
    dangling["vfunctors"]["bad"] = {"source": "P", "target": "GONE",
                                    "obj_map": {}, "hom_map": []}
    bad = tmp_path / "dangling.json"
    bad.write_text(json.dumps(dangling))
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()
    report(9, time.monotonic() - t0,
           "round trips are byte-stable; exit codes 0/1/2 hold on golden cases")
