"""Known answers for every command the benchmark runs.

Nothing here asks enrichkit for the expected value.  The answers are
closed-form instance counts, the hand-derived failing-family sets of the
documented single-entry mutations, and structural facts read off the input
documents.  Each ``expect_*`` function returns a verifier
``(code, stdout, stderr) -> list of problems``; an empty list means the
command gave the known answer.
"""
from __future__ import annotations

import json
import os
import re
from itertools import product

# -- closed-form counts for a base replicated from a discrete group ---------
#
# On Z/n as a discrete category there are n objects, n morphisms (the
# identities) and n composable pairs, so every k-fold family scans
# (objects or morphisms)^arity instances.  Arity by family, from the
# family definitions in kfold.check_kfold's docstring:
PER_TENSOR_ARITY = {
    "tensor-identity": 2, "tensor-boundary": 2, "tensor-composition": 2,
    "unit-strict-object": 1, "unit-strict-morphism": 1,
    "associator-boundary": 3, "associator-naturality": 3, "pentagon": 4,
}
PER_PAIR_ARITY = {
    "eta-boundary": 4, "eta-internal-unit": 2, "eta-external-unit": 2,
    "eta-naturality": 4, "eta-internal-assoc": 6, "eta-external-assoc": 6,
}
PER_TRIPLE_ARITY = {"hexagon": 8}


def zn_family_counts(n: int, k: int) -> dict:
    """Family -> instances checked for from_symmetric(Z/n, k)."""
    out = {}
    for i in range(1, k + 1):
        for fam, arity in PER_TENSOR_ARITY.items():
            out[f"{fam}[{i}]"] = n ** arity
    for i, j in ((i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)):
        for fam, arity in PER_PAIR_ARITY.items():
            out[f"{fam}[{i},{j}]"] = n ** arity
    if k < 3:
        out["hexagon"] = 0
    for i, j, l in ((i, j, l) for i in range(1, k + 1)
                    for j in range(i + 1, k + 1) for l in range(j + 1, k + 1)):
        out[f"hexagon[{i},{j},{l}]"] = n ** PER_TRIPLE_ARITY["hexagon"]
    return out


def vfunctor_family_counts(objects: int) -> dict:
    """A functor on an n-object source scans n^2, n^3 and n instances."""
    return {"functor-boundary": objects ** 2,
            "functor-composition": objects ** 3,
            "functor-identity": objects}


# -- the 20 documented single-entry mutations -------------------------------
#
# (name, source document, edit, structure label, failing families).  An
# edit is ("row", path, key, value): replace the last cell of the one row
# whose leading cells equal key; ("drop", path, key): delete that row; or
# ("set", path, key, value): container[key] = value.  A family fails iff
# one of its legs reads the mutated cell; the sets were derived by hand.
MUTATIONS = (
    ("fincat-unit-left", "idem", ("row", ("base", "comp"), ("e", "a"), "e"),
     "base", {"base:unit-left"}),
    ("fincat-unit-right", "idem", ("row", ("base", "comp"), ("a", "e"), "e"),
     "base", {"base:unit-right"}),
    ("fincat-associativity", "left_zero",
     ("row", ("base", "comp"), ("g", "g"), "g"),
     "base", {"base:associativity"}),
    ("fincat-composition-boundary", "bool2",
     ("row", ("base", "comp"), ("u", "id_bot"), "id_bot"),
     "base", {"base:composition-boundary", "base:unit-right",
              "base:associativity"}),
    ("fincat-identity-boundary", "bool2",
     ("set", ("base", "identity"), "bot", "u"),
     "base", {"base:identity-boundary", "base:unit-left", "base:unit-right"}),
    ("fincat-composition-defined", "bool2_base",
     ("drop", ("base", "comp"), ("u", "id_bot")),
     "base", {"base:composition-defined", "base:unit-right",
              "base:associativity"}),
    ("kfold-eta-units", "bool2",
     ("row", ("base", "interchange", "1,2"), ("top", "top", "top", "top"), "u"),
     "base", {"eta-boundary[1,2]", "eta-internal-unit[1,2]",
              "eta-external-unit[1,2]", "eta-naturality[1,2]",
              "eta-internal-assoc[1,2]", "eta-external-assoc[1,2]"}),
    ("kfold-pentagon-and-c", "zmod3",
     ("row", ("base", "assoc", "1"), ("1", "1", "1"), "id0"),
     "base", {"associator-boundary[1]", "associator-naturality[1]",
              "pentagon[1]", "eta-internal-assoc[1,2]",
              "eta-internal-assoc[1,3]"}),
    ("kfold-external-assoc-d", "zmod3",
     ("row", ("base", "assoc", "2"), ("1", "1", "1"), "id0"),
     "base", {"associator-boundary[2]", "associator-naturality[2]",
              "pentagon[2]", "eta-internal-assoc[2,3]",
              "eta-external-assoc[1,2]"}),
    ("kfold-hexagon-e", "zmod3",
     ("row", ("base", "interchange", "2,3"), ("1", "1", "1", "1"), "id1"),
     "base", {"eta-boundary[2,3]", "eta-naturality[2,3]",
              "eta-internal-assoc[2,3]", "eta-external-assoc[2,3]",
              "hexagon[1,2,3]"}),
    ("kfold-tensor-composition", "z2_loop",
     ("row", ("base", "comp"), ("a", "a"), "a"),
     "base", {"tensor-composition[1]"}),
    ("kfold-tensor-morphism", "zmod3",
     ("row", ("base", "tensor_mor", "1"), ("id0", "id1"), "id0"),
     "base", {"tensor-boundary[1]", "tensor-identity[1]",
              "unit-strict-morphism[1]", "associator-naturality[1]",
              "pentagon[1]", "eta-naturality[1,2]", "eta-naturality[1,3]",
              "eta-internal-assoc[1,2]", "eta-internal-assoc[1,3]",
              "eta-external-assoc[1,2]", "eta-external-assoc[1,3]",
              "hexagon[1,2,3]"}),
    ("kfold-unit-strict-object", "zmod3",
     ("row", ("base", "tensor_obj", "2"), ("1", "0"), "0"),
     "base", {"unit-strict-object[2]", "tensor-identity[2]",
              "tensor-boundary[2]", "associator-boundary[2]",
              "pentagon[2]", "eta-boundary[1,2]", "eta-boundary[2,3]",
              "eta-internal-unit[1,2]", "eta-external-unit[2,3]",
              "eta-internal-assoc[1,2]", "eta-internal-assoc[2,3]",
              "eta-external-assoc[1,2]", "eta-external-assoc[2,3]",
              "hexagon[1,2,3]"}),
    ("vcat-composition-boundary", "zmod3",
     ("row", ("vcategories", "D", "hom"), ("x", "y"), "0"),
     "vcategory:D", {"composition-boundary", "unit-left", "unit-right",
                     "pentagon"}),
    ("vcat-identity-boundary", "zmod3",
     ("set", ("vcategories", "D", "identity"), "x", "id1"),
     "vcategory:D", {"identity-boundary", "unit-left", "unit-right"}),
    ("vcat-pentagon", "bool2",
     ("row", ("vcategories", "P", "comp"), ("a", "a", "b"), "id_bot"),
     "vcategory:P", {"composition-boundary", "pentagon", "unit-right"}),
    ("vcat-functor-axioms", "bool2",
     ("row", ("vfunctors", "collapse_P", "hom_map"), ("b", "b"), "u"),
     "vfunctor:collapse_P", {"functor-boundary", "functor-composition",
                             "functor-identity"}),
    ("vcat-naturality", "bool2",
     ("set", ("vnats", "collapse_to_id", "components"), "b", "u"),
     "vnat:collapse_to_id", {"component-boundary", "naturality"}),
    ("v2cat-unit-triangles", "bool2",
     ("set", ("v2categories", "W", "identity", 0, 1, "obj_map"), "0", "t"),
     "v2category:W", {"unit-left", "unit-right"}),
    ("v2cat-modification-boundary", "bool2",
     ("set", ("modifications", "rise", "components"), "*", "u"),
     "modification:rise", {"component-boundary"}),
)


def apply_edit(doc: dict, edit) -> None:
    """Apply one mutation edit to a parsed document in place."""
    kind, path, key = edit[0], edit[1], edit[2]
    node = doc
    for step in path:
        node = node[step]
    if kind == "set":
        if key not in node:
            raise KeyError(f"no entry {key!r} at {path}")
        node[key] = edit[3]
        return
    hits = [row for row in node if row[:-1] == list(key)]
    if len(hits) != 1:
        raise KeyError(f"expected one row {key} at {path}, found {len(hits)}")
    if kind == "row":
        hits[0][-1] = edit[3]
    elif kind == "drop":
        node.remove(hits[0])
    else:
        raise ValueError(f"unknown edit kind {kind!r}")


# -- parsing the two report formats -----------------------------------------

_HUMAN = re.compile(
    r"^\[(?P<structure>[^\]]+)\] (?P<family>.+?): "
    r"(?:pass \((?P<count>\d+) instances\)|(?P<vacuous>vacuous)|FAIL at .*)$")


def parse_families(stdout: str, machine: bool) -> dict:
    """(structure, family) -> (status, checked or None) for every record."""
    out = {}
    for line in stdout.splitlines():
        if machine:
            rec = json.loads(line)
            if rec.get("kind") == "family":
                out[(rec["structure"], rec["family"])] = (rec["status"],
                                                          rec["checked"])
            continue
        m = _HUMAN.match(line)
        if m is None:
            continue
        if m["count"] is not None:
            out[(m["structure"], m["family"])] = ("pass", int(m["count"]))
        elif m["vacuous"]:
            out[(m["structure"], m["family"])] = ("vacuous", 0)
        else:
            out[(m["structure"], m["family"])] = ("fail", None)
    return out


def instances_checked(stdout: str, machine: bool) -> int:
    """Sum of instance counts over every family record a command printed."""
    return sum(count or 0 for _, count in
               parse_families(stdout, machine).values())


# Document section -> structure label prefix, in `check`'s walk order.
SECTIONS = (("vcategories", "vcategory"), ("vfunctors", "vfunctor"),
            ("vnats", "vnat"), ("v2categories", "v2category"),
            ("v2functors", "v2functor"), ("v2nats", "v2nat"),
            ("modifications", "modification"), ("pastings", "pasting"))


def structure_labels(doc: dict) -> set:
    """Labels `check` must report for a document, read off its sections."""
    labels = {"base"}
    for section, prefix in SECTIONS:
        labels |= {f"{prefix}:{name}" for name in doc.get(section, {})}
    return labels


def _common(code, stdout, stderr, want_code):
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


# -- verifiers ----------------------------------------------------------------

def expect_zn_check(n: int, k: int, machine: bool):
    want = {("base", fam): count for fam, count in zn_family_counts(n, k).items()}

    def verify(code, stdout, stderr):
        problems = _common(code, stdout, stderr, 0)
        got = parse_families(stdout, machine)
        counts = {key: count for key, (_, count) in got.items()}
        if counts != want:
            wrong = sorted(set(counts.items()) ^ set(want.items()))[:4]
            problems.append(f"Z/{n} k={k} family counts differ: {wrong}")
        if any(status == "fail" for status, _ in got.values()):
            problems.append("a family failed on a valid base")
        return problems
    return verify


def expect_pristine(doc: dict, fuzz: int = 0):
    """Exit 0, and every structure of the document reported, none failing."""
    labels = structure_labels(doc)

    def verify(code, stdout, stderr):
        problems = _common(code, stdout, stderr, 0)
        got = parse_families(stdout, False)
        seen = {structure for structure, _ in got
                if not structure.startswith("fuzz[")}
        if seen != labels:
            problems.append(f"reported structures differ: "
                            f"{sorted(seen ^ labels)[:4]}")
        if any(status == "fail" for status, _ in got.values()):
            problems.append("a family failed on a pristine document")
        if fuzz and f"[fuzz] note: generated {fuzz} instance pairs" \
                not in stdout:
            problems.append("fuzz did not generate every instance pair")
        return problems
    return verify


def expect_mutation(label: str, families: set):
    def verify(code, stdout, stderr):
        problems = _common(code, stdout, stderr, 1)
        got = {fam for (structure, fam), (status, _) in
               parse_families(stdout, True).items()
               if structure == label and status == "fail"}
        if got != families:
            problems.append(f"{label} failing families {sorted(got)} != "
                            f"{sorted(families)}")
        return problems
    return verify


def expect_vfunctor_check(sizes: dict):
    """check --level vfunctor: closed-form counts for every named functor.

    ``sizes`` maps each functor of the document to its source's object count.
    """
    want = {}
    for name, objects in sizes.items():
        for fam, count in vfunctor_family_counts(objects).items():
            want[(f"vfunctor:{name}", fam)] = count
    labels = {f"vfunctor:{name}" for name in sizes}

    def verify(code, stdout, stderr):
        problems = _common(code, stdout, stderr, 0)
        got = parse_families(stdout, True)
        counts = {key: count for key, (_, count) in got.items()}
        if counts != want:
            wrong = sorted(set(counts.items()) ^ set(want.items()))[:4]
            problems.append(f"vfunctor counts differ: {wrong}")
        if {structure for structure, _ in got} != labels:
            problems.append("reported functors differ from the document")
        return problems
    return verify


def expect_fuzz(level: str, seed: int, count: int):
    want = [f"fuzz[{k}] {level} seed={seed + k}: pass" for k in range(count)]

    def verify(code, stdout, stderr):
        problems = _common(code, stdout, stderr, 0)
        if stdout.splitlines() != want:
            problems.append(f"fuzz output {stdout.splitlines()[:2]} != {want[:2]}")
        return problems
    return verify


def expect_construct(workdir: str, out: str, construction: str, check_output):
    """Exit 0, the documented `wrote` line, and a structurally right result."""
    line = f"wrote {out} ({construction} -> result)"

    def verify(code, stdout, stderr):
        problems = _common(code, stdout, stderr, 0)
        if stdout.strip() != line:
            problems.append(f"construct printed {stdout.strip()[:80]!r}")
            return problems
        try:
            with open(os.path.join(workdir, out), encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as err:
            return problems + [f"unreadable output document: {err}"]
        return problems + check_output(doc)
    return verify


# -- structural facts about construction results ----------------------------

def _pair(a: str, b: str) -> str:
    return f"({a},{b})"


def assoc_result_problems(objects):
    """assoc-vcat on A x A x A sends ((a,b),c) to (a,(b,c)), all n^3 of them."""
    want = {_pair(_pair(a, b), c): _pair(a, _pair(b, c))
            for a, b, c in product(sorted(objects), repeat=3)}

    def check(doc):
        got = doc.get("vfunctors", {}).get("result", {}).get("obj_map")
        return [] if got == want else ["assoc-vcat object map is wrong"]
    return check


def product_v2cat_problems(u_doc: dict, w_doc: dict):
    """The product of two level-2 categories pairs objects and hom objects."""
    def hom_objects(vdoc, a, b):
        for row in vdoc["hom"]:
            if row[0] == a and row[1] == b:
                return row[2]["objects"]
        raise KeyError((a, b))

    want_objects = sorted(_pair(x, y) for x in u_doc["objects"]
                          for y in w_doc["objects"])
    want_homs = {}
    for (a1, a2), (b1, b2) in product(product(u_doc["objects"],
                                              w_doc["objects"]), repeat=2):
        want_homs[(_pair(a1, a2), _pair(b1, b2))] = sorted(
            _pair(p, q) for p in hom_objects(u_doc, a1, b1)
            for q in hom_objects(w_doc, a2, b2))

    def check(doc):
        got = doc.get("v2categories", {}).get("result")
        if got is None:
            return ["no v2category named result"]
        problems = []
        if sorted(got["objects"]) != want_objects:
            problems.append("product objects are wrong")
        homs = {(row[0], row[1]): sorted(row[2]["objects"]) for row in got["hom"]}
        if homs != want_homs:
            problems.append("product hom objects are wrong")
        return problems
    return check


def modification_result_problems(v2cat_objects):
    """A composite modification has one component per object of its 2-category."""
    def check(doc):
        got = doc.get("modifications", {}).get("result")
        if got is None:
            return ["no modification named result"]
        if sorted(got.get("components", {})) != sorted(v2cat_objects):
            return ["composite modification has the wrong components"]
        return []
    return check
