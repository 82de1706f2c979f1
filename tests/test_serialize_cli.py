import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichkit import cli
from enrichkit.cli import CONSTRUCTIONS, main
from enrichkit.errors import DanglingReference, ParseError
from enrichkit.instances import Bounds, bool_poset, random_instance
from enrichkit.serialize import (LEVELS, Tower, _resolve, dumps, load, loads,
                                 tower_to_document)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", str(out)]) == 0
    return out


def test_round_trip_byte_stability(corpus_dir, p3cubed, tmp_path):
    # The corpus, and constructed documents beside it: a level-2 product,
    # an associator on reference frames and a modification on its frames.
    paths = [corpus_dir / f"{name}.json"
             for name in ("bool2", "bool3", "zmod3")]
    for document, construction, inputs in (
            ("bool3", "product-v2cat", ["W3", "W3"]),
            ("bool2", "hcomp-mods-category", ["stay", "rise"])):
        out = tmp_path / f"{construction}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["construct", str(corpus_dir / f"{document}.json"),
                         construction, "--inputs", *inputs,
                         "--out", str(out)]) == 0
        paths.append(out)
    for path in paths + [p3cubed]:
        assert dumps(load(path)) == path.read_text()


@settings(max_examples=20)
@given(base=st.sampled_from(["bool2", "zmod3"]), seed=st.integers(0, 1000))
def test_filed_random_instances_round_trip(bool2, zmod3, base, seed):
    # One random structure at every level, each from its own seed, filed
    # with its frame into one tower: every section's codec, the pasting's
    # three slot groups included, writes what it reads.
    tower = Tower({"bool2": bool2, "zmod3": zmod3}[base])
    for k, level in enumerate(list(LEVELS)[1:]):
        structure = random_instance(level, seed + k, Bounds(2, 2),
                                    base=tower.base)
        cli._file(tower, level, structure, level)
    text = dumps(tower)
    assert dumps(loads(text)) == text


def test_load_shares_one_string_per_id(corpus_dir):
    # Every occurrence of an id is one string object, so the checkers'
    # tuple-keyed lookups compare ids by identity.
    tower = load(corpus_dir / "bool2.json")
    vc = tower.vcategories["P3"]
    objects = {a: a for a in vc.objects}
    assert all(a is objects[a] for key in vc.comp for a in key)
    morphisms = {m: m for m in tower.base.base.morphisms}
    assert all(m is morphisms[m] for m in vc.comp.values())


def test_equal_index_tables_are_parsed_once_and_loaded_apart(corpus_dir,
                                                             monkeypatch):
    # zmod3 repeats one tensor at every index; with index 2's tensor and
    # interchange (2,3) edited, each distinct row list is parsed once, and
    # every index still gets a table of its own with its own rows.
    from enrichkit import serialize
    doc = json.loads((corpus_dir / "zmod3.json").read_text())
    base = doc["base"]
    for section, key, ids in (("tensor_obj", "2", base["objects"]),
                              ("interchange", "2,3", base["morphisms"])):
        row = base[section][key][-1]
        row[-1] = next(x for x in ids if x != row[-1])
    parsed, table = [], serialize._table

    def spy(rows, arity, what):
        parsed.append(what)
        return table(rows, arity, what)
    monkeypatch.setattr(serialize, "_table", spy)
    v = loads(json.dumps(doc)).base
    assert [what for what in parsed
            if what.startswith("base.") and what.count(".") == 2] == [
        "base.tensor_obj.1", "base.tensor_obj.2", "base.tensor_mor.1",
        "base.assoc.1", "base.interchange.1,2", "base.interchange.2,3"]
    for section, tables in (("tensor_obj", v.tensor_obj_table),
                            ("interchange", v.interchange_table)):
        for key, rows in base[section].items():
            index = tuple(map(int, key.split(",")))
            got = tables[index if len(index) > 1 else index[0]]
            assert got == {tuple(row[:-1]): row[-1] for row in rows}
    assert v.tensor_obj_table[3] == v.tensor_obj_table[1]
    assert v.tensor_obj_table[3] is not v.tensor_obj_table[1]
    assert v.interchange_table[(1, 3)] is not v.interchange_table[(1, 2)]
    assert v.tensor_obj_table[2] != v.tensor_obj_table[1]
    # An unknown id in a table unlike the earlier ones is still found.
    base["interchange"]["2,3"][-1][-1] = "ghost"
    with pytest.raises(DanglingReference, match="interchange row"):
        loads(json.dumps(doc))


@pytest.fixture(scope="module")
def p3cubed(corpus_dir):
    """The associator of P3 x P3 x P3, constructed and saved."""
    out = corpus_dir / "p3cubed.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", str(corpus_dir / "bool2.json"),
                     "assoc-vcat", "--index", "1", "--inputs", "P3", "P3",
                     "P3", "--out", str(out)]) == 0
    return out


def test_writer_matches_json_dumps(corpus_dir, p3cubed):
    for path in [corpus_dir / f"{name}.json"
                 for name in ("bool2", "bool3", "zmod3")] + [p3cubed]:
        tower = load(path)
        expected = json.dumps(tower_to_document(tower), sort_keys=True,
                              indent=2) + "\n"
        assert dumps(tower) == expected == path.read_text()


def test_loaded_associator_frames_are_not_scanned(p3cubed, capsys,
                                                  monkeypatch):
    # Both 27-object frames are saved as references to P3, rebuilt on load
    # and certified from it; only the factors are scanned.
    from enrichkit import vcat
    scanned, scan = [], vcat._scan_vcategory

    def spy(vc, all_witnesses=False):
        scanned.append(len(vc.objects))
        return scan(vc, all_witnesses)
    monkeypatch.setattr(vcat, "_scan_vcategory", spy)
    assert main(["check", str(p3cubed), "--machine", "--level",
                 "vfunctor"]) == 0
    assert '"checked": 19683' in capsys.readouterr().out
    assert sorted(scanned) == [2, 3]


def test_empty_document_is_parse_error():
    with pytest.raises(ParseError):
        loads("")
    with pytest.raises(ParseError):
        loads("{}")


def test_dangling_reference(corpus_dir):
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    doc["vfunctors"]["bad"] = {"source": "P", "target": "NOWHERE",
                               "obj_map": {}, "hom_map": []}
    with pytest.raises(DanglingReference):
        loads(json.dumps(doc))


def test_unknown_base_id_is_dangling(corpus_dir):
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    doc["vcategories"]["P"]["hom"][0][2] = "ghost"
    with pytest.raises(DanglingReference):
        loads(json.dumps(doc))


def test_check_exit_codes(corpus_dir, tmp_path, capsys):
    assert main(["check", str(corpus_dir / "bool2.json")]) == 0
    capsys.readouterr()
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert main(["check", str(garbage)]) == 2
    capsys.readouterr()


def test_mutated_pentagon_exits_one(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    for row in doc["base"]["assoc"]["1"]:
        if row[:3] == ["top", "top", "top"]:
            row[3] = "u"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated), "--level", "base"]) == 1
    out = capsys.readouterr().out
    assert "pentagon" in out and "FAIL" in out


def test_machine_format(corpus_dir, capsys):
    assert main(["check", str(corpus_dir / "zmod3.json"), "--machine"]) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["kind"] in ("family", "note", "warning") for r in records)
    hexagons = [r for r in records if r["family"].startswith("hexagon")]
    assert hexagons and hexagons[0]["status"] == "pass"


def test_modification_square_checks_one_row_per_object_pair(corpus_dir,
                                                           capsys):
    # Naturality one dimension up: a row per (x, y) of the n-object U, not
    # per (x, y, f, g), so W's rise and stay check 1 row, not 4.
    path = corpus_dir / "bool2.json"
    assert main(["check", str(path), "--machine", "--level",
                 "modification"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    squares = {r["structure"]: r["checked"] for r in records
               if r["family"] == "modification-square"}
    tower = load(path)
    names = {f"modification:{name}": m for name, m in tower.modifications.items()}
    for pasting, p in tower.pastings.items():
        names.update((f"modification:{pasting}.{slot}", getattr(p, slot))
                     for slot in (f"{kind}{col}" for col in range(1, 5)
                                  for kind in ("mu", "nu")))
    assert {"modification:rise", "modification:stay"} <= squares.keys()
    for name, checked in squares.items():
        assert checked == len(names[name].source.source.source.objects) ** 2
    assert squares["modification:rise"] == squares["modification:stay"] == 1


def test_vacuous_hexagon_reported(corpus_dir, capsys):
    # Two tensors: the hexagonal condition has no instances and says so.
    assert main(["check", str(corpus_dir / "bool2.json"), "--machine",
                 "--level", "base"]) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    hexagons = [r for r in records if r["family"] == "hexagon"]
    assert hexagons and hexagons[0]["status"] == "vacuous"
    assert hexagons[0]["checked"] == 0


def test_all_witnesses_flag(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    for row in doc["base"]["interchange"]["1,2"]:
        if row[:4] == ["top", "top", "top", "top"]:
            row[4] = "u"
    mutated = tmp_path / "eta.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated), "--level", "base"]) == 1
    brief = capsys.readouterr().out
    assert main(["check", str(mutated), "--level", "base",
                 "--all-witnesses"]) == 1
    full = capsys.readouterr().out
    # Same failing families either way; the flag only widens the scan, and
    # the first witness per family is identical.
    assert brief.count("FAIL") == full.count("FAIL")
    first_brief = [l for l in brief.splitlines() if "FAIL" in l][0]
    first_full = [l for l in full.splitlines() if "FAIL" in l][0]
    assert first_brief == first_full


def test_reports_deterministic(corpus_dir, capsys):
    main(["check", str(corpus_dir / "bool2.json")])
    first = capsys.readouterr().out
    main(["check", str(corpus_dir / "bool2.json")])
    second = capsys.readouterr().out
    assert first == second
    with pytest.raises(SystemExit) as exc:
        main(["check", str(corpus_dir / "bool2.json"), "--workers", "4"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_negative_counts_exit_two(corpus_dir, capsys):
    for argv, flag in (
            (["check", str(corpus_dir / "bool2.json"), "--fuzz", "-1"],
             "--fuzz"),
            (["fuzz", "--level", "vcategory", "--count", "-3"], "--count")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument " + flag in captured.err


def test_workers_environment_variable_is_not_read(corpus_dir, monkeypatch,
                                                  capsys):
    # A non-integer value once crashed every subcommand while the argument
    # parser was being built.
    monkeypatch.setenv("ENRICHKIT_WORKERS", "abc")
    assert main(["check", str(corpus_dir / "bool2.json")]) == 0
    assert main(["fuzz", "--level", "vcategory"]) == 0


def test_single_id_witness_is_a_one_tuple(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    doc["base"]["identity"]["bot"] = "u"
    mutated = tmp_path / "identity.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated), "--level", "base"]) == 1
    out = capsys.readouterr().out
    assert "base:identity-boundary: FAIL at ('bot',) lhs=top rhs=bot" in out
    assert main(["check", str(mutated), "--level", "base", "--machine"]) == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    witness, = [r["witness"] for r in records
                if r["family"] == "base:identity-boundary"]
    assert witness["instance"] == ["bot"]


def test_closed_pipe_ends_without_traceback(corpus_dir):
    # The reader is gone before check writes its first line.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "enrichkit.cli", "check",
             str(corpus_dir / "bool2.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 128 + signal.SIGPIPE
    assert proc.stderr == b""


PREORDER_ERROR = """
from enrichkit.errors import NotPreorder
from enrichkit.instances import bool_poset, preorder_vcat
try:
    preorder_vcat(bool_poset(2), "abc", {("a", "a"), ("b", "b"), ("c", "c"),
                                         ("a", "b"), ("b", "c"), ("c", "a")})
except NotPreorder as err:
    print(err)
"""


def test_malformed_input_errors_do_not_depend_on_the_hash_seed(corpus_dir,
                                                               tmp_path):
    # Each document leaves out two table entries, so the error names
    # whichever the checker meets first.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    rows = doc["base"]["tensor_obj"]["1"]
    rows[:] = [row for row in rows if row[0] != row[1]]
    (tmp_path / "no_diagonal.json").write_text(json.dumps(doc))
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    del doc["base"]["dom"]["id_bot"], doc["base"]["dom"]["u"]
    (tmp_path / "no_dom.json").write_text(json.dumps(doc))
    doc = json.loads((corpus_dir / "bool3.json").read_text())
    rows = doc["base"]["interchange"]["1,2"]
    rows[:] = rows[1:-1]
    (tmp_path / "no_eta_ends.json").write_text(json.dumps(doc))
    documents = ("no_diagonal.json", "no_dom.json", "no_eta_ends.json")
    runs = {name: set() for name in (*documents, "preorder")}
    for hashseed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
                   PYTHONPATH=os.pathsep.join(
                       [SRC] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        for name in documents:
            proc = subprocess.run(
                [sys.executable, "-m", "enrichkit.cli", "check",
                 str(tmp_path / name)],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2
            runs[name].add(proc.stderr)
        runs["preorder"].add(subprocess.run(
            [sys.executable, "-c", PREORDER_ERROR], capture_output=True,
            text=True, env=env, timeout=60, check=True).stdout)
    assert runs == {
        "no_diagonal.json": {"error: tensor_1 missing object entry "
                             "(bot, bot)\n"},
        "no_dom.json": {"error: morphism 'id_bot' missing dom/cod entry\n"},
        "no_eta_ends.json": {"error: interchange_(1, 2) missing component "
                             "at ('bot', 'bot', 'bot', 'bot')\n"},
        "preorder": {"relation is not transitive at (a, b, c)\n"}}


def _string_tables(doc):
    """Paths to the base, vcategory and vfunctor row tables (string cells)."""
    base = doc["base"]
    tables = [("base", "comp"), ("base", "symmetry")]
    tables += [("base", kind, i) for kind in
               ("tensor_obj", "tensor_mor", "assoc", "interchange")
               for i in base[kind]]
    tables += [(section, name, kind)
               for section, kinds in (("vcategories", ("hom", "comp")),
                                      ("vfunctors", ("hom_map",)))
               for name in _tabled(doc, section) for kind in kinds]
    return tables


def _tabled(doc, section):
    """The names of a section's entries that are not product references."""
    return [name for name, entry in doc[section].items()
            if "product" not in entry]


def _row_tables(doc):
    """Paths to every row table, the level-2 ones (object cells) included."""
    return _string_tables(doc) + [
        (section, name, kind)
        for section, kinds in (("v2categories", ("hom", "comp", "identity")),
                               ("v2functors", ("hom_map",)),
                               ("v2nats", ("components",)))
        for name in doc[section] for kind in kinds]


SECTIONS = ("vcategories", "vfunctors", "vnats", "v2categories",
            "v2functors", "v2nats", "modifications", "pastings")


def _entries_and_sections(doc):
    """Paths to every named entry and every section, the base included."""
    return ([(section, name) for section in SECTIONS for name in doc[section]]
            + [(section,) for section in ("base",) + SECTIONS])


def _table_cells(doc):
    """Paths to every cell of the base, vcategory and vfunctor row tables."""
    paths = []
    for path in _string_tables(doc):
        rows = _at(doc, path)
        paths += [(*path, r, c) for r, row in enumerate(rows)
                  for c in range(len(row))]
    return paths


def _name_refs(doc):
    """Paths to every structure name that another structure refers to."""
    paths = [(section, name, slot)
             for section in ("vfunctors", "vnats", "v2functors", "v2nats",
                             "modifications")
             for name in doc[section] for slot in ("source", "target")]
    for name, pasting in doc["pastings"].items():
        paths += [("pastings", name, "categories", i) for i in range(3)]
        paths += [("pastings", name, group, k)
                  for group in ("functors", "nats", "modifications")
                  for k in pasting[group]]
    return paths


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.floats(allow_nan=False, allow_infinity=False))
STRING_LISTS = st.lists(st.lists(st.text(max_size=2), max_size=2), max_size=2)
STRING_OBJECTS = st.dictionaries(st.text(max_size=2), st.text(max_size=2),
                                 max_size=2)
NON_STRINGS = st.one_of(SCALARS, STRING_LISTS, STRING_OBJECTS)
NON_LISTS = st.one_of(SCALARS, st.text(max_size=2), STRING_OBJECTS)
NON_OBJECTS = st.one_of(SCALARS, st.text(max_size=2), STRING_LISTS)


def _shaped_fields(doc):
    """Paths to every field that must be a list of names (object sets) or an
    object (name maps, base tensor sections, pasting name groups)."""
    lists = [("base", "objects"), ("base", "morphisms")] + [
        (section, name, "objects")
        for section in ("vcategories", "v2categories")
        for name in _tabled(doc, section)]
    objects = [("base", kind) for kind in
               ("dom", "cod", "identity", "tensor_obj", "tensor_mor", "assoc",
                "interchange")]
    objects += [(section, name, kind)
                for section, kind in (("vcategories", "identity"),
                                      ("vfunctors", "obj_map"),
                                      ("vnats", "components"),
                                      ("v2functors", "obj_map"),
                                      ("modifications", "components"),
                                      ("pastings", "functors"),
                                      ("pastings", "nats"),
                                      ("pastings", "modifications"))
                for name in _tabled(doc, section)]
    return lists, objects


# A reference with a nested one, added to the document the malformed-shape
# property spoils; every path into it, by the values that spoil it.
REFERENCE = {"product": {"index": 1, "factors": [
    "P", {"product": {"index": 1, "factors": ["P", "P3"]}}]}}
BAD_INDICES = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                        st.integers().filter(lambda i: i != 1),
                        st.floats(allow_nan=False), STRING_LISTS)
BAD_FACTOR_LISTS = st.one_of(NON_LISTS, st.lists(st.just("P"), max_size=3)
                             .filter(lambda factors: len(factors) != 2))
BAD_FACTORS = st.one_of(NON_STRINGS, st.sampled_from(
    ["NOWHERE", "collapse_P", "W", "PP", "product"]))


def _reference_fields(where=("vcategories", "PP"), ref=REFERENCE):
    """(path, strategy) pairs into ``ref`` filed at ``where``."""
    at = (*where, "product")
    fields = [(at, NON_OBJECTS), ((*at, "index"), BAD_INDICES),
              ((*at, "factors"), BAD_FACTOR_LISTS)]
    for k, factor in enumerate(ref["product"]["factors"]):
        fields.append(((*at, "factors", k), BAD_FACTORS))
        if isinstance(factor, dict):
            fields += _reference_fields((*at, "factors", k), factor)
    return fields


@given(data=st.data())
def test_non_string_cell_or_name_exits_two(corpus_dir, data):
    # One table cell, name-map value or structure name becomes null, a
    # number, a list or an object; or a whole row table or object set becomes a non-list; or a
    # whole named entry, section or name map becomes a non-object: check
    # reports a parse error, never a traceback.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    doc["vcategories"]["PP"] = json.loads(json.dumps(REFERENCE))
    lists, objects = _shaped_fields(doc)
    map_values = [(*path, key) for path in objects
                  if path[-1] in ("dom", "cod", "identity", "obj_map",
                                  "components")
                  for key in _at(doc, path)]
    path, value = data.draw(st.one_of(
        st.tuples(st.sampled_from(_table_cells(doc) + _name_refs(doc)
                                  + map_values), NON_STRINGS),
        st.tuples(st.sampled_from(_row_tables(doc) + lists), NON_LISTS),
        st.tuples(st.sampled_from(_entries_and_sections(doc) + objects),
                  NON_OBJECTS),
        st.sampled_from(_reference_fields()).flatmap(
            lambda field: st.tuples(st.just(field[0]), field[1]))))
    _at(doc, path[:-1])[path[-1]] = value
    mutated = corpus_dir / "non-string.json"
    mutated.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["check", str(mutated)])
    assert code == 2, path
    assert err.getvalue().startswith("error:"), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _ref(index, *factors):
    return {"product": {"index": index, "factors": list(factors)}}


@pytest.mark.parametrize("entries, name", [
    ({"PP": _ref(1, "P", "NOWHERE")}, "PP"),
    ({"PP": _ref(0, "P", "P")}, "PP"),
    ({"PP": _ref(2, "P", "P")}, "PP"),
    ({"PP": _ref(True, "P", "P")}, "PP"),
    ({"PP": _ref("1", "P", "P")}, "PP"),
    ({"A": _ref(1, "B", "P"), "B": _ref(1, "A", "P")}, "[AB]"),
    ({"A": _ref(1, "P", "A")}, "A"),
    ({"PP": {**_ref(1, "P", "P"), "objects": ["a"], "hom": []}}, "PP"),
    ({"PP": _ref(1, "P", "collapse_P")}, "PP"),
    ({"PP": _ref(1, "P", _ref(1, "P", "W"))}, "PP"),
    ({"PP": _ref(1, "P", _ref(3, "P", "P"))}, "PP"),
], ids=["unknown-factor", "index-0", "index-too-large", "index-bool",
        "index-string", "cycle", "self", "tables-beside", "functor-factor",
        "nested-v2category-factor", "nested-index-too-large"])
def test_malformed_reference_exits_two(corpus_dir, tmp_path, capsys, entries,
                                       name):
    # Unknown factors (a V-2-category, a V-functor or no structure at all),
    # indices out of range or not integers, cycles, and tables beside a
    # reference, at the top or nested.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    doc["vcategories"].update(entries)
    spoiled = tmp_path / "reference.json"
    spoiled.write_text(json.dumps(doc))
    assert main(["check", str(spoiled)]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: vcategories\.{name}\.product\W|"
                    rf"error: vcategories\.{name}: ", err), err
    assert "Traceback" not in err


def test_reference_to_an_incomplete_factor_exits_two(corpus_dir, tmp_path,
                                                     capsys):
    # P lacks a hom entry, so its product cannot be rebuilt.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    _drop_key(doc["vcategories"]["P"]["hom"], ["a", "b"])
    doc["vcategories"]["PP"] = _ref(1, "P", "P")
    spoiled = tmp_path / "reference.json"
    spoiled.write_text(json.dumps(doc))
    assert main(["check", str(spoiled)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: vcategories.PP.product: cannot build the product")


@pytest.mark.parametrize("path", [("vcategories", "P", "hom"),
                                  ("vcategories", "P"), ("vcategories",),
                                  ("vcategories", "P", "objects"),
                                  ("vcategories", "P", "identity"),
                                  ("pastings", "pasting1", "functors"),
                                  ("base", "tensor_obj")])
def test_non_list_table_or_non_object_entry_exits_two(corpus_dir, tmp_path,
                                                      capsys, path):
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    _at(doc, path[:-1])[path[-1]] = 7
    mutated = tmp_path / "shape.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path[0]}")


@pytest.mark.parametrize("path, name, error", [
    (("pastings", "pasting1", "nats", "beta3"), "NOWHERE",
     "pastings.pasting1.nats.beta3: no structure named 'NOWHERE'"),
    (("pastings", "pasting1", "functors", "f"), "NOWHERE",
     "pastings.pasting1.functors.f: no structure named 'NOWHERE'"),
    (("pastings", "pasting1", "nats", "beta3"), 7,
     "pastings.pasting1.nats.beta3: expected a structure name"),
    (("pastings", "pasting1", "categories", 0), "NOWHERE",
     "pastings.pasting1.categories[0]: no structure named 'NOWHERE'"),
    (("vfunctors", "collapse_P", "source"), "NOWHERE",
     "vfunctors.collapse_P.source: no structure named 'NOWHERE'")],
    ids=["nat", "functor", "non-string", "listed", "single"])
def test_bad_frame_name_names_its_slot(corpus_dir, tmp_path, capsys, path,
                                       name, error):
    # A frame slot naming no structure, or holding no name, is an input
    # error whose message gives the slot's path.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    _at(doc, path[:-1])[path[-1]] = name
    mutated = tmp_path / "frame.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def _respelled(section, key, spelling):
    """An edit of a base that adds ``spelling`` beside index ``key``, with
    a table that differs from the one ``key`` gives."""
    def edit(base):
        rows = [[*row[:-1], "spelled"] for row in base[section][key]]
        base[section][spelling] = rows
    return edit


@pytest.mark.parametrize("edit, error", [
    (lambda base: base.update(tensors=2.7),
     "base.tensors: expected an integer"),
    (lambda base: base.update(tensors=True),
     "base.tensors: expected an integer"),
    (_respelled("tensor_obj", "1", "01"),
     "base.tensor_obj.01: expected an index from 1 to 2"),
    (_respelled("interchange", "1,2", "1, 2"),
     'base.interchange.1, 2: expected "i,j" with i < j, each from 1 to 2'),
    (_respelled("assoc", "1", "7"),
     "base.assoc.7: expected an index from 1 to 2"),
    (lambda base: base["tensor_obj"].pop("2"), "base.tensor_obj.2: missing"),
    (lambda base: base["interchange"].pop("1,2"),
     "base.interchange.1,2: missing"),
    (lambda base: base.update(tensors=0),
     "base.tensors: expected an integer of at least 1"),
], ids=["2.7", "True", "leading-zero", "space", "out-of-range",
        "missing-index", "missing-pair", "zero"])
def test_non_integer_tensor_count_exits_two(corpus_dir, tmp_path, capsys,
                                            edit, error):
    # The tensor count is a JSON integer, and each per-index table is keyed
    # by exactly one spelling of an index in range: "1" to "n", or "i,j".
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    edit(doc["base"])
    mutated = tmp_path / "tensors.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("argv", [
    ["check"], ["check", "--level", "vcategory"],
    ["construct", "product-vcat", "--inputs", "P", "P"]],
    ids=["check", "level-1", "construct"])
def test_unknown_base_unit_exits_two(corpus_dir, tmp_path, capsys, argv):
    # Loading the level-2 sections builds the unit V-category, so an unknown
    # unit is reported with the base, before anything reads it.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    doc["base"]["unit"] = "NOWHERE"
    mutated = tmp_path / "unit.json"
    mutated.write_text(json.dumps(doc))
    command, *rest = argv
    out = tmp_path / "out.json"
    if command == "construct":
        rest += ["--out", str(out)]
    assert main([command, str(mutated), *rest]) == 2
    assert capsys.readouterr().err == \
        "error: base: unknown unit object 'NOWHERE'\n"
    assert not out.exists()


@pytest.mark.parametrize("path, row, after", [
    (("vcategories", "P", "hom"), ["a", "a", "bot"], False),
    (("vcategories", "P", "hom"), ["a", "a", "bot"], True),
    (("base", "tensor_obj", "2"), ["bot", "bot", "top"], True),
], ids=["False", "True", "tensor"])
def test_repeated_row_key_exits_two(corpus_dir, tmp_path, capsys, path, row,
                                    after):
    # Before or after the row it repeats, the row is an input error, not a
    # silent choice of the last one; the message names the table's path.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    rows = _at(doc, path)
    rows.insert(next(k for k, old in enumerate(rows) if old[:-1] == row[:-1])
                + after, row)
    mutated = tmp_path / "repeated.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated)]) == 2
    assert capsys.readouterr().err == \
        f"error: {'.'.join(path)}: repeated row key {row[:-1]}\n"


@pytest.mark.parametrize("path, where", [
    (("vcategories", "P", "identity"), "vcategories.P.identity"),
    (("vfunctors", "collapse_P", "obj_map"), "vfunctors.collapse_P.obj_map"),
    (("vnats", "unit_P", "components"), "vnats.unit_P.components"),
    (("v2categories", "W", "hom", 0, 2), "v2categories.W.hom[0][2]"),
    ((), "document")],
    ids=["identity", "obj_map", "components", "inline-hom", "top"])
def test_repeated_object_key_exits_two(corpus_dir, tmp_path, capsys, path,
                                       where):
    # A JSON object's first key given once more, with another value, before
    # the real entry: keeping the last value would pass the check.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    obj = _at(doc, path)
    key = min(obj)
    other = {} if isinstance(obj[key], dict) else "u"
    repeated = "{%s}" % ", ".join(
        f"{json.dumps(k)}: {json.dumps(v)}"
        for k, v in [(key, other), *obj.items()])
    if path:
        _at(doc, path[:-1])[path[-1]] = "REPEATED"
        text = json.dumps(doc).replace('"REPEATED"', repeated)
    else:
        text = repeated
    mutated = tmp_path / "repeated.json"
    mutated.write_text(text)
    assert main(["check", str(mutated)]) == 2
    assert capsys.readouterr().err == \
        f"error: {where}: repeated key {key!r}\n"


@pytest.mark.parametrize("spoil", [lambda text: text[:-1],
                                   lambda text: text + " garbage"],
                         ids=["truncated", "trailing-data"])
def test_repeated_key_before_a_syntax_error_exits_two(corpus_dir, tmp_path,
                                                      capsys, spoil):
    # The repeated key closes before the parser reaches the syntax error, so
    # the re-parse that would locate the key meets the error instead.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    doc["vcategories"]["P"]["identity"] = "REPEATED"
    text = json.dumps(doc).replace('"REPEATED"', '{"a": "u", "a": "id_top"}')
    mutated = tmp_path / "repeated.json"
    mutated.write_text(spoil(text))
    assert main(["check", str(mutated)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_repeated_level2_row_key_exits_two(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    rows = doc["v2categories"]["W"]["hom"]
    rows.append(rows[0])
    mutated = tmp_path / "repeated.json"
    mutated.write_text(json.dumps(doc))
    assert main(["check", str(mutated)]) == 2
    assert capsys.readouterr().err == \
        "error: v2categories.W: repeated row key ['*', '*']\n"


# One call per construction on the corpus: document, inputs, options, and
# the level the result is filed at.
CORPUS_CALLS = {
    "unit-vcategory": ("bool2", [], [], "vcategory"),
    "product-vcat": ("bool2", ["P", "P"], [], "vcategory"),
    "product-vfunctor": ("bool2", ["id_P", "collapse_P"], [], "vfunctor"),
    "product-vnat": ("bool2", ["unit_P", "collapse_to_id"], [], "vnat"),
    "assoc-vcat": ("bool2", ["P", "P", "P"], [], "vfunctor"),
    # The interchange functor needs a base with at least three tensors.
    "interchange-vcat": ("zmod3", ["D", "D", "D", "D"],
                         ["--index", "1", "--index2", "2"], "vfunctor"),
    "compose-vfunctor": ("bool2", ["collapse_P", "id_P"], [], "vfunctor"),
    "identity-vfunctor": ("bool2", ["P"], [], "vfunctor"),
    "identity-vnat": ("bool2", ["id_P"], [], "vnat"),
    "compose-vnat-vert": ("bool2", ["unit_P", "collapse_to_id"], [], "vnat"),
    "whisker-vnat": ("bool2", ["id_P", "unit_P"], [], "vnat"),
    "from-symmetric": ("bool2", [], ["--index", "3"], "base"),
    "unit-v2category": ("bool2", [], [], "v2category"),
    "product-v2cat": ("bool3", ["W3", "W3"], [], "v2category"),
    "compose-v2functors": ("bool2", ["id_W", "id_W"], [], "v2functor"),
    "identity-v2functor": ("bool2", ["W"], [], "v2functor"),
    "id-nat": ("bool2", ["id_W"], [], "v2nat"),
    "compose-nat-along-functor": ("bool2", ["q_t", "q_one"], [], "v2nat"),
    "id-modification": ("bool2", ["q_t"], [], "modification"),
    "vcomp-modifications": ("bool2", ["stay", "rise"], [], "modification"),
    "whisker-nat-mod-left": ("bool2", ["q_t", "stay"], [], "modification"),
    "whisker-nat-mod-right": ("bool2", ["stay", "q_t"], [], "modification"),
    "hcomp-mods": ("bool2", ["stay", "rise"], [], "modification"),
    "whisker-functor-nat": ("bool2", ["id_W", "q_t"], [], "v2nat"),
    "whisker-nat-functor": ("bool2", ["q_t", "id_W"], [], "v2nat"),
    "hcomp-nats": ("bool2", ["q_t", "q_one"], [], "v2nat"),
    "whisker-functor-mod": ("bool2", ["id_W", "stay"], [], "modification"),
    "whisker-mod-functor": ("bool2", ["stay", "id_W"], [], "modification"),
    "whisker-nat-mod-category": ("bool2", ["q_t", "stay"], [],
                                 "modification"),
    "whisker-mod-nat-category": ("bool2", ["stay", "q_t"], [],
                                 "modification"),
    "hcomp-mods-category": ("bool2", ["stay", "rise"], [], "modification"),
}


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_every_construction_files_its_result_under_name(
        corpus_dir, tmp_path, capsys, construction):
    # Also when the result equals a structure the document already names
    # (identity-v2functor W is id_W): the result is filed under both names.
    document, inputs, options, level = CORPUS_CALLS[construction]
    out = tmp_path / "out.json"
    assert main(["construct", str(corpus_dir / f"{document}.json"),
                 construction, "--inputs", *inputs, *options,
                 "--name", "R", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} ({construction} -> R)\n"
    tower = load(out)
    if level == "base":
        assert tower.base.n == 3
    else:
        assert "R" in getattr(tower, LEVELS[level].section)


@pytest.mark.parametrize("construction, inputs, takes", [
    ("identity-vfunctor", None, 1),         # no --inputs at all
    ("product-vcat", ["P"], 2),             # too few
    ("identity-vfunctor", ["P", "P"], 1)])  # too many
def test_wrong_input_count_exits_two(corpus_dir, tmp_path, capsys,
                                     construction, inputs, takes):
    out = tmp_path / "x.json"
    argv = ["construct", str(corpus_dir / "bool2.json"), construction,
            "--out", str(out)]
    if inputs is not None:
        argv += ["--inputs", *inputs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: bad arguments: {construction} takes {takes} "
                   f"inputs, got {len(inputs or [])}\n")
    assert not out.exists()


@pytest.mark.parametrize("construction, options, inputs, message", [
    ("product-vcat", ["--index", "0"], ["P", "P"],
     "product index 0 outside 1..1"),
    ("product-vcat", ["--index", "5"], ["P", "P"],
     "product index 5 outside 1..1"),
    ("interchange-vcat", ["--index", "1", "--index2", "1"], ["P"] * 4,
     "interchange indices (1, 1) outside 1 <= i < j <= 1, which no pair "
     "satisfies"),
    ("product-v2cat", ["--index", "1"], ["W", "W"],
     "product index 1 outside 1..0"),
    ("product-vcat", ["--index", "-1"], ["P", "P"],
     "product index -1 outside 1..1")])
def test_out_of_range_index_exits_two(corpus_dir, tmp_path, capsys,
                                      construction, options, inputs, message):
    out = tmp_path / "x.json"
    assert main(["construct", str(corpus_dir / "bool2.json"), construction,
                 *options, "--inputs", *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bad arguments: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, construction, options, inputs, message", [
    ("zmod3", "interchange-vcat", ["--index", "0", "--index2", "1"],
     ["D"] * 4, "interchange indices (0, 1) outside 1 <= i < j <= 2"),
    ("zmod3", "interchange-vcat", ["--index", "2", "--index2", "2"],
     ["D"] * 4, "interchange indices (2, 2) outside 1 <= i < j <= 2"),
    ("zmod3", "interchange-vcat", ["--index", "1", "--index2", "3"],
     ["D"] * 4, "interchange indices (1, 3) outside 1 <= i < j <= 2"),
    ("bool2", "interchange-vcat", ["--index", "1", "--index2", "2"],
     ["P"] * 4, "interchange indices (1, 2) outside 1 <= i < j <= 1, "
     "which no pair satisfies"),
    ("zmod3", "assoc-vcat", ["--index", "0"], ["D"] * 3,
     "associator index 0 outside 1..2"),
    ("zmod3", "assoc-vcat", ["--index", "3"], ["D"] * 3,
     "associator index 3 outside 1..2"),
    ("bool2", "assoc-vcat", ["--index", "2"], ["P"] * 3,
     "associator index 2 outside 1..1")])
def test_associator_and_interchange_name_their_index_range(
        corpus_dir, tmp_path, capsys, doc, construction, options, inputs,
        message):
    # The range is the construction's own, not that of a product it builds.
    out = tmp_path / "x.json"
    assert main(["construct", str(corpus_dir / f"{doc}.json"), construction,
                 *options, "--inputs", *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bad arguments: {message}\n"
    assert not out.exists()


def test_construct_refuses_to_replace_a_named_input(corpus_dir, tmp_path,
                                                    capsys):
    # collapse_P names P as its source, so P cannot be replaced.
    out = tmp_path / "x.json"
    assert main(["construct", str(corpus_dir / "bool2.json"), "product-vcat",
                 "--inputs", "P", "P", "--name", "P", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: filing under 'P' would replace the vcategory that "
        "vfunctors.collapse_P.source names\n")
    assert not out.exists()
    # The same holds for the name a new frame slot is filed under: S names
    # R.source, and the product of T with itself needs a new R.source.
    steps = [("product-vfunctor", ["id_P", "collapse_P"], "R"),
             ("identity-vfunctor", ["R.source"], "S"),
             ("identity-vfunctor", ["P3"], "T")]
    doc = corpus_dir / "bool2.json"
    for k, (construction, inputs, name) in enumerate(steps):
        step = tmp_path / f"step{k}.json"
        assert main(["construct", str(doc), construction, "--inputs", *inputs,
                     "--name", name, "--out", str(step)]) == 0
        doc = step
    assert main(["construct", str(doc), "product-vfunctor", "--inputs", "T",
                 "T", "--name", "R", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: filing under 'R.source' would replace the vcategory that ")
    assert not out.exists()


def test_construct_refuses_to_replace_a_product_factor(corpus_dir, tmp_path,
                                                     capsys):
    # result.source and result.target are saved as references to products
    # of P3, so P3 cannot be replaced: the frames would be saved as tables.
    cubed = tmp_path / "p3cubed.json"
    assert main(["construct", str(corpus_dir / "bool2.json"), "assoc-vcat",
                 "--inputs", "P3", "P3", "P3", "--out", str(cubed)]) == 0
    capsys.readouterr()
    out = tmp_path / "x.json"
    assert main(["construct", str(cubed), "product-vcat", "--index", "1",
                 "--inputs", "P3", "P3", "--name", "P3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: filing under 'P3' would replace a factor of the product "
        "that vcategories.result.source references\n")
    assert not out.exists()
    # Under a new name, the product is filed and saved as a reference too.
    assert main(["construct", str(cubed), "product-vcat", "--index", "1",
                 "--inputs", "P3", "P3", "--name", "P9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["vcategories"]["P9"] == {
        "product": {"index": 1, "factors": ["P3", "P3"]}}
    assert "objects" not in doc["vcategories"]["result.source"]


def test_construct_on_an_incomplete_input_exits_two(corpus_dir, tmp_path,
                                                   capsys):
    # The product reads its factors' composition tables only when its own is
    # first read, so the input check is what reports the missing entry.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    _drop_key(doc["vcategories"]["P"]["comp"], ["b", "b", "b"])
    broken = tmp_path / "incomplete.json"
    broken.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    message = "error: composition entry ('b', 'b', 'b') missing or unknown\n"
    assert main(["construct", str(broken), "product-vcat",
                 "--inputs", "P", "P", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert main(["check", str(broken)]) == 2
    assert capsys.readouterr().err == message


def _drop_key(rows, key):
    kept = [row for row in rows if row[:-1] != key]
    assert len(kept) == len(rows) - 1
    rows[:] = kept


def test_readme_lists_every_construction():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    listing = readme.split("Available names:", 1)[1].split("```")[1]
    assert sorted(listing.replace(",", " ").split()) == sorted(CONSTRUCTIONS)


def test_level_choices_are_the_tower_levels(capsys):
    for command, levels in (("check", ["all", *LEVELS]),
                            ("fuzz", [level for level in LEVELS
                                      if level != "base"])):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        choices = re.search(r"--level \{([^}]*)\}", usage).group(1)
        assert choices.split(",") == levels


def test_levels_table_names_real_objects_and_tower_sections():
    # Every row's type and checker is the object its defining module gives
    # that name, Tower's sections are the levels above the base in table
    # order, a section passed in is kept, and an unknown section is refused.
    for level, row in LEVELS.items():
        for path, value in ((row.typename, row.kind),
                            (row.checker, _resolve(row.checker))):
            module, name = path.split(".")
            assert value.__module__ == f"enrichkit.{module}", (level, path)
            assert value.__name__ == name, (level, path)
    assert LEVELS["vcategory"].checker == "vcat.check_vcategory"
    assert Tower.__slots__[2:] == tuple(row.section for row in
                                        list(LEVELS.values())[1:])
    base, kept = bool_poset(2), {}
    assert Tower(base, vnats=kept).vnats is kept
    assert Tower(base).vnats is not Tower(base).vnats
    with pytest.raises(TypeError, match="bogus"):
        Tower(base, bogus={})


def test_construct_product(corpus_dir, tmp_path, capsys):
    out = tmp_path / "constructed.json"
    assert main(["construct", str(corpus_dir / "bool2.json"), "product-vcat",
                 "--index", "1", "--inputs", "P", "P", "--name", "PP",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out)]) == 0
    capsys.readouterr()
    tower = load(out)
    assert "PP" in tower.vcategories


def test_construct_hcomp_mods(corpus_dir, tmp_path, capsys):
    out = tmp_path / "hm.json"
    assert main(["construct", str(corpus_dir / "bool2.json"), "hcomp-mods",
                 "--inputs", "stay", "rise", "--name", "hm",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    tower = load(out)
    assert "hm" in tower.modifications
    assert main(["check", str(out)]) == 0
    capsys.readouterr()


def test_construct_from_symmetric(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sym3.json"
    assert main(["construct", str(corpus_dir / "bool2.json"), "from-symmetric",
                 "--index", "3", "--name", "ignored", "--out", str(out)]) == 0
    capsys.readouterr()
    tower = load(out)
    assert tower.base.n == 3
    assert main(["check", str(out)]) == 0
    capsys.readouterr()


def test_construct_wrong_level_fails(corpus_dir, tmp_path, capsys):
    assert main(["construct", str(corpus_dir / "bool2.json"), "product-vcat",
                 "--index", "1", "--inputs", "q_one", "q_one",
                 "--name", "bad", "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "construction failed" in err


def test_construct_unknown_name(corpus_dir, tmp_path, capsys):
    assert main(["construct", str(corpus_dir / "bool2.json"), "no-such-op",
                 "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


def test_fuzz_subcommand(capsys):
    assert main(["fuzz", "--level", "vcategory", "--count", "2",
                 "--seed", "3", "--base", "zmod3"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_check_with_fuzz_flag(corpus_dir, capsys):
    assert main(["check", str(corpus_dir / "zmod3.json"),
                 "--seed", "1", "--fuzz", "1"]) == 0
    out = capsys.readouterr().out
    assert "fuzz[0]" in out


def test_check_with_fuzz_flag_on_an_invalid_base(corpus_dir, tmp_path, capsys):
    # Every draw is checked against the base, so a base failing its k-fold
    # checks ends the fuzz run with a note in both output channels.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    for row in doc["base"]["interchange"]["1,2"]:
        if row[:4] == ["top", "top", "top", "top"]:
            row[4] = "u"
    mutated = tmp_path / "eta.json"
    mutated.write_text(json.dumps(doc))
    args = ["check", str(mutated), "--level", "base", "--fuzz", "1"]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert ("[fuzz] FAIL: skipped, constituent invalid: tensor structure "
            "failed its checker") in out.splitlines()
    assert main(args + ["--machine"]) == 1
    notes = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {"kind": "note", "structure": "fuzz", "status": "fail",
            "message": "skipped, constituent invalid: tensor structure "
                       "failed its checker"} in notes


@pytest.mark.parametrize("argv, path", [
    (["check", "{tmp}"], "{tmp}"),
    (["check", "{doc}/x.json"], "{doc}/x.json"),
    (["check", "{tmp}/latin1.json"], "{tmp}/latin1.json"),
    (["check", "{tmp}/missing.json"], "{tmp}/missing.json"),
    (["construct", "{doc}", "product-vcat", "--inputs", "P3", "P3",
      "--out", "{tmp}"], "{tmp}"),
    (["construct", "{doc}", "product-vcat", "--inputs", "P3", "P3",
      "--out", "{tmp}/missing/out.json"], "{tmp}/missing/out.json"),
    (["corpus", "{doc}"], "{doc}"),
])
def test_file_system_errors_exit_2_naming_the_path(
        corpus_dir, tmp_path, monkeypatch, capsys, argv, path):
    # Nothing is constructed before the output path is known to be usable.
    def construct(*_):
        raise AssertionError("constructed before the output path was checked")
    monkeypatch.setattr(cli, "_construct", construct)
    (tmp_path / "latin1.json").write_bytes('{"format": "tôwer/2"}'.encode(
        "latin-1"))
    names = {"tmp": tmp_path, "doc": corpus_dir / "bool2.json"}
    path = path.format(**names)
    assert main([arg.format(**names) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err
    if path.endswith("missing.json"):
        assert err == f"error: no such file: {path}\n"


def test_constructions_resolve_on_their_defining_module(
        corpus_dir, tmp_path, monkeypatch, capsys):
    # A wrapper bound on vcat, as the benchmark's tracer binds one, is what
    # `construct` runs.
    from enrichkit import vcat
    argv = ["construct", str(corpus_dir / "bool2.json"), "product-vcat",
            "--inputs", "P3", "P3", "--out"]
    assert main([*argv, str(tmp_path / "plain.json")]) == 0
    plain = capsys.readouterr().out
    calls, product_vcat = [], vcat.product_vcat

    def spy(i, a, b):
        calls.append((i, len(a.objects), len(b.objects)))
        return product_vcat(i, a, b)
    monkeypatch.setattr(vcat, "product_vcat", spy)
    assert main([*argv, str(tmp_path / "spied.json")]) == 0
    assert (1, 3, 3) in calls
    assert capsys.readouterr().out == plain.replace("plain.json", "spied.json")
    assert ((tmp_path / "spied.json").read_bytes()
            == (tmp_path / "plain.json").read_bytes())
