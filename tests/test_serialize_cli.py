import contextlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enrichkit.cli import main
from enrichkit.errors import DanglingReference, ParseError
from enrichkit.serialize import dumps, load, loads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", str(out)]) == 0
    return out


def test_round_trip_byte_stability(corpus_dir):
    for name in ("bool2", "bool3", "zmod3"):
        path = corpus_dir / f"{name}.json"
        original = path.read_text()
        assert dumps(load(path)) == original


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


def _table_cells(doc):
    """Paths to every cell of the base, vcategory and vfunctor row tables."""
    base = doc["base"]
    tables = [("base", "comp"), ("base", "symmetry")]
    tables += [("base", kind, i) for kind in
               ("tensor_obj", "tensor_mor", "assoc", "interchange")
               for i in base[kind]]
    tables += [(section, name, kind)
               for section, kinds in (("vcategories", ("hom", "comp")),
                                      ("vfunctors", ("hom_map",)))
               for name in doc[section] for kind in kinds]
    paths = []
    for path in tables:
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


NON_STRINGS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.lists(st.text(max_size=2), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2))


@given(data=st.data())
def test_non_string_cell_or_name_exits_two(corpus_dir, data):
    # One table cell or structure name becomes null, a number, a list or an
    # object: check reports a parse error, never a traceback.
    doc = json.loads((corpus_dir / "bool2.json").read_text())
    path = data.draw(st.one_of(st.sampled_from(_table_cells(doc)),
                               st.sampled_from(_name_refs(doc))))
    _at(doc, path[:-1])[path[-1]] = data.draw(NON_STRINGS)
    mutated = corpus_dir / "non-string.json"
    mutated.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["check", str(mutated)])
    assert code == 2, path
    assert err.getvalue().startswith("error:"), err.getvalue()
    assert "Traceback" not in err.getvalue()


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
