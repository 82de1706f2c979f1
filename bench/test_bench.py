"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest bench/test_bench.py -q

Runs a Z/2 base and one documented mutation through both runners (child
processes and the in-process traced run) and checks that the known answers
hold, that the oracle rejects a wrong answer, and that the metric helpers
produce every named metric.
"""
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

run.load_program()


@pytest.fixture
def tiny(tmp_path):
    """check and check --machine on Z/2 at k = 3, one mutation, one pristine."""
    cmds = workloads.setup_kfold_scan(0, str(tmp_path), run.run_cli,
                                      shapes=((2, 3),))
    mixed = workloads.setup_corpus_mixed(0, str(tmp_path), run.run_cli,
                                         mutations=oracle.MUTATIONS[-1:])
    cmds += [c for c in mixed if c.argv[1] in ("bool3.json",)
             or c.argv[1].startswith("mut-")]
    assert len(cmds) == 4
    return cmds, str(tmp_path)


def test_closed_form_counts():
    counts = oracle.zn_family_counts(4, 4)
    assert sum(counts.values()) == 316_320
    assert sum(oracle.zn_family_counts(5, 3).values()) == 491_155
    assert oracle.zn_family_counts(2, 2)["hexagon"] == 0


def test_children_give_the_known_answers(tiny):
    cmds, cwd = tiny
    env = run.child_env()
    records = run.run_cycles(cmds, cwd, lambda a, d: run.spawn(a, d, env), 0)
    assert [r["problems"] for r in records] == [[]] * len(cmds)
    assert records[0]["instances"] == sum(
        oracle.zn_family_counts(2, 3).values())
    assert [r["code"] for r in records] == [0, 0, 0, 1]
    values, failed, extra = run.end_to_end(records, [0.1, 0.2, 0.3])
    assert failed == 0 and extra["cycles"] == 1
    assert values["setup_s"][0] == 0.2
    assert all(value > 0 for value, _ in values.values())


def test_traced_run_reports_every_layer_metric(tiny):
    cmds, cwd = tiny
    values, records, failed, _ = run.traced_run(cmds, cwd, 0)
    assert failed == 0 and len(records) == 2 * len(cmds)
    assert set(values) == set(run.PER_LAYER)
    kfold_only, _, _, _ = run.traced_run(cmds[:2], cwd, 0)
    assert kfold_only["kfold.instances"][0] == 2 * sum(
        oracle.zn_family_counts(2, 3).values())
    assert values["report.family_calls"][0] > 0
    assert values["serialize.load_s"][0] > 0


def test_oracle_rejects_a_wrong_answer(tiny):
    cmds, cwd = tiny
    pristine_out = run.spawn(["check", "z2k3.json", "--machine"], cwd,
                             run.child_env())
    name, _, _, label, families = oracle.MUTATIONS[-1]
    verify = oracle.expect_mutation(label, families)
    assert verify(pristine_out.code, pristine_out.stdout, pristine_out.stderr)
    wrong = oracle.expect_zn_check(3, 3, True)
    assert wrong(pristine_out.code, pristine_out.stdout, pristine_out.stderr)


def test_metric_names_match_the_benchmark_file():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    values, _, _ = run.end_to_end(
        [{"cycle": 0, "argv": ["check"], "ref_s": 1.0, "rss_mb": 1.0,
          "instances": 1, "problems": []}], [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in values.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tail_percentile():
    assert run.tail([1.0, 2.0, 3.0], 2.5) == (2.5, 50.0)
    times = [float(i) for i in range(1, 41)]
    value, pct = run.tail(times, 20.5)
    assert value == 30.0 and pct == 75.0
    assert sum(t > value for t in times) == 10
