"""End-to-end and per-layer benchmark of the enrichkit CLI.

    python3 bench/run.py --workload kfold-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is imported
from ``src/``.  The workloads are defined in ``workloads.py`` and their known
answers in ``oracle.py``.

``--trace 0`` drives the real CLI, one subprocess per command and one
command in flight at a time (a closed loop), running the workload's
command cycle until the next command would overrun ``--seconds``.  Each
command is timed from spawn to exit code, its peak RSS is read from
``os.wait4``, and its verdict is checked against the known answer.  A fixed
speed probe runs between commands, outside their timing, and every
end-to-end time is reported in reference seconds (see ``speed.py``), so
that stretches in which the shared host runs slow cancel out.  The record
keeps the raw times and the probe samples.

``--trace 1`` instead calls ``enrichkit.cli.main`` in-process with the same
argument lists, alternating an untraced cycle and a cycle under
``tracer.Tracer``, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (every command's
time, peak RSS, exit code and stdout sha256, and the environment) is written
to ``.bench_results/<workload>-seed<seed>-trace<trace>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

import speed
from oracle import instances_checked

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 90.0
TAIL_BEYOND = 10


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENRICHKIT_WORKERS", None)
    env["PYTHONPATH"] = SRC
    return env


# -- running one command ----------------------------------------------------------

@dataclass
class Outcome:
    code: object            # exit code, or None after an uncaught exception
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float = 0.0
    timed_out: bool = False


def spawn(argv, cwd, env) -> Outcome:
    """Run ``enrichkit <argv>`` as a child; time it from spawn to exit code."""
    with tempfile.TemporaryFile(dir=cwd) as out, \
            tempfile.TemporaryFile(dir=cwd) as err:
        killed = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "enrichkit.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read().decode("utf-8", "replace"),
                       err.read().decode("utf-8", "replace"), wall,
                       usage.ru_maxrss / 1024.0, killed.is_set())


def run_cli(argv, cwd):
    """Untimed child run, for set-up steps."""
    res = subprocess.run([sys.executable, "-m", "enrichkit.cli", *argv],
                         cwd=cwd, env=child_env(), capture_output=True,
                         text=True, timeout=COMMAND_TIMEOUT_S)
    return res.returncode, res.stdout, res.stderr


def in_process(argv, cwd) -> Outcome:
    """Call ``enrichkit.cli.main(argv)`` with stdout and stderr captured."""
    from enrichkit import cli
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    here = os.getcwd()
    os.chdir(cwd)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
    finally:
        wall = time.perf_counter() - t0
        os.chdir(here)
    return Outcome(code, out.getvalue(), err.getvalue(), wall)


def execute(cmd, cwd, runner, cycle, records):
    for name in cmd.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cwd, name))
    res = runner(cmd.argv, cwd)
    problems = ["timed out"] if res.timed_out else []
    try:
        problems += cmd.verify(res.code, res.stdout, res.stderr)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    checked = 0
    if cmd.prints_families and not problems:
        checked = instances_checked(res.stdout, cmd.machine)
    records.append({
        "cycle": cycle, "argv": cmd.argv, "wall_s": res.wall_s,
        "rss_mb": res.rss_mb, "code": res.code, "instances": checked,
        "stdout_sha256": hashlib.sha256(res.stdout.encode()).hexdigest(),
        "problems": problems})
    return records[-1]


def run_cycles(cmds, cwd, runner, seconds, between=lambda elapsed: None):
    """Run the commands in cycle order until the next overruns ``seconds``.

    One whole cycle always runs.  ``enrichkit --help`` runs once untimed
    before the loop, so that compiling the program's bytecode in a fresh
    checkout is not charged to a timed command.  Each record's ``ref_s`` is
    its time in reference seconds, scaled by the speed probes run right
    before and right after it.  ``between(elapsed)`` runs after each
    command, outside its timing.
    """
    runner(["--help"], cwd)
    records = []
    took = {}    # cycle position -> seconds of its last turn, with probes
    before = speed.probes(0.0)
    start = time.perf_counter()
    turn = 0
    while True:
        t0 = time.perf_counter()
        pos = turn % len(cmds)
        rec = execute(cmds[pos], cwd, runner, turn // len(cmds), records)
        rec["probe_s"] = speed.probes(rec["wall_s"])
        rec["ref_s"] = speed.scale(rec["wall_s"], before + rec["probe_s"])
        before = rec["probe_s"]
        between(time.perf_counter() - start)
        now = time.perf_counter()
        took[pos] = now - t0
        turn += 1
        if turn >= len(cmds) and \
                now - start + took[turn % len(cmds)] > seconds:
            return records


# -- set-up ----------------------------------------------------------------------------

def timed_setup(setup, seed, workdir):
    """One set-up into ``workdir``: a cycle's commands, reference seconds."""
    before = speed.probes(0.0)
    t0 = time.perf_counter()
    cmds = setup(seed, workdir, run_cli)
    raw = time.perf_counter() - t0
    return cmds, speed.scale(raw, before + speed.probes(raw))


class SpreadSetups:
    """Repeats the set-up at even intervals through a run.

    The machine's speed drifts over seconds, so back-to-back repeats would
    all sample one moment; spread out, their median samples the whole run.
    """

    def __init__(self, setup, seed, workroot, seconds, first_s):
        self.setup, self.seed, self.workroot = setup, seed, workroot
        self.interval = seconds / SETUP_REPEATS
        self.times = [first_s]

    def _one(self):
        workdir = os.path.join(self.workroot, f"setup{len(self.times)}")
        os.makedirs(workdir)
        self.times.append(timed_setup(self.setup, self.seed, workdir)[1])
        shutil.rmtree(workdir)

    def __call__(self, elapsed):
        if (len(self.times) < SETUP_REPEATS
                and elapsed >= len(self.times) * self.interval):
            self._one()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self._one()


# -- metrics -------------------------------------------------------------------------

def tail(times, p50):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples that percentile would sit under the
    median, so ``p50`` stands in and the reported percentile is 50.
    """
    n = len(times)
    rank = n - TAIL_BEYOND
    if rank < n / 2:
        return p50, 50.0
    return sorted(times)[rank - 1], 100.0 * rank / n


def end_to_end(records, setup_times):
    """End-to-end metrics from the commands' and set-ups' reference seconds.

    A cycle mixes commands whose times differ several-fold, and a run holds
    only two or three turns of each on the heavy workloads, so the median of
    all samples would jump between the commands' clusters.  Each command's
    median time is taken first; ``wall_s`` sums them and ``verdict_s.p50``
    is their median.
    """
    by_cmd = {}
    for rec in records:
        by_cmd.setdefault(tuple(rec["argv"]), []).append(rec)
    medians = [statistics.median(r["ref_s"] for r in recs)
               for recs in by_cmd.values()]
    wall = sum(medians)
    p50 = statistics.median(medians)
    times = [rec["ref_s"] for rec in records]
    failed = sum(1 for rec in records if rec["problems"])
    tail_s, tail_pct = tail(times, p50)
    per_cycle = sum(recs[0]["instances"] for recs in by_cmd.values())
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "verdict_s.p50": (p50, "s"),
        "verdict_s.tail": (tail_s, "s"),
        "instances_per_s": (per_cycle / wall, "1/s"),
        "peak_rss_mb": (max(rec["rss_mb"] for rec in records), "MB"),
        "pass_share": ((len(records) - failed) / len(records), "ratio"),
    }
    extra = {"verdict_s.tail_percentile": tail_pct,
             "verdict_s.samples": len(times),
             "cycles": len({rec["cycle"] for rec in records}),
             "failed_share": failed / len(records),
             "setup_s.samples": setup_times}
    return values, failed, extra


PER_LAYER = {
    "kfold.scan_s": "s", "kfold.instances": "count",
    "kfold.instances_per_s": "1/s",
    "report.family_calls": "count", "report.cache_hit_ratio": "ratio",
    "vcat.construct_s": "s", "vcat.construct_calls": "count",
    "vcat.product_vcat_calls": "count", "vcat.pair_calls": "count",
    "vcat.scan_s": "s", "vcat.instances": "count",
    "fincat.scan_s": "s", "fincat.compose_calls": "count",
    "v2cat.scan_s": "s", "v2cat.construct_s": "s",
    "v2cat.construct_calls": "count", "v2cat.exchange_s": "s",
    "serialize.load_s": "s", "serialize.save_s": "s", "cli.import_s": "s",
    "instances.generate_s": "s", "instances.generate_calls": "count",
    "instances.budget_exhausted": "count", "trace.overhead_s": "s",
}


def import_time() -> float:
    samples = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import enrichkit.cli"],
                       env=child_env(), check=True, timeout=COMMAND_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def traced_run(cmds, cwd, seconds):
    """Alternate each command untraced and traced, cycle after cycle.

    Interleaving per command keeps slow drift in machine speed out of the
    tracing overhead, which is the traced minus the untraced cycle time.
    """
    from tracer import Tracer
    records, per_cycle, untraced, traced = [], [], [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        t0 = time.perf_counter()
        tracer = Tracer()
        plain = traced_s = 0.0
        for cmd in cmds:
            plain += execute(cmd, cwd, in_process, cycle, records)["wall_s"]
            with tracer:
                traced_s += execute(cmd, cwd, in_process, cycle + 1,
                                    records)["wall_s"]
        untraced.append(plain)
        traced.append(traced_s)
        per_cycle.append(dict(tracer.values))
        cycle += 2
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    keys = set().union(*per_cycle)
    layer = {key: statistics.median(c.get(key, 0.0) for c in per_cycle)
             for key in keys}
    layer["kfold.instances_per_s"] = (layer.get("kfold.instances", 0.0)
                                      / layer["kfold.scan_s"]
                                      if layer.get("kfold.scan_s") else 0.0)
    calls = layer.get("report.cached_report_calls", 0.0)
    layer["report.cache_hit_ratio"] = (layer.get("report.cached_report_hits", 0.0)
                                       / calls if calls else 0.0)
    layer["trace.overhead_s"] = statistics.median(traced) \
        - statistics.median(untraced)
    layer["cli.import_s"] = import_time()
    values = {name: (layer.get(name, 0.0), unit)
              for name, unit in PER_LAYER.items()}
    failed = sum(1 for rec in records if rec["problems"])
    extra = {"all_counters": layer, "untraced_cycle_s": untraced,
             "traced_cycle_s": traced}
    return values, records, failed, extra


# -- environment -------------------------------------------------------------------

def commit_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit_sha()}


# -- main ----------------------------------------------------------------------------

def load_program():
    if not os.path.isfile(os.path.join(SRC, "enrichkit", "cli.py")):
        fail(f"no enrichkit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import enrichkit
    if not os.path.abspath(enrichkit.__file__).startswith(SRC + os.sep):
        fail(f"imported enrichkit from {enrichkit.__file__}, not from {SRC}")


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()

    setup = WORKLOADS[args.workload]
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    workroot = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                dir=os.path.join(ROOT, ".bench_run"))
    try:
        workdir = os.path.join(workroot, "inputs")
        os.makedirs(workdir)
        cmds, first_s = timed_setup(setup, args.seed, workdir)
        if args.trace == 0:
            env = child_env()
            setups = SpreadSetups(setup, args.seed, workroot, args.seconds,
                                  first_s)
            records = run_cycles(cmds, workdir,
                                 lambda a, cwd: spawn(a, cwd, env),
                                 args.seconds, setups)
            setups.finish()
            metrics, failed, extra = end_to_end(records, setups.times)
        else:
            metrics, records, failed, extra = traced_run(cmds, workdir,
                                                         args.seconds)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    outdir = os.path.join(ROOT, ".bench_results")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(), "result": result,
                   "details": extra, "commands": records}, fh, indent=1)
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
