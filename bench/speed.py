"""Machine-speed probe: scales timings to a reference speed.

The benchmark runs on a few cores of a shared host.  As other tenants load
the host, everything on it runs slower or faster together, by up to about
1.6x, in stretches of seconds to many minutes.  Both wall and CPU time move
with it, so a median over one run cannot remove it.

``probe()`` times a fixed piece of pure-Python work that does not touch
enrichkit: a table keyed by tuples, scanned with lookups, and an integer
loop, which is the kind of work enrichkit's checkers do.  The benchmark
probes right before and right after each timed step, outside its timing,
and ``scale`` turns the step's time into reference seconds: seconds on a
machine where the probe takes ``PROBE_REF_S``.  That is the probe's mean
time on the machine the benchmark was tuned on (2 vCPUs of a shared
2.1 GHz Xeon host, Python 3.11.7), so reference seconds there are close to
average wall seconds.  Probing next to each step, not once per run,
follows drift that lasts only seconds.  A change to the program moves
reference seconds as it moves wall time; a change to the probe or to
``PROBE_REF_S`` rescales every metric and is a change of the benchmark.
"""
from __future__ import annotations

import statistics
import time

PROBE_REF_S = 0.07
# Probe time spent after a step, per second the step took; at least one
# probe follows every step.
PROBE_SHARE = 0.1


def probe() -> float:
    """Seconds taken by one fixed piece of pure-Python work."""
    t0 = time.perf_counter()
    table = {}
    for a in range(40):
        for b in range(40):
            for c in range(30):
                table[(a, b, c)] = (b, c, a)
    found = 0
    for key in table.values():
        found += len(table.get(key, ()))
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    elapsed = time.perf_counter() - t0
    if found != 3 * 30 * 30 * 40 or acc != 999_999:
        raise RuntimeError("speed probe computed a wrong result")
    return elapsed


def probes(busy_s: float) -> list:
    """Probe samples after a step of ``busy_s`` seconds."""
    samples = [probe()]
    while sum(samples) < PROBE_SHARE * busy_s:
        samples.append(probe())
    return samples


def scale(raw_s: float, samples: list) -> float:
    """``raw_s`` in reference seconds, given the probes taken around it.

    The mean, not the median: probe times cluster at two speeds (the host's
    loaded and idle states), and a median flips between the clusters.
    """
    return raw_s * PROBE_REF_S / statistics.fmean(samples)
