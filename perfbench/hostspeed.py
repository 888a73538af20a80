"""The host-speed probe that end-to-end times are scaled by.

On the shared 2-vCPU development box the speed of this program swings
by up to 2x for seconds to minutes at a time, as other tenants load the
memory system; CPU time tracks wall time, so it cannot remove this.
This probe does allocation-, dict- and sort-heavy work like the
program's and slows down with it: over 300 s of ``threshold-arms``
calls, 25 s windows of mean call time spread 0.43 (interquartile range
over median), the same windows divided by the mean probe time measured
between the calls spread 0.06, and divided by a pure-Python loop that
stays in L1 they spread 0.35.

The probe is the benchmark's own fixed code and runs in the benchmark
process, never in a process of the system under test, so no change to
the program can change it.  A time ``t`` measured next to probe times
``p`` is reported as ``t * REFERENCE_PROBE_S / mean(p)``: seconds at
the host speed at which the probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

WORDS = 150_000
# A fixed constant near the probe's time on the development box in its
# fast state, so scaled times read close to the wall times seen there.
REFERENCE_PROBE_S = 0.25


def probe() -> float:
    """Seconds for one fixed run of the probe workload.

    Objects that already exist are frozen out of the collector first,
    so the probe's own garbage collections do not grow with whatever
    the calling process holds.
    """
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        rng = random.Random(1)
        words = [f"w{rng.getrandbits(40):x}" for _ in range(WORDS)]
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word, 0) + 1
        words.sort()
        hits = sum(1 for word in words if word in counts)
        elapsed = time.perf_counter() - started
    finally:
        gc.unfreeze()
    if hits != WORDS:
        raise RuntimeError("host probe computed a wrong result")
    return elapsed


def scaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured next to ``probes``, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / statistics.mean(probes)
