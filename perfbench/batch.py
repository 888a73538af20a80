"""The system-under-test process of a batch workload.

Started by ``run.py`` with the pinned environment (``workloads.sut_env``).
It imports the package, resolves the scenario and prints ``ready`` —
the end of set-up — then, unless ``--setup-only``, calls
``replicate_scenario`` back to back while another call fits in
``--seconds`` (at least ``--min-calls``, at most ``workloads.POOL``),
timing each call from the call to the serialized pooled record.  The
last stdout line is a JSON summary for ``run.py``; each call also
prints its own line as it finishes.  Before each call it waits for a
``go`` line on stdin, so ``run.py`` can run its host-speed probe
(``hostspeed.py``) while this process is idle.

``--trace-dir`` installs the span wrappers first (``tracing.py``) and
writes the spans there.  ``--calls`` runs exactly the given call
indices instead of a time budget (the reference re-run).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import BATCH, POOL, call_seed  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = 0.0
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own = int(line.split()[1]) / 1024.0
    except OSError:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(BATCH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-calls", type=int, default=3)
    parser.add_argument("--calls", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()
    workload = BATCH[args.workload]

    import repro  # noqa: F401
    from repro.scenarios import get_scenario, replicate_scenario

    spec = get_scenario(workload["scenario"])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.profile:
        print(json.dumps({"hot": _hot_functions(spec, workload, args.seed)}), flush=True)
        return 0

    tracer = None
    if args.trace_dir:
        import tracing

        tracer = tracing.install(args.trace_dir)

    overrides = dict(workload["overrides"])
    fixed = [int(part) for part in args.calls.split(",") if part]
    calls = []
    started = time.perf_counter()
    index = 0
    while True:
        if fixed:
            if len(calls) == len(fixed):
                break
            index = fixed[len(calls)]
        elif len(calls) == POOL:
            break
        elif len(calls) >= args.min_calls:
            # Stop before a call that would overrun the budget.
            typical = sorted(call["seconds"] for call in calls)[len(calls) // 2]
            if time.perf_counter() - started + typical > args.seconds:
                break
        if sys.stdin.readline() != "go\n":
            break
        base_seed = call_seed(args.seed, index)
        entry = {"index": index, "base_seed": base_seed}
        t0 = time.perf_counter()
        try:
            record = replicate_scenario(
                spec,
                seeds=workload["seeds"],
                base_seed=base_seed,
                workers=workload["workers"],
                overrides=overrides,
            )
            payload = json.dumps(record.as_dict(), indent=2)
            entry["seconds"] = time.perf_counter() - t0
            entry["sha256"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            entry["seconds"] = time.perf_counter() - t0
            entry["error"] = f"{type(exc).__name__}: {exc}"
        calls.append(entry)
        # One line per call, so a hung call still leaves the finished
        # ones with run.py, which enforces the per-call deadline.
        print(json.dumps({"call": entry}), flush=True)
        index += 1

    summary = {"calls": calls, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.flush()
    print(json.dumps(summary), flush=True)
    return 0


def _hot_functions(spec, workload, seed) -> list[list]:
    """Top self-time functions of one untraced call under cProfile."""
    import cProfile
    import pstats

    from repro.scenarios import replicate_scenario

    profiler = cProfile.Profile()
    profiler.enable()
    replicate_scenario(
        spec, seeds=workload["seeds"], base_seed=call_seed(seed, 0),
        workers=workload["workers"], overrides=dict(workload["overrides"]),
    )
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    rows = sorted(
        ((value[2], f"{Path(key[0]).name}:{key[1]}:{key[2]}") for key, value in stats.items()),
        reverse=True,
    )
    return [[name, round(seconds, 4)] for seconds, name in rows[:12]]


if __name__ == "__main__":
    sys.exit(main())
