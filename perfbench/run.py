#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload stream-ramp --seed 3 --trace 0
    python3 perfbench/run.py --steady --runs 5   # two sets per workload
    python3 perfbench/run.py --pin               # rewrite digests.json

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

A run measures for ``--seconds`` (split between the workload's phases),
checks every output against a reference, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
run with ``--trace 1``.  The line before it is the environment envelope
(commit, CPU count, Python/NumPy versions, kernel, store, seeds).
Workloads, metrics and bounds are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from workloads import BATCH, POOL, ROOT, SRC, WORKLOADS, sut_env  # noqa: E402

DIGESTS = BENCH_DIR / "digests.json"
SCRATCH = ".perfbench_tmp"  # span files of a traced run, removed after it
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 4  # set-ups per run; setup_s is their median
ACCOUNTED_BAR = 0.9
# A call (a few seconds at most) silent this long is hung: it is killed
# and counted as failed, so a run still ends well inside 180 s.
CALL_DEADLINE_S = 60.0
# Per-layer metrics only the serve workload produces (0 on the others).
SERVE_ONLY = (
    "serve.batches", "serve.mean_batch", "serve.errors",
    "loadgen.late_p99_ms", "loadgen.backlog_max",
    "slo.score_p50_ms", "slo.score_p99_ms", "slo.write_p95_ms", "slo.max_rate_rps",
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def _spawn_batch(args: list[str], hash_seed: str = workloads.HASH_SEED):
    """Start a batch child; return (process, seconds from spawn to ready).

    The child leads its own process group, so a hung call can be
    killed together with its pool workers.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "batch.py"), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=sut_env(hash_seed),
        start_new_session=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        _, err = proc.communicate()
        raise RuntimeError(f"batch child failed during set-up: {line!r} {err[-2000:]}")
    return proc, ready


def _finish(proc) -> dict:
    """The child's summary; a call silent past the deadline has failed.

    Before each of the child's calls this process runs the host-speed
    probe, then lets the call go; the summary's ``probe_s`` holds the
    probe times.  On a timeout the child's whole process group is
    killed and the summary holds the calls that finished plus one
    timed-out call.
    """
    import selectors

    calls: list[dict] = []
    probes: list[float] = []

    def let_go() -> None:
        probes.append(hostspeed.probe())
        with contextlib.suppress(BrokenPipeError):  # the child has stopped
            proc.stdin.write("go\n")
            proc.stdin.flush()

    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        let_go()
        while True:
            if not selector.select(CALL_DEADLINE_S):
                rss = _peak_rss_mb(proc.pid)
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                for stream in (proc.stdin, proc.stdout, proc.stderr):
                    stream.close()
                index = calls[-1]["index"] + 1 if calls else 0
                print(f"# call {index} did not finish within {CALL_DEADLINE_S:.0f} s; killed")
                calls.append({"index": index, "seconds": CALL_DEADLINE_S,
                              "error": f"no result within {CALL_DEADLINE_S:.0f} s"})
                return {"calls": calls, "peak_rss_mb": rss, "probe_s": probes}
            line = proc.stdout.readline()
            if not line:
                break
            message = json.loads(line)
            if "call" in message:
                calls.append(message["call"])
                let_go()
            else:
                summary = message
    finally:
        selector.close()
    with contextlib.suppress(BrokenPipeError):
        proc.stdin.close()
    err = proc.stderr.read()
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(f"batch child exited {proc.returncode}: {err[-2000:]}")
    summary["probe_s"] = probes
    return summary


def _batch_setups(name: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh children, each scaled by a probe
    run just before it."""
    samples = []
    for _ in range(count):
        probe = hostspeed.probe()
        proc, ready = _spawn_batch(["--workload", name, "--seed", str(seed), "--setup-only"])
        proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed")
        samples.append(hostspeed.scaled(ready, [probe]))
    return samples


def _check_calls(name: str, calls: list[dict]) -> int:
    """Count failed calls: raised, or bytes differing from the pinned digest.

    Every base seed of the pool has a pinned digest, so every call that
    returned is compared; a call without one counts as failed.
    """
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {})
    failed = 0
    for call in calls:
        if "error" in call:
            print(f"# call {call['index']} raised: {call['error']}")
            failed += 1
        elif call["sha256"] != pins.get(str(call["base_seed"])):
            print(f"# call {call['index']} (base seed {call['base_seed']}) "
                  "differs from its pinned digest")
            failed += 1
    return failed


def batch_run(name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    setups = _batch_setups(name, seed, SETUP_SAMPLES - 1)
    # The set-ups above take about a tenth of the budget.
    probe = hostspeed.probe()
    proc, ready = _spawn_batch(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds * 0.9)]
    )
    setups.append(hostspeed.scaled(ready, [probe]))
    summary = _finish(proc)
    calls = summary["calls"]
    failed = _check_calls(name, calls)
    # Measured time over calls made: the inverse of throughput at the
    # stated size, scaled to the reference host speed by the probes
    # run between the calls.  A failed call counts with the time it
    # took to fail.
    wall = statistics.mean(call["seconds"] for call in calls)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": hostspeed.scaled(wall, summary["probe_s"]),
        "peak_rss_mb": summary["peak_rss_mb"],
        "ok_ratio": (len(calls) - failed) / len(calls),
    }
    info = {
        "calls": len(calls),
        "wall_run_s": wall,
        "call_s": [call["seconds"] for call in calls],
        "probe_s": summary["probe_s"],
    }
    return metrics, len(calls), failed, info


def batch_trace(name: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Untraced and traced children over the same calls, in ABBA order.

    The first untraced child sets how many calls fit in a quarter of
    the budget; a traced child repeats them, then a second traced
    child and a second untraced one take the next as many calls.  The
    order cancels a steady drift in host speed out of
    ``trace.overhead``.  The traced children run under another hash
    seed, so their records are also the determinism reference.
    """
    import tracing

    base = ["--workload", name, "--seed", str(seed)]
    first, _ = _spawn_batch(base + ["--seconds", str(seconds / 4), "--min-calls", "1"])
    # Both rounds together stay within the pool of base seeds.
    plain_calls = _finish(first)["calls"][: POOL // 2]
    count = len(plain_calls)
    rounds = [range(0, count), range(count, 2 * count)]
    traced_calls: list[dict] = []
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=_scratch())
    try:
        for indices in rounds:
            traced, _ = _spawn_batch(
                base + ["--calls", ",".join(map(str, indices)), "--trace-dir", trace_dir],
                hash_seed=workloads.REFERENCE_HASH_SEED,
            )
            traced_calls += _finish(traced)["calls"]
        second, _ = _spawn_batch(base + ["--calls", ",".join(map(str, rounds[1]))])
        plain_calls += _finish(second)["calls"]
        spans, counts, roots = tracing.load(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    failed = _check_calls(name, plain_calls) + _check_calls(name, traced_calls)
    # Neither tracing nor the hash seed may change a single record byte.
    for plain_call, traced_call in zip(plain_calls, traced_calls):
        if "error" not in traced_call and plain_call.get("sha256") != traced_call.get("sha256"):
            print(f"# traced call {traced_call['index']} changed the record")
            failed += 1
    wall = sum(call["seconds"] for call in traced_calls)
    untraced = statistics.mean(call["seconds"] for call in plain_calls)
    metrics, unaccounted = _layer_metrics(spans, counts, roots, len(traced_calls), wall)
    metrics["trace.overhead"] = wall / len(traced_calls) / untraced - 1.0
    metrics.update({metric: 0 for metric in SERVE_ONLY})
    info = {"unaccounted": unaccounted}
    if metrics["trace.accounted_share"] < ACCOUNTED_BAR:
        proc, _ = _spawn_batch(base + ["--profile"])
        info["hot_functions"] = _finish(proc)["hot"]
    attempted = len(plain_calls) + len(traced_calls)
    return metrics, attempted, failed, info


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------


def _mixed_passes(daemon, traffic, seed: int, seconds: float, outcome, minimum: int = 3):
    """Closed-loop mixed passes for ``seconds``, a host probe before each."""
    import serve

    rng = random.Random(seed)
    started = time.perf_counter()
    while len(outcome.bulk_s) < minimum or time.perf_counter() - started < seconds:
        outcome.probe_s.append(hostspeed.probe())
        serve.bulk_pass(daemon, traffic, rng, outcome)


def serve_run(seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    import serve

    traffic = serve.make_traffic(seed)
    setups = []
    for sample in range(SETUP_SAMPLES):
        probe = hostspeed.probe()
        daemon, ready = serve.start_trained(traffic)
        setups.append(hostspeed.scaled(ready, [probe]))
        if sample < SETUP_SAMPLES - 1:
            daemon.shutdown()
    outcome = serve.ServeOutcome()
    try:
        # The rest of the budget goes to replaying every reply on the
        # library classifier (serve.verify), which is not timed.
        cpu_before = _cpu_seconds(daemon.proc.pid)
        _mixed_passes(daemon, traffic, seed, seconds * 0.6, outcome)
        cpu = _cpu_seconds(daemon.proc.pid) - cpu_before
        rss = daemon.peak_rss_mb()
    finally:
        daemon.shutdown()
    serve.verify(traffic, outcome)
    # The daemon's CPU time per pass, not the pass's wall time: generator
    # and daemon share two vCPUs, and the waits between them swing with
    # the other tenants' load far more than the daemon's work does.
    passes = len(outcome.bulk_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": hostspeed.scaled(cpu / passes, outcome.probe_s),
        "peak_rss_mb": rss,
        "ok_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    info = {
        "passes": passes,
        "wall_run_s": statistics.mean(outcome.bulk_s),
        "daemon_cpu_s": cpu,
        "pass_s": outcome.bulk_s,
        "probe_s": outcome.probe_s,
    }
    return metrics, outcome.attempted, outcome.failed, info


def serve_trace(seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Untraced daemon (passes, then the SLO phase), then a traced one."""
    import serve
    import tracing
    from loadgen import quantile

    traffic = serve.make_traffic(seed)
    plain = serve.ServeOutcome()
    daemon, _ = serve.start_trained(traffic)
    try:
        _mixed_passes(daemon, traffic, seed, seconds / 4, plain)
        rng = random.Random(seed + 1)
        # A pass whose generator fell behind is not scored: try again,
        # at most twice.  Every request still counts for correctness.
        for _ in range(3):
            slo = serve.ServeOutcome()
            serve.report_pass(daemon, traffic, serve.REPORT_MIN_SECONDS, rng, slo)
            plain.all_requests.extend(slo.all_requests)
            if not slo.invalid:
                break
        ladder = serve.ServeOutcome()
        serve.ladder(daemon, traffic, rng, ladder)
        plain.all_requests.extend(ladder.all_requests)
    finally:
        daemon.shutdown()

    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=_scratch())
    traced = serve.ServeOutcome()
    try:
        daemon, _ = serve.start_trained(traffic, trace_dir=trace_dir)
        try:
            cpu_before = _cpu_seconds(daemon.proc.pid)
            phase_start = time.perf_counter()
            _mixed_passes(daemon, traffic, seed, 0.0, traced, minimum=len(plain.bulk_s))
            cpu = _cpu_seconds(daemon.proc.pid) - cpu_before
            stats = daemon.request({"verb": "stats"})
        finally:
            daemon.shutdown()
        spans, counts, roots = tracing.load(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    # Only the measured passes count, not the set-up training writes.
    spans = [span for span in spans if span[3] >= phase_start]
    serve.verify(traffic, plain)
    serve.verify(traffic, traced)
    metrics, unaccounted = _layer_metrics(spans, counts, roots, len(traced.bulk_s), cpu)
    metrics["trace.overhead"] = statistics.mean(traced.bulk_s) / statistics.mean(
        plain.bulk_s
    ) - 1.0
    batching = stats["batching"]
    metrics.update({
        "serve.batches": batching["batches"],
        "serve.mean_batch": batching["mean_batch"],
        "serve.errors": stats["errors"],
        "loadgen.late_p99_ms": slo.late_p99_ms,
        "loadgen.backlog_max": slo.backlog_max,
        "slo.score_p50_ms": quantile(slo.score_ms, 0.50),
        "slo.score_p99_ms": quantile(slo.score_ms, 0.99),
        "slo.write_p95_ms": quantile(slo.write_ms, 0.95),
        "slo.max_rate_rps": ladder.max_rate_rps,
    })
    if metrics["trace.accounted_share"] < ACCOUNTED_BAR:
        unaccounted_hot = _profiled_daemon(traffic, seed)
    else:
        unaccounted_hot = []
    info = {
        "unaccounted": unaccounted,
        "hot_functions": unaccounted_hot,
        "daemon_cpu_s": cpu,
        "passes": len(traced.bulk_s),
        "score_samples": len(slo.score_ms),
        "write_samples": len(slo.write_ms),
        "ladder": ladder.ladder,
        "slo_invalid": slo.invalid,
    }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if slo.invalid:
        # Every reporting attempt ran behind schedule: the slo.* figures
        # above are the last attempt's, not a valid measurement, so the
        # unscored phase counts as one failed operation.
        print("# slo phase invalid: " + "; ".join(slo.invalid))
        attempted += 1
        failed += 1
    return metrics, attempted, failed, info


def _hung_corpus(exc) -> tuple[dict, int, int, dict]:
    """A serve run whose corpus never finished: one failed operation.

    The run reports the time spent waiting as its set-up and run time;
    layers that never ran read 0.
    """
    print(f"# {exc}")
    metrics = dict.fromkeys(_units(), 0.0)
    metrics.update({
        "setup_s": exc.seconds,
        "run_s": exc.seconds,
        "corpus.generate_s": exc.seconds,
        "peak_rss_mb": _peak_rss_mb(os.getpid()),
    })
    return metrics, 1, 1, {"corpus_timeout_s": exc.seconds}


def _profiled_daemon(traffic, seed: int) -> list:
    """Top self-time functions of a daemon running two passes under cProfile."""
    import serve

    out = Path(tempfile.mkdtemp(prefix="profile-", dir=_scratch()))
    try:
        daemon, _ = serve.start_trained(traffic, profile_out=str(out / "hot.json"))
        try:
            _mixed_passes(daemon, traffic, seed, 0.0, serve.ServeOutcome(), minimum=2)
        finally:
            daemon.shutdown()
        return json.loads((out / "hot.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Per-layer metrics from merged spans
# ----------------------------------------------------------------------


def _layer_metrics(spans, counts, roots: set[int], units: int, busy: float) -> tuple[dict, list]:
    """Per-unit layer times and counts, and the accounted share.

    ``busy`` is the traced processes' wall time over the traced calls
    (batch) or the daemon's CPU time (serve).  Pool workers add the
    duration of their outermost spans; the traced processes' waits
    inside a pooled ``engine.map`` are subtracted, since that time is
    spent in the workers.
    """
    import tracing

    own = tracing.self_times(spans)
    worker_busy = sum(
        span[4] - span[3] for span in spans if span[0] not in roots and span[5] is None
    )
    pooled_wait = 0.0
    if any(span[0] not in roots for span in spans):
        parent_only = [span for span in spans if span[0] in roots]
        pooled_wait = tracing.self_times(parent_only).get("engine.map", 0.0)
    total = max(busy - pooled_wait, 0.0) + worker_busy
    leaf = sum(t for name, t in own.items() if name.split(".")[0] in tracing.LEAF_LAYERS)
    per = 1.0 / max(units, 1)
    calls, missed = tracing.fallback_calls(spans)
    nd_calls = counts.get("ndkernel.calls", 0)
    metrics = {
        "corpus.generate_s": own.get("corpus.generate", 0.0) * per,
        "corpus.messages": counts.get("corpus.messages", 0) * per,
        "tokenizer.tokenize_s": own.get("tokenizer.tokenize", 0.0) * per,
        "tokenizer.messages": counts.get("tokenizer.messages", 0) * per,
        "token_table.encode_s": own.get("token_table.encode", 0.0) * per,
        "token_table.size": counts.get("token_table.size", 0),
        "classifier.learn_s": own.get("classifier.learn", 0.0) * per,
        "classifier.unlearn_s": own.get("classifier.unlearn", 0.0) * per,
        "classifier.snapshot_restore_s": own.get("classifier.snapshot_restore", 0.0) * per,
        "classifier.score_many_s": own.get("classifier.score_many", 0.0) * per,
        "classifier.evaluate_s": own.get("classifier.evaluate", 0.0) * per,
        "classifier.fallback_share": (missed / calls) if calls else 0.0,
        "ndkernel.score_s": own.get("ndkernel.score", 0.0) * per,
        "ndkernel.rows": counts.get("ndkernel.rows", 0) * per,
        "ndkernel.rows_per_call": (counts.get("ndkernel.rows", 0) / nd_calls) if nd_calls else 0.0,
        "attacks.generate_s": own.get("attacks.generate", 0.0) * per,
        "roni.measure_s": own.get("roni.measure", 0.0) * per,
        "roni.candidates": counts.get("roni.candidates", 0) * per,
        "threshold.fit_s": own.get("threshold.fit", 0.0) * per,
        "threshold.fits": counts.get("threshold.fits", 0) * per,
        "engine.map_s": own.get("engine.map", 0.0) * per,
        "engine.tasks": counts.get("engine.tasks", 0) * per,
        "engine.retries": counts.get("engine.retried_chunks", 0) * per,
        "stream.loop_s": own.get("stream.loop", 0.0) * per,
        "results.pool_s": own.get("results.pool", 0.0) * per,
        "trace.accounted_share": (leaf / total) if total > 0 else 0.0,
    }
    unaccounted = sorted(
        ((name, round(t * per, 4)) for name, t in own.items()
         if name.split(".")[0] not in tracing.LEAF_LAYERS),
        key=lambda item: -item[1],
    )
    unaccounted.append(("(outside every span)", round(max(total - sum(own.values()) + pooled_wait, 0.0) * per, 4)))
    return metrics, unaccounted


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _scratch() -> str:
    path = ROOT / SCRATCH
    path.mkdir(exist_ok=True)
    return str(path)


def _envelope(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    if not sha:
        import hashlib

        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
        sha = "src-sha256:" + digest.hexdigest()[:16]
    import numpy

    return {
        "schema": 1,
        "commit": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": workloads.KERNEL,
        "store": workloads.STORE,
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": workloads.HASH_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _units() -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if workload in BATCH:
        fn = batch_trace if trace else batch_run
        metrics, attempted, failed, info = fn(workload, seed, seconds)
    else:
        import serve

        fn = serve_trace if trace else serve_run
        try:
            metrics, attempted, failed, info = fn(seed, seconds)
        except serve.CorpusTimeout as exc:
            metrics, attempted, failed, info = _hung_corpus(exc)
    units = _units()
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    correct = failed == 0
    for name in wanted:
        print(f"# {name:32s} {metrics[name]:14.6g} {units[name]}")
    print("# info " + json.dumps(info, default=str))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }


def _spread(values: list[float]) -> float:
    """Interquartile distance over the median: a metric's spread."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def steady(seconds: float, runs: int) -> int:
    """Two independent sets of ``runs`` seeds per workload, compared.

    Per workload and end-to-end metric it prints each set's median and
    spread, the spread over both sets together, and whether the sets'
    medians agree within the metric's bound (and, except ``setup_s``,
    whether every spread stays within it).
    """
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    agree = True
    for workload in WORKLOADS:
        sets: list[dict[str, list[float]]] = [{}, {}]
        for set_index, values in enumerate(sets):
            for run in range(runs):
                seed = 100 + set_index * runs + run
                result = run_once(workload, seed, seconds, 0)
                agree &= result["correct"]
                for name, entry in result["metrics"].items():
                    values.setdefault(name, []).append(entry["value"])
        for name, bound in bounds.items():
            first, second = sets[0][name], sets[1][name]
            medians = [statistics.median(first), statistics.median(second)]
            spreads = [_spread(first), _spread(second), _spread(first + second)]
            gap = abs(medians[1] - medians[0]) / medians[0]
            ok = gap <= bound and (name == "setup_s" or max(spreads) <= bound)
            agree &= ok
            print(
                f"STEADY {workload:15s} {name:12s} medians {medians[0]:.5g} {medians[1]:.5g} "
                f"spread {spreads[0]:.4f} {spreads[1]:.4f} all {spreads[2]:.4f} "
                f"gap {gap:.4f} bound {bound} {'ok' if ok else 'DISAGREE'}",
                flush=True,
            )
    return 0 if agree else 1


def pin() -> int:
    """Recompute ``digests.json``: one record digest per pool base seed."""
    pins: dict[str, dict[str, str]] = {}
    indices = ",".join(str(index) for index in range(POOL))
    for name in BATCH:
        proc, _ = _spawn_batch(["--workload", name, "--seed", "0", "--calls", indices])
        calls = _finish(proc)["calls"]
        failed = [call for call in calls if "error" in call]
        if failed:
            return _fail(f"{name}: {len(failed)} calls failed, e.g. {failed[0]}; nothing pinned")
        pins[name] = {str(call["base_seed"]): call["sha256"]
                      for call in sorted(calls, key=lambda call: call["base_seed"])}
        print(f"{name}: {len(calls)} digests", flush=True)
    DIGESTS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no package to benchmark at {SRC / 'repro'}")
    if not BENCHMARK.is_file():
        return _fail(f"missing {BENCHMARK.name}")
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"])
    os.environ.update(sut_env())
    sys.path.insert(0, str(SRC))
    if args.steady:
        return steady(args.seconds, args.runs)
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except Exception as exc:  # noqa: BLE001 - one diagnostic, no result line
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        with contextlib.suppress(OSError):  # only if no trace is left in it
            (ROOT / SCRATCH).rmdir()
    print(json.dumps(_envelope(args)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
