"""Multi-seed replication: one scenario, N seeds, pooled error bars.

Every figure in the paper pools repeated randomized trials — the
curves are means over folds *and* seeds, not single runs.  This module
is the engine layer for that: :func:`replicate_scenario` runs any
registered scenario at N root seeds and pools the per-seed
:class:`~repro.experiments.results.ExperimentRecord`\\s into one
:class:`~repro.experiments.results.ReplicatedRecord` carrying per-x
mean, sample std and a 95% confidence interval for every rate of every
curve.

**Flattened scheduling.**  A replication is not a loop over seeds.
With ``workers > 1`` it opens ONE shared
:class:`~repro.engine.runner.WorkerPool` and runs the replicas on
concurrent parent threads, each with the pool activated
(:func:`~repro.engine.runner.use_worker_pool`) — so every
``ParallelRunner.map`` inside every replica's protocol drains into the
same worker set.  The (seed × spec × fold) work flattens: a 10-seed,
10-fold sweep is 100 independent tasks saturating all workers, with no
per-seed barrier — while seed A's parent thread is still generating its
corpus, the pool is busy with seed B's folds.  A naive sequential seed
loop pays pool startup per seed and idles every worker during each
seed's preparation stage; ``benchmarks/bench_replication.py`` measures
the difference.

On the NumPy kernel, each replica's encoded inbox crosses into the
pool as a shared-memory CSR segment
(:mod:`repro.engine.sharedmem`) rather than a per-map pickle; the
pool adopts every segment shipped through it and unlinks them all
when the ``with WorkerPool(...)`` block closes, so a replication
leaves ``/dev/shm`` exactly as it found it.

**Determinism.**  Replica ``i`` runs at root seed
``spawn_seed(base_seed, "replicate") || "replica:i"`` — a pure
function of ``(base_seed, i)``, independent of thread scheduling,
worker count and ``PYTHONHASHSEED`` (the interning layer assigns token
IDs in sorted order, see
:meth:`~repro.spambayes.token_table.TokenTable.encode_unique`).  Each
replica's record is exactly what a single ``run_scenario`` at that
seed produces, the pooled record lists the replica seeds so any one of
them can be re-run standalone, and the serialized JSON is
byte-identical across runs, hash seeds and ``--workers`` values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import replace
from typing import Any, Mapping, Sequence, TYPE_CHECKING

from repro.engine import supervise
from repro.engine.checkpoint import ReplicaStore
from repro.engine.runner import WorkerPool, resolve_workers, use_worker_pool
from repro.errors import EngineError
from repro.experiments.results import ExperimentRecord, ReplicatedRecord
from repro.rng import SeedSpawner

if TYPE_CHECKING:  # runtime import would cycle via repro.scenarios
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["replica_seeds", "replicate_scenario"]


def replica_seeds(base_seed: int, count: int) -> list[int]:
    """The root seeds replicas ``0..count-1`` run at.

    Spawned (``SHA-256(base_seed || label)``) rather than consecutive:
    ``base_seed`` and ``base_seed + 1`` replications share no replica
    seeds, so pooling both never silently double-counts a trial.
    """
    if count < 1:
        raise EngineError(f"replication needs >= 1 seed, got {count}")
    spawner = SeedSpawner(base_seed).spawn("replicate")
    return [spawner.child_seed(f"replica:{index}") for index in range(count)]


def _json_safe(value: Any) -> Any:
    """Render an override value into the JSON-stable config block."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in sorted(value.items())}
    return repr(value)


def _resolve_spec(scenario: "str | ScenarioSpec") -> "ScenarioSpec":
    # Late import: repro.scenarios imports the engine package.
    from repro.scenarios import get_scenario

    return get_scenario(scenario) if isinstance(scenario, str) else scenario


def replicate_scenario(
    scenario: "str | ScenarioSpec",
    *,
    seeds: int | Sequence[int] = 8,
    base_seed: int = 0,
    overrides: Mapping[str, Any] | None = None,
    workers: int | None = 1,
    base_config: Any | None = None,
    extra_config: Mapping[str, Any] | None = None,
    checkpoint_dir: str | None = None,
) -> ReplicatedRecord:
    """Run ``scenario`` at N seeds and pool the results.

    ``seeds`` is either a replica count (seeds derived from
    ``base_seed`` via :func:`replica_seeds`) or an explicit seed
    sequence.  ``overrides`` are config-field overrides applied to
    every replica — exactly the ``--set`` surface of ``run-scenario``.
    ``base_config`` is the alternative for callers that already built a
    config (the CLI's ``--scale paper`` path): each replica runs
    ``dataclasses.replace(base_config, seed=..., workers=...)``;
    mixing it with ``overrides`` is an error.  ``extra_config`` entries
    are merged (JSON-rendered) into the pooled record's config block —
    how the ``base_config`` path records what the config was built
    from, since the record cannot infer it.

    ``workers <= 1`` runs the replicas sequentially, entirely in the
    parent process.  ``workers > 1`` flattens every replica's internal
    fan-out into one shared :class:`WorkerPool` (see the module
    docstring).  The returned record is identical either way.

    ``checkpoint_dir`` makes the replication resumable: each replica
    record is persisted (atomically) the moment it completes, replicas
    already checkpointed there are loaded instead of re-run, and
    because every record is a pure function of its seed the pooled
    output is byte-identical to an uninterrupted run.  When a
    supervision policy is ambient (:func:`repro.engine.supervise.current_policy`)
    the shared pool runs under it, so worker crashes and hangs inside
    any replica are retried rather than fatal.
    """
    from repro.scenarios import run_scenario  # late: import cycle

    spec = _resolve_spec(scenario)
    if isinstance(seeds, int):
        seed_list = replica_seeds(base_seed, seeds)
    else:
        seed_list = [int(seed) for seed in seeds]
        if not seed_list:
            raise EngineError("replication needs >= 1 seed")
        if len(set(seed_list)) != len(seed_list):
            raise EngineError(f"replica seeds must be distinct, got {seed_list}")
    if base_config is not None and overrides:
        raise EngineError("pass either base_config or overrides, not both")
    # seed/workers are replication-owned: every replica runs at its
    # derived seed with the pool's worker count.  Accepting them as
    # overrides would silently archive a config block contradicting
    # the replica_seeds that actually ran.
    for reserved in ("seed", "workers"):
        if overrides and reserved in overrides:
            raise EngineError(
                f"override {reserved!r} conflicts with replication; use the "
                f"{'base_seed' if reserved == 'seed' else 'workers'} parameter"
            )
    pool_workers = resolve_workers(workers)

    def replica_config(seed: int, config_workers: int) -> Any:
        if base_config is not None:
            return replace(base_config, seed=seed, workers=config_workers)
        merged = dict(overrides or {})
        merged["seed"] = seed
        merged["workers"] = config_workers
        return spec.build_config(**merged)

    def run_replica(seed: int, config_workers: int) -> ExperimentRecord:
        outcome = run_scenario(spec, config=replica_config(seed, config_workers))
        if outcome.record is None:
            raise EngineError(
                f"scenario {spec.name!r} produces no serializable record; "
                "replication has nothing to pool"
            )
        return outcome.record

    store = ReplicaStore(checkpoint_dir, spec.name) if checkpoint_dir else None
    records: list[ExperimentRecord | None] = [None] * len(seed_list)
    todo = list(range(len(seed_list)))
    if store is not None:
        todo = []
        for index, seed in enumerate(seed_list):
            cached = store.load(seed)
            if cached is not None:
                records[index] = cached
            else:
                todo.append(index)

    def finish_replica(index: int, record: ExperimentRecord) -> None:
        records[index] = record
        if store is not None:
            store.save(seed_list[index], record)

    policy = supervise.current_policy()
    if pool_workers <= 1 or len(todo) <= 1:
        # No flattening possible — but a lone replica still honours the
        # caller's worker count through its own private fold fan-out.
        config_workers = pool_workers if len(todo) == 1 else 1
        for index in todo:
            finish_replica(index, run_replica(seed_list[index], config_workers))
    else:
        # One replica thread per pool worker: a replica thread spends
        # most of its life blocked on pool results, so whenever one is
        # in its parent-side preparation stage (corpus generation,
        # full-model training) the other threads' queued fold tasks
        # keep the workers busy.  Exceeding the pool width buys no
        # further queue depth worth its GIL churn (measured).
        thread_count = min(len(todo), max(2, pool_workers))
        with WorkerPool(pool_workers, policy=policy) as pool:

            def threaded_replica(index: int) -> tuple[int, ExperimentRecord]:
                with use_worker_pool(pool), supervise.use_supervision(policy):
                    return index, run_replica(seed_list[index], pool_workers)

            with ThreadPoolExecutor(max_workers=thread_count) as threads:
                futures = [threads.submit(threaded_replica, index) for index in todo]
                try:
                    for future in as_completed(futures):
                        index, record = future.result()
                        finish_replica(index, record)
                except BaseException:
                    for future in futures:
                        future.cancel()
                    raise

    config: dict[str, Any] = {
        "scenario": spec.name,
        "n_seeds": len(seed_list),
        "base_seed": base_seed if isinstance(seeds, int) else None,
        "replica_seeds": list(seed_list),
        "overrides": {
            key: _json_safe(value) for key, value in sorted((overrides or {}).items())
        },
    }
    for key, value in (extra_config or {}).items():
        config[str(key)] = _json_safe(value)
    return ReplicatedRecord.pool(records, config=config)
