"""Deterministic fan-out of experiment tasks over worker processes.

:class:`ParallelRunner` is the one concurrency primitive in this
library.  It maps a picklable worker function over a task list with a
shared, read-only *context* object, and guarantees:

* **identical results at any worker count** — results are returned in
  task order, every task carries its own pre-derived seed (see
  :mod:`repro.engine.seeding`), and workers never share mutable state;
* **zero overhead in sequential mode** — ``workers <= 1`` runs the
  exact same worker function inline, in the parent process, with the
  parent's context object.  The sequential path *is* the parallel path
  minus the process pool, which is what makes equivalence testable;
* **one context transfer per worker, not per task** — the context
  (corpus, trained classifiers, attack objects) is pickled once per
  map into a blob that workers unpickle once per (worker, map), so a
  10-fold sweep never pickles the inbox 10 times.

The worker function must be a module-level function (picklable by
reference) of signature ``fn(context, task) -> result``.  Tasks and
results cross process boundaries, so they must pickle; everything the
experiment layer ships (datasets, classifiers, attacks, confusion
counts) does.

One pool, one run path
----------------------

Every parallel map runs through :meth:`WorkerPool.run`.  A replication
(the same scenario at N seeds, :mod:`repro.engine.replicate`) opens one
persistent pool and activates it per replica thread
(:func:`use_worker_pool`, thread-local), so fold tasks from many seeds
interleave in one worker set with no per-seed barrier and no pool
startup per map.  Without an active pool, a parallel map opens a
throwaway ``WorkerPool`` sized to its task list and closes it on
return.

``run`` pickles ``(fn, context)`` once, splits the tasks into
``min(workers, tasks)`` contiguous chunks and submits each chunk with
the blob attached under a fresh call token; workers cache the
unpickled pair per token and serve the rest of the call from that
cache.  Because every worker gets a by-value copy, nothing a worker
does can reach the parent's live state — an on-disk token table
included.  Each map still returns its own results in its own task
order, and per-task seeds never depend on scheduling.

A pool built with a :class:`~repro.engine.supervise.SupervisePolicy`
survives its workers: crashes, missed deadlines and lost shared-memory
segments respawn the worker set and retry the unfinished chunks, then
degrade to inline execution (see :mod:`repro.engine.supervise`).
Without a policy the first such failure raises
:class:`~repro.errors.WorkerCrashError`.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.engine import faults, sharedmem
from repro.engine.supervise import SupervisePolicy, SuperviseStats, current_policy
from repro.errors import EngineError, MapTimeoutError, SegmentLostError, WorkerCrashError

__all__ = [
    "ParallelRunner",
    "WorkerPool",
    "active_worker_pool",
    "resolve_workers",
    "use_worker_pool",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``--workers`` value: ``None``/``0`` means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise EngineError(f"workers must be >= 0 (0 = all CPUs), got {workers}")
    return workers


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------

# Worker-side cache of unpickled (fn, context) pairs, keyed by map-call
# token, in LRU order.  A replication keeps at most (parent threads,
# i.e. pool width) calls in flight, so the pool sizes the cache from
# its own width at worker startup (via the initializer) — the live set
# always fits, while finished calls' contexts — potentially a whole
# tokenized inbox plus trained model — roll out instead of staying
# pinned in every worker for the pool's lifetime.  Evicting a
# still-live entry is only a re-unpickle, never an error.
_shared_entries: "OrderedDict[tuple[int, int], tuple[Callable, Any]]" = OrderedDict()
_shared_entry_slots = 8


def _initialize_shared_worker(slots: int) -> None:
    global _shared_entry_slots
    _shared_entry_slots = slots
    faults.mark_worker_process()


def _run_shared_chunk(
    token: tuple[int, int],
    blob: bytes,
    start: int,
    tasks: Sequence[Any],
    fault_key: str | None = None,
) -> tuple[int, list[Any]]:
    """Run one chunk of a map call: the only function workers execute."""
    entry = _shared_entries.get(token)
    if entry is None:
        entry = pickle.loads(blob)
        _shared_entries[token] = entry
        while len(_shared_entries) > _shared_entry_slots:
            _shared_entries.popitem(last=False)
    else:
        _shared_entries.move_to_end(token)
    fn, context = entry
    results: list[Any] = []
    for offset, task in enumerate(tasks):
        if fault_key is not None:
            # Mid-chunk injection point: a crash here discards the
            # chunk's partial results with the process, so the retry
            # recomputes the whole chunk from a freshly-unpickled
            # context — which is what keeps retries bit-identical.
            faults.inject("worker-chunk", f"{fault_key}:{offset}")
        results.append(fn(context, task))
    return start, results


# A tiny map ships to the pool only while its (fn, context) pickle
# stays under this; past it, shipping moves more bytes than the lone
# task can plausibly amortize.
_TINY_MAP_SHIP_LIMIT = 4 << 20


def _tiny_map_ships(blob_size: int) -> bool:
    """Should an unsupervised single-task map ship to the pool at all?

    A lone task gains nothing from the pool *by itself* — the win is
    concurrency with other threads' maps (each replica of a stream
    replication submits one whole-stream task; on a multi-core box the
    pool runs them truly in parallel).  Two situations where shipping
    is pure overhead, measured as the 0.98x pooled-stream regression in
    ``BENCH_stream.json``:

    * **No parallel hardware.**  With one CPU the pool serializes
      everything anyway, so the pickle round-trip is the only effect.
    * **An outsized context.**  Shipping multi-megabyte state across a
      process boundary for a single task costs more than the task's
      share of any concurrency it buys.

    Inline execution computes the identical ``fn(context, task)`` —
    records are byte-identical either way, which
    ``tests/test_replication.py`` pins by monkeypatching this predicate
    in both directions.  Supervised maps always ship: their retry and
    fault accounting lives in the pool.
    """
    if (os.cpu_count() or 1) < 2:
        return False
    return blob_size <= _TINY_MAP_SHIP_LIMIT


def _chunked(tasks: Sequence[Any], chunks: int) -> Iterator[tuple[int, Sequence[Any]]]:
    """Split tasks into ``chunks`` contiguous, near-equal runs.

    Deterministic and order-preserving: chunk boundaries depend only on
    ``(len(tasks), chunks)``, and reassembling the chunk results by
    start index reproduces task order exactly.
    """
    n = len(tasks)
    chunks = min(chunks, n)
    base, extra = divmod(n, chunks)
    start = 0
    for index in range(chunks):
        size = base + (1 if index < extra else 0)
        yield start, tasks[start : start + size]
        start += size


def _drain(futures: Sequence[Any]) -> None:
    """Cancel what can be cancelled, then wait out what cannot.

    A failed map must not leave in-flight sibling tasks running
    unattended: their completions would interleave with (and in the
    shared-cache worst case, race) whatever the caller submits next.
    Cancelled futures resolve immediately; already-running ones are
    waited to completion.  Exceptions stay inside their futures.
    """
    for future in futures:
        future.cancel()
    wait(futures)


def _kill_executor(executor: Executor) -> None:
    """Tear an executor down even when its workers are dead or wedged.

    ``shutdown(wait=True)`` on a pool with a hung worker blocks until
    the worker comes back — which a wedged worker never does.  So:
    terminate every worker process first (SIGTERM, then SIGKILL for
    any survivor), then shut the bookkeeping down without waiting.
    Reaches into ``_processes`` (stable private API since 3.8); if it
    ever disappears, the fallback is a plain non-waiting shutdown.
    """
    process_map = getattr(executor, "_processes", None)
    processes = list(process_map.values()) if process_map else []
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pools may complain
        pass
    for process in processes:
        try:
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(5.0)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass


# What an unsupervised pool runs under: no deadline, no retry, and the
# first infrastructure failure raises.
_UNSUPERVISED = SupervisePolicy(retries=0, degrade=False)


def _provenance(fn: Callable, chunk: Sequence[Any]) -> str:
    """A short, re-runnable description of a chunk's first task."""
    text = f"{fn.__module__}.{fn.__qualname__}({chunk[0]!r})"
    return text if len(text) <= 160 else text[:157] + "..."


class WorkerPool:
    """A process pool that any number of ``map`` calls drain into.

    Activate one per thread with :func:`use_worker_pool` and every
    ``ParallelRunner.map`` issued on that thread routes into it; the
    pool outlives any single ``map``, which is the point: concurrent
    maps (one per replica thread of a replication) keep all workers
    busy across the gaps where a single experiment would be doing
    parent-side preparation.  ``ParallelRunner.map`` also opens a
    throwaway one for a parallel map with no pool active.

    ``policy`` selects supervision (see :mod:`repro.engine.supervise`):
    with one, ``run`` survives crashed, wedged and segment-less workers
    by respawning the worker set and retrying the unfinished chunks;
    with ``None`` the first such failure raises
    :class:`~repro.errors.WorkerCrashError`.  ``stats`` counts what the
    pool had to recover from either way.

    Results are identical to sequential execution: each call's results
    come back in its own task order, and nothing a worker computes
    depends on which pool ran it.  Shared by concurrent threads,
    recovery is too: when one thread's wave breaks the executor, the
    generation check in :meth:`respawn` ensures exactly one thread pays
    the respawn and the others retry into the new worker set.
    """

    def __init__(
        self, workers: int | None = None, policy: SupervisePolicy | None = None
    ) -> None:
        self.workers = resolve_workers(workers)
        if self.workers < 2:
            raise EngineError(
                f"a WorkerPool needs >= 2 workers, got {self.workers}; "
                "run sequentially instead"
            )
        self.policy = policy
        self.stats = SuperviseStats()
        self._executor: Executor = self._spawn_executor()
        self._lock = threading.Lock()
        self._next_token = 0
        self._map_seq = 0
        self._closed = False
        # Bumped on every respawn: a map that saw the pool break hands
        # its generation back, so concurrent threads that hit the same
        # broken executor trigger exactly one respawn.
        self._generation = 0
        # Shared-memory corpus segments whose lifetime is tied to this
        # pool: adopted on the first map call that ships them, unlinked
        # after shutdown (workers can no longer attach a name once the
        # pool is drained).  They deliberately survive respawns — a
        # fresh worker set re-attaches the same names.
        self._adopted_segments: dict[str, "sharedmem.SharedCorpus"] = {}

    def _spawn_executor(self) -> Executor:
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_shared_worker,
            # Live map calls ≈ replica threads ≈ pool width; headroom
            # keeps a just-finished call's context warm for its last
            # straggler chunks.
            initargs=(self.workers + 4,),
        )
        # Start the pool NOW, while (ideally) only the constructing
        # thread exists.  Stock ProcessPoolExecutor starts lazily on
        # first submit — which for a shared pool would mean forking
        # workers from a replica thread, the classic fork-with-threads
        # deadlock setup.  This is the exact hook submit() itself
        # calls: on the fork start method it launches every worker
        # process and the manager thread together.  It is private API;
        # if it disappears, the pool degrades to stock lazy start
        # rather than breaking.
        start = getattr(executor, "_start_executor_manager_thread", None)
        if start is not None:
            start()
        return executor

    @property
    def generation(self) -> int:
        """Current executor incarnation (bumped by :meth:`respawn`)."""
        return self._generation

    def respawn(self, generation: int | None = None) -> bool:
        """Replace the worker set with a fresh one (crash recovery).

        Swaps in a new executor, then kills the old one — terminating
        its processes first, so wedged (hung) workers die instead of
        blocking shutdown.  Adopted shared-memory segments are kept:
        their names must stay attachable for the respawned workers,
        which is the crash-safe half of the segment lifecycle.

        ``generation`` is the incarnation the caller observed broken;
        if another thread already respawned past it this is a no-op
        returning False, so N threads hitting one broken executor pay
        one respawn, not N.
        """
        with self._lock:
            if self._closed:
                raise EngineError("WorkerPool is closed")
            if generation is not None and generation != self._generation:
                return False
            old = self._executor
            self._executor = self._spawn_executor()
            self._generation += 1
        _kill_executor(old)
        return True

    def _token(self) -> tuple[int, int]:
        with self._lock:
            token = self._next_token
            self._next_token += 1
        return (os.getpid(), token)

    def run(
        self,
        fn: Callable[[Any, TaskT], ResultT],
        context: Any,
        tasks: Sequence[TaskT],
    ) -> list[ResultT]:
        """One ``map`` call's worth of tasks through the pool.

        The ``(fn, context)`` pair is pickled exactly once; the tasks
        go out in dispatch waves of ``min(workers, tasks)`` contiguous
        chunks carrying the blob.  Completed chunks are recorded as
        they finish, so work survives a respawn and a retry wave
        resubmits only the chunks still open.  An application
        exception is deterministic: it drains this call's chunks and
        propagates unretried — other concurrent calls are untouched.
        """
        if self._closed:
            raise EngineError("WorkerPool is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        self._adopt_segments(context)
        blob = pickle.dumps((fn, context), protocol=pickle.HIGHEST_PROTOCOL)
        if len(tasks) == 1 and self.policy is None and not _tiny_map_ships(len(blob)):
            # The one inline choice: an unsupervised lone task whose
            # shipping cannot pay on this hardware (or at this context
            # size).  Same deterministic computation, same records.
            return [fn(context, task) for task in tasks]
        policy = self.policy or _UNSUPERVISED
        # Fault keys exist only under supervision: injected faults must
        # fire where a supervisor recovers them, never in the clean
        # reference an unsupervised run is.
        map_seq = None
        if self.policy is not None:
            with self._lock:
                map_seq = self._map_seq
                self._map_seq += 1
        results: list[Any] = [None] * len(tasks)
        pending = list(_chunked(tasks, self.workers))
        attempt = 0
        while pending:
            if map_seq is not None:
                self._maybe_drop_segment(f"{map_seq}:{attempt}")
            open_starts, kind, cause, generation = self._dispatch_wave(
                map_seq, attempt, blob, pending, results
            )
            pending = [entry for entry in pending if entry[0] in open_starts]
            if not pending:
                break
            self.stats.bump(
                {"crash": "crashes", "timeout": "timeouts", "segment": "segment_losses"}[kind]
            )
            if kind in ("crash", "timeout"):
                # Crash: the executor is broken.  Timeout: workers are
                # presumed wedged and must die.  Either way the pool
                # needs a fresh worker set; segment loss leaves the
                # (healthy) workers alone.
                if self.respawn(generation):
                    self.stats.bump("respawns")
            attempt += 1
            if attempt <= policy.retries:
                self.stats.bump("retried_chunks", len(pending))
                continue
            if policy.degrade:
                # Retries exhausted: finish the map in-process, the
                # sequential reference path.  Worker-side fault sites
                # don't fire in the parent, so this always terminates.
                self.stats.bump("degraded_chunks", len(pending))
                for start, chunk in pending:
                    inline = [fn(context, task) for task in chunk]
                    results[start : start + len(inline)] = inline
                break
            starts = tuple(start for start, _ in pending)
            provenance = _provenance(fn, pending[0][1])
            if kind == "timeout":
                raise MapTimeoutError(
                    f"map chunks missed their {policy.timeout:g}s deadline "
                    f"and the retry budget ({policy.retries}) is exhausted",
                    chunk_starts=starts,
                    attempts=attempt,
                    provenance=provenance,
                )
            detail = (
                "worker process died (pool broke)"
                if kind == "crash"
                else f"shared-memory segment lost: {cause}"
            )
            raise WorkerCrashError(
                f"{detail}; retry budget ({policy.retries}) is exhausted",
                chunk_starts=starts,
                attempts=attempt,
                provenance=provenance,
            ) from cause
        return results

    def _dispatch_wave(
        self,
        map_seq: int | None,
        attempt: int,
        blob: bytes,
        pending: list[tuple[int, Sequence[Any]]],
        results: list[Any],
    ) -> tuple[set[int], str, BaseException | None, int]:
        """Submit ``pending`` once; record completions into ``results``.

        Returns the set of chunk starts still open, the failure class
        that left them open (``crash``/``timeout``/``segment``), its
        cause, and the executor generation the wave ran on.
        Application exceptions are not failures in this sense — they
        are deterministic outcomes, so the wave drains and re-raises
        immediately, retrying nothing.
        """
        # Fresh token per wave: a retried chunk must unpickle a
        # pristine (fn, context), never one a previous attempt mutated.
        token = self._token()
        generation = self.generation
        open_starts = {start for start, _ in pending}
        futures = {}
        kind, cause = None, None
        try:
            for start, chunk in pending:
                fault_key = None if map_seq is None else f"{map_seq}:{start}:{attempt}"
                futures[
                    self._executor.submit(
                        _run_shared_chunk, token, blob, start, chunk, fault_key
                    )
                ] = start
        except (BrokenProcessPool, RuntimeError) as exc:
            # The executor broke (or was shut down by a concurrent
            # respawn race) before the wave was fully submitted.
            kind, cause = "crash", exc
        timeout = (self.policy or _UNSUPERVISED).timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        remaining = set(futures)
        try:
            while remaining:
                wait_for = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                done, remaining = wait(remaining, timeout=wait_for)
                if not done:
                    kind = kind or "timeout"
                    break
                app_error: BaseException | None = None
                for future in done:
                    start = futures[future]
                    try:
                        chunk_start, chunk_results = future.result()
                    except BrokenProcessPool as exc:
                        if kind is None:
                            kind, cause = "crash", exc
                    except SegmentLostError as exc:
                        if kind is None:
                            kind, cause = "segment", exc
                    except BaseException as exc:
                        app_error = app_error or exc
                    else:
                        results[chunk_start : chunk_start + len(chunk_results)] = (
                            chunk_results
                        )
                        open_starts.discard(start)
                if app_error is not None:
                    # Deterministic task failure: it would fail
                    # identically on any retry, so surface it as-is.
                    raise app_error
        except BaseException:
            # An app error or an interrupt: drain the siblings so none
            # keeps running unattended.
            _drain(list(futures))
            raise
        return open_starts, kind or "crash", cause, generation

    def _maybe_drop_segment(self, key: str) -> None:
        """The parent-side ``shm-unlink`` injection point."""
        if not faults.should_unlink(key):
            return
        with self._lock:
            names = sorted(self._adopted_segments)
        for name in names:
            if sharedmem.drop_segment_name(name):
                break

    def _adopt_segments(self, context: Any) -> None:
        """Tie any shared-memory corpora in ``context`` to this pool."""
        for handle in sharedmem.adoptable_segments(context):
            with self._lock:
                self._adopted_segments.setdefault(handle.name, handle)

    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        Adopted shared-memory segments are unlinked *after* the workers
        drain — no future map call can attach them through this pool,
        so their names must not outlive it (the leak check in
        ``tests/test_shared_corpus.py`` scans for exactly that).  The
        unlink runs in ``finally``: a broken pool's shutdown may raise,
        and a crashed pool that leaked every adopted segment would
        defeat the whole lifecycle model.
        """
        if not self._closed:
            self._closed = True
            try:
                self._executor.shutdown(wait=True)
            finally:
                with self._lock:
                    adopted, self._adopted_segments = self._adopted_segments, {}
                for handle in adopted.values():
                    handle.unlink()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"WorkerPool(workers={self.workers}, {state})"


_active_pool = threading.local()


@contextmanager
def use_worker_pool(pool: WorkerPool | None) -> Iterator[WorkerPool | None]:
    """Route this thread's ``ParallelRunner.map`` calls into ``pool``.

    Thread-local and re-entrant: each replica thread of a replication
    activates the one shared pool for the duration of its scenario run;
    other threads (and code outside the ``with``) are unaffected.
    ``None`` deactivates routing within the block.
    """
    previous = getattr(_active_pool, "pool", None)
    _active_pool.pool = pool
    try:
        yield pool
    finally:
        _active_pool.pool = previous


def active_worker_pool() -> WorkerPool | None:
    """The pool routing this thread's maps, if any.

    Lets callers that prepare expensive per-map state (shared-memory
    corpora, say) know whether their context will cross process
    boundaries — and who will own the published segments' lifetime.
    """
    return getattr(_active_pool, "pool", None)


class ParallelRunner:
    """Maps ``fn(context, task)`` over tasks, optionally in a process pool."""

    def __init__(self, workers: int | None = 1) -> None:
        self.workers = resolve_workers(workers)

    def map(
        self,
        fn: Callable[[Any, TaskT], ResultT],
        context: Any,
        tasks: Sequence[TaskT],
    ) -> list[ResultT]:
        """Run every task; return results in task order.

        Inline when ``workers <= 1``, or when no pool is active and
        there is at most one task (a pool for one task would pay a fork
        for nothing).  Otherwise the tasks run through
        :meth:`WorkerPool.run`: the pool active on this thread
        (:func:`use_worker_pool`) — even a lone task ships there, which
        frees a replica thread so whole-stream protocols run truly
        concurrently — or else a throwaway pool sized to the task list,
        supervised when a policy is ambient (CLI flags,
        ``REPRO_TIMEOUT``/``REPRO_RETRIES``, or a fault plan).

        A worker exception propagates to the caller and cancels every
        task still queued, so a failed sweep dies promptly instead of
        burning through the rest of the fan-out first.
        """
        tasks = list(tasks)
        pool = active_worker_pool()
        if self.workers <= 1 or (pool is None and len(tasks) <= 1):
            return [fn(context, task) for task in tasks]
        if pool is not None:
            return pool.run(fn, context, tasks)
        with WorkerPool(min(self.workers, len(tasks)), policy=current_policy()) as pool:
            return pool.run(fn, context, tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRunner(workers={self.workers})"
