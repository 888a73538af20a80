"""Worker supervision: deadlines, crash detection, bounded retry,
graceful degradation.

An unsupervised :class:`~repro.engine.runner.WorkerPool` is trusting:
one dead worker breaks the executor and the map raises
:class:`~repro.errors.WorkerCrashError`; one wedged worker blocks it
forever.  A :class:`SupervisePolicy` handed to the pool applies the
discipline long-lived mail systems apply to their children —
supervise, respawn, retry, and when all else fails do the work
yourself.  This module holds the policy, its ambient resolution and
the :class:`SuperviseStats` ledger; the wave loop that enforces it is
:meth:`WorkerPool.run <repro.engine.runner.WorkerPool.run>`:

* **Deadlines** — each dispatch wave of chunks gets
  ``policy.timeout`` seconds; chunks that miss it are presumed wedged,
  their workers are killed, and the chunks are retried on a fresh
  worker set.
* **Crash detection** — a worker that dies mid-chunk (segfault,
  OOM-kill, injected ``os._exit``) breaks the executor
  (``BrokenProcessPool``); the pool respawns its workers and retries
  only the chunks that never completed.
* **Chunk-level accounting** — results are recorded per chunk as
  chunks finish, so completed work *survives* a respawn; a crash at
  90% re-runs 10%.
* **Bounded retry, then degradation** — after ``policy.retries``
  respawn-and-retry rounds, the pool runs the remaining chunks
  inline, sequentially, in the parent process (``policy.degrade``,
  default on) — slower, but always terminates with correct results.
  With degradation off it raises
  :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.MapTimeoutError` carrying chunk and task
  provenance.

Determinism under retry
-----------------------

The contract inherited from the engine — identical results at any
worker count — extends to *identical results under any fault
schedule*, because every recovery path recomputes from pristine
state:

1. A chunk's results are returned all-or-nothing: a worker that dies
   mid-chunk takes its partial results with it, so no partially-poked
   state is ever observed.
2. Every retry wave uses a **fresh call token**, so workers unpickle a
   pristine ``(fn, context)`` — a retried chunk can never see a
   context object some earlier attempt mutated.
3. The degraded path runs the caller's original ``fn(context, task)``
   inline — exactly the sequential execution path, which is the
   equivalence the engine is tested against.

``tests/test_faults.py`` proves the theorem differentially: every
registered scenario family produces byte-identical records under
injected crashes, hangs and segment unlinks.

Activation
----------

A policy is *ambient*: :func:`use_supervision` installs one
thread-locally (the CLI's ``--timeout``/``--retries`` path), and the
environment supplies a default (``REPRO_TIMEOUT``, ``REPRO_RETRIES``,
``REPRO_DEGRADE`` — and merely setting ``REPRO_FAULTS`` activates
supervision, because injected faults without a supervisor would just
be crashes).  ``ParallelRunner.map`` hands the ambient policy to the
throwaway pool it opens; a replication hands it to its shared pool.
With no policy active, pools run unsupervised and inject no faults.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.engine import faults
from repro.errors import EngineError

__all__ = [
    "DEFAULT_RETRIES",
    "SupervisePolicy",
    "SuperviseStats",
    "current_policy",
    "policy_from_env",
    "use_supervision",
]

TIMEOUT_ENV = "REPRO_TIMEOUT"
"""Per-wave chunk deadline in seconds (float; empty/unset = none)."""
RETRIES_ENV = "REPRO_RETRIES"
"""Respawn-and-retry rounds per map call before degradation."""
DEGRADE_ENV = "REPRO_DEGRADE"
"""Set to ``0`` to raise after exhausted retries instead of running
the remaining chunks inline."""

DEFAULT_RETRIES = 2
"""Retry rounds when supervision is active but no count configured."""


@dataclass(frozen=True)
class SupervisePolicy:
    """How a supervised map treats its workers.

    ``timeout`` is the deadline, in seconds, for one dispatch wave of
    chunks — queueing included, so size it for the map, not for one
    task.  ``retries`` bounds how many respawn-and-retry rounds a map
    may consume.  ``degrade`` selects the endgame: inline sequential
    execution of whatever never completed (default), or a structured
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.MapTimeoutError`.
    """

    timeout: float | None = None
    retries: int = DEFAULT_RETRIES
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise EngineError(f"timeout must be > 0 seconds, got {self.timeout}")
        if self.retries < 0:
            raise EngineError(f"retries must be >= 0, got {self.retries}")


class SuperviseStats:
    """Thread-safe counters of what supervision had to do.

    Observability for tests and post-mortems: a differential fault run
    asserts not only that the records match but that faults actually
    fired (``crashes``/``timeouts`` nonzero) — a fault suite that
    silently stopped injecting proves nothing.
    """

    _FIELDS = (
        "crashes",
        "timeouts",
        "segment_losses",
        "respawns",
        "retried_chunks",
        "degraded_chunks",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, count: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SuperviseStats({inner})"


# ----------------------------------------------------------------------
# Ambient policy resolution
# ----------------------------------------------------------------------

_UNSET = object()
_policy_local = threading.local()


def policy_from_env() -> SupervisePolicy | None:
    """The environment-default policy, or ``None`` when inactive.

    Active when any supervision knob is set *or* a fault plan is live:
    injecting faults into an unsupervised engine would only prove that
    crashes crash.
    """
    timeout_raw = os.environ.get(TIMEOUT_ENV, "").strip()
    retries_raw = os.environ.get(RETRIES_ENV, "").strip()
    try:
        timeout = float(timeout_raw) if timeout_raw else None
    except ValueError:
        raise EngineError(f"{TIMEOUT_ENV} must be a number, got {timeout_raw!r}") from None
    try:
        retries = int(retries_raw) if retries_raw else None
    except ValueError:
        raise EngineError(f"{RETRIES_ENV} must be an integer, got {retries_raw!r}") from None
    degrade = os.environ.get(DEGRADE_ENV, "").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )
    if timeout is None and retries is None and faults.active_plan() is None:
        return None
    return SupervisePolicy(
        timeout=timeout,
        retries=DEFAULT_RETRIES if retries is None else retries,
        degrade=degrade,
    )


@contextmanager
def use_supervision(policy: SupervisePolicy | None) -> Iterator[SupervisePolicy | None]:
    """Install ``policy`` for this thread's engine maps.

    ``None`` explicitly *disables* supervision within the block, even
    when the environment would supply a default — how a differential
    test runs its clean reference while ``REPRO_FAULTS`` is exported.
    """
    previous = getattr(_policy_local, "policy", _UNSET)
    _policy_local.policy = policy
    try:
        yield policy
    finally:
        if previous is _UNSET:
            del _policy_local.policy
        else:
            _policy_local.policy = previous


def current_policy() -> SupervisePolicy | None:
    """The policy in force on this thread (override, else env default)."""
    override = getattr(_policy_local, "policy", _UNSET)
    if override is not _UNSET:
        return override
    return policy_from_env()
