"""Zero-copy corpus transport over POSIX shared memory.

A fold sweep ships the same encoded corpus to every worker; with the
chunk-blob protocol that is one multi-megabyte pickle per (worker,
map-call).  This module publishes a :class:`~repro.spambayes.ndkernel.
CsrMatrix` into one ``multiprocessing.shared_memory`` segment instead:
the picklable :class:`SharedCorpus` handle is just a segment name plus
two lengths (tens of bytes), and workers attach the segment read-only
and reconstruct zero-copy NumPy views.

Lifetime model
    The publishing (parent) process owns every segment.  Handles are
    *adopted* by the :class:`~repro.engine.runner.WorkerPool` that
    ships them (or unlinked in ``finally`` by private-pool maps), so a
    segment lives exactly as long as the pool that could still attach
    it: ``WorkerPool.close()`` unlinks every adopted segment after the
    workers have drained.  A module-level registry plus an ``atexit``
    sweep backstops crash paths, and every segment name carries a
    run-unique prefix (:func:`segment_prefix`) so tests can scan
    ``/dev/shm`` and prove nothing leaked.

Worker attach
    On Python 3.11, ``SharedMemory(name=...)`` *registers* the segment
    with the ``resource_tracker`` even for attach-only use — and under
    the fork start method every worker talks to the *same* tracker
    daemon as the parent, so a worker's attach/exit could unlink a
    segment the parent still owns (there is no ``track=False`` until
    3.13).  :meth:`SharedCorpus._attach` therefore suppresses tracker
    registration for the duration of the attach: only the creating
    process ever registers a segment, and only its ``unlink``
    unregisters it.

Fallback
    When shared memory is unavailable (no ``multiprocessing.
    shared_memory``, unwritable ``/dev/shm``, or ``REPRO_SHM=0``),
    :meth:`SharedCorpus.publish` raises :class:`EngineError` (a
    :class:`ReproError`), and :func:`share_corpus` degrades gracefully
    to an :class:`InlineCorpus` — same interface, ordinary pickling —
    so results never depend on the transport.
"""

from __future__ import annotations

import atexit
import os
import threading

try:  # pragma: no cover - exercised via the availability gates
    import numpy as np
except ImportError:  # pragma: no cover - numpy is in the baked image
    np = None  # type: ignore[assignment]

try:  # pragma: no cover - stdlib, but optional on exotic builds
    from multiprocessing import shared_memory as _shm_module
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover
    _shm_module = None  # type: ignore[assignment]
    _resource_tracker = None  # type: ignore[assignment]

from repro.errors import EngineError, SegmentLostError
from repro.osutil import pid_alive

__all__ = [
    "InlineCorpus",
    "SharedCorpus",
    "drop_segment_name",
    "gc_segments",
    "orphaned_segments",
    "segment_prefix",
    "share_corpus",
    "shared_memory_enabled",
    "unlink_all_segments",
]

SHM_ENV = "REPRO_SHM"
"""Set to ``0`` to force the pickling fallback (``1``/``auto`` enable)."""

_ID_DTYPE = "int64" if np is None else np.dtype(np.int64)

# Namespace shared by every repro run: the janitor (repro gc-shm)
# scans /dev/shm for this and decides liveness from the embedded pid.
BASE_PREFIX = "repro_shm_"

# Run-unique segment namespace: pid plus random salt, fixed at import.
# Only the importing (parent) process publishes, so forked workers
# reusing the module state is harmless, and a test can scan /dev/shm
# for exactly this prefix to detect leaked segments.
_RUN_TOKEN = f"{os.getpid():x}_{int.from_bytes(os.urandom(4), 'big'):08x}"
_segment_lock = threading.Lock()
_segment_counter = 0
# name -> SharedCorpus for every still-linked segment this process owns.
_live_segments: dict[str, "SharedCorpus"] = {}


def segment_prefix() -> str:
    """The run-unique prefix every segment name starts with."""
    return f"{BASE_PREFIX}{_RUN_TOKEN}"


def shared_memory_enabled() -> bool:
    """True when segments can be published in this configuration."""
    if np is None or _shm_module is None:
        return False
    value = os.environ.get(SHM_ENV, "auto").strip().lower()
    return value not in ("0", "off", "false", "no")


def _next_segment_name() -> str:
    global _segment_counter
    with _segment_lock:
        index = _segment_counter
        _segment_counter += 1
    return f"{segment_prefix()}_{index}"


def _attach_untracked(name: str) -> "_shm_module.SharedMemory":
    """Attach an existing segment without resource-tracker registration.

    Attach-side registration (fixed upstream by ``track=False``, which
    3.11 lacks) would otherwise let an attaching process's tracker
    unlink a segment the owner still needs — and, because forked
    workers share the parent's tracker daemon, even unregistering
    after the fact would cancel the *owner's* registration.  Silencing
    ``register`` around the attach keeps the tracker's view exactly
    right: one registration per segment, held by its creator.
    """
    if _resource_tracker is None:
        return _shm_module.SharedMemory(name=name)
    original = _resource_tracker.register
    _resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shm_module.SharedMemory(name=name)
    finally:
        _resource_tracker.register = original


class InlineCorpus:
    """The pickling fallback: a CSR corpus carried inside the context.

    Interface-compatible with :class:`SharedCorpus` so consumers never
    branch on the transport; ``close``/``unlink`` are no-ops because
    the data travels by value.
    """

    __slots__ = ("_csr", "_rows")

    def __init__(self, csr) -> None:
        self._csr = csr
        self._rows: list | None = None

    @property
    def name(self) -> None:
        return None

    def as_csr(self):
        return self._csr

    def rows_list(self) -> list:
        """Stable per-process row views (cached, so ``id(row)`` is
        stable across calls — which keeps message-score memos warm)."""
        if self._rows is None:
            self._rows = [self._csr.row(i) for i in range(len(self._csr))]
        return self._rows

    def __len__(self) -> int:
        return len(self._csr)

    def close(self) -> None:
        pass

    def unlink(self) -> None:
        pass

    def __getstate__(self) -> tuple:
        return (self._csr,)

    def __setstate__(self, state: tuple) -> None:
        self._csr = state[0]
        self._rows = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InlineCorpus(messages={len(self._csr)})"


class SharedCorpus:
    """A CSR corpus published once in a named shared-memory segment.

    The segment holds ``indices`` followed by ``indptr`` (both int64),
    so ``(name, len(indices), len(indptr))`` reconstructs it exactly —
    and that triple is the entire pickled payload.  Workers attach
    lazily on first access and get **read-only** views: the corpus is
    shared state, and a write through a view must fail loudly rather
    than race other workers.
    """

    __slots__ = ("_name", "_n_indices", "_n_indptr", "_shm", "_owner", "_csr", "_rows")

    def __init__(self, name: str, n_indices: int, n_indptr: int) -> None:
        self._name = name
        self._n_indices = n_indices
        self._n_indptr = n_indptr
        self._shm: "_shm_module.SharedMemory | None" = None
        self._owner = False
        self._csr = None
        self._rows: list | None = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def owner(self) -> bool:
        return self._owner

    @classmethod
    def publish(cls, csr) -> "SharedCorpus":
        """Copy ``csr`` into a fresh segment owned by this process.

        Raises :class:`EngineError` when shared memory is unavailable
        or segment creation fails — callers fall back to
        :class:`InlineCorpus` (see :func:`share_corpus`).
        """
        if not shared_memory_enabled():
            raise EngineError(
                "shared-memory corpus transport is unavailable "
                f"(numpy/shared_memory missing or {SHM_ENV}=0)"
            )
        indices = np.ascontiguousarray(csr.indices, dtype=_ID_DTYPE)
        indptr = np.ascontiguousarray(csr.indptr, dtype=_ID_DTYPE)
        nbytes = indices.nbytes + indptr.nbytes
        name = _next_segment_name()
        try:
            shm = _shm_module.SharedMemory(name=name, create=True, size=max(nbytes, 1))
        except OSError as exc:
            raise EngineError(f"cannot create shared-memory segment: {exc}") from exc
        handle = cls(name, indices.shape[0], indptr.shape[0])
        handle._shm = shm
        handle._owner = True
        split = indices.nbytes
        np.frombuffer(shm.buf, dtype=_ID_DTYPE, count=indices.shape[0])[:] = indices
        np.frombuffer(
            shm.buf, dtype=_ID_DTYPE, count=indptr.shape[0], offset=split
        )[:] = indptr
        handle._build_views()
        _live_segments[name] = handle
        return handle

    def _attach(self) -> None:
        if self._shm is not None:
            return
        if _shm_module is None:
            raise EngineError("shared_memory is unavailable in this process")
        try:
            shm = _attach_untracked(self._name)
        except FileNotFoundError as exc:
            # The name is gone but handles survive: the owner died (its
            # atexit or the janitor reclaimed the segment) or a fault
            # run unlinked it.  Distinct type so the supervision layer
            # can classify this as retryable-then-degradable.
            raise SegmentLostError(
                f"shared-memory segment {self._name!r} disappeared under its "
                "readers (owner exited or segment was unlinked)"
            ) from exc
        except OSError as exc:
            raise EngineError(
                f"cannot attach shared-memory segment {self._name!r}: {exc}"
            ) from exc
        self._shm = shm
        self._build_views()

    def _build_views(self) -> None:
        from repro.spambayes.ndkernel import CsrMatrix

        split = self._n_indices * _ID_DTYPE.itemsize
        indices = np.frombuffer(self._shm.buf, dtype=_ID_DTYPE, count=self._n_indices)
        indptr = np.frombuffer(
            self._shm.buf, dtype=_ID_DTYPE, count=self._n_indptr, offset=split
        )
        if not self._owner:
            # Read-only enforcement: the segment is shared state.
            indices = indices.view()
            indptr = indptr.view()
            indices.flags.writeable = False
            indptr.flags.writeable = False
        csr = CsrMatrix.__new__(CsrMatrix)
        csr.indices = indices
        csr.indptr = indptr
        self._csr = csr

    def as_csr(self):
        """The corpus as zero-copy views over the segment."""
        self._attach()
        return self._csr

    def rows_list(self) -> list:
        """Stable per-process row views (cached; see InlineCorpus)."""
        if self._rows is None:
            csr = self.as_csr()
            self._rows = [csr.row(i) for i in range(len(csr))]
        return self._rows

    def __len__(self) -> int:
        return self._n_indptr - 1

    def close(self) -> None:
        """Detach this process's mapping (safe to call repeatedly).

        If the caller still holds live views into the segment the
        mapping cannot be released yet; the handle stays attached (a
        later ``close`` after the views die will succeed) rather than
        leaving a half-closed mapping to explode in ``__del__``.
        """
        self._csr = None
        self._rows = None
        shm = self._shm
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # views still exported; stay attached
                return
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent).

        On Linux the memory itself persists until the last attached
        process detaches, so unlinking while workers still hold maps is
        safe — the *name* disappears, which is what the leak detector
        checks.
        """
        _live_segments.pop(self._name, None)
        shm = self._shm
        self.close()
        if self._owner:
            self._owner = False
            try:
                if shm is None:
                    shm = _attach_untracked(self._name)
                    shm.close()
                shm.unlink()
            except (OSError, EngineError):  # pragma: no cover - already gone
                pass

    def __getstate__(self) -> tuple:
        # The whole point: a corpus handle crosses process boundaries
        # in tens of bytes, not megabytes.  Ownership never transfers.
        return (self._name, self._n_indices, self._n_indptr)

    def __setstate__(self, state: tuple) -> None:
        self._name, self._n_indices, self._n_indptr = state
        self._shm = None
        self._owner = False
        self._csr = None
        self._rows = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self._owner else "attached" if self._shm else "handle"
        return f"SharedCorpus({self._name!r}, messages={len(self)}, {role})"


def share_corpus(csr) -> "SharedCorpus | InlineCorpus":
    """Publish ``csr`` over shared memory, or fall back to pickling.

    The graceful-degradation entry point: any :class:`EngineError` from
    the shared path (unavailable, quota, disabled) downgrades to an
    :class:`InlineCorpus` with identical behaviour.
    """
    try:
        return SharedCorpus.publish(csr)
    except EngineError:
        return InlineCorpus(csr)


def adoptable_segments(context: object) -> list[SharedCorpus]:
    """Owned segments reachable from a map-call context.

    Contexts that ship shared corpora expose ``shared_corpora()``
    returning their corpus handles; the pool adopts the owned
    :class:`SharedCorpus` ones so their lifetime is tied to pool
    shutdown.  Contexts without the hook share nothing.
    """
    hook = getattr(context, "shared_corpora", None)
    if hook is None:
        return []
    return [h for h in hook() if isinstance(h, SharedCorpus) and h.owner]


def unlink_all_segments() -> None:
    """Unlink every segment this process still owns (crash backstop)."""
    for handle in list(_live_segments.values()):
        handle.unlink()


atexit.register(unlink_all_segments)


# ----------------------------------------------------------------------
# Crash-safe lifecycle: fault hook and the orphan janitor
# ----------------------------------------------------------------------

_SHM_DIR = "/dev/shm"


def drop_segment_name(name: str) -> bool:
    """Remove a segment's *name* while existing mappings stay valid.

    The fault-injection hook behind ``shm-unlink``: on Linux the
    memory persists until the last attached process detaches, so the
    owner's views keep working — only *new* attaches fail (with
    :class:`~repro.errors.SegmentLostError`), which is exactly the
    orphaned-parent scenario the supervision layer must survive.
    Returns True when a name was actually removed.
    """
    _live_segments.pop(name, None)
    try:
        os.unlink(os.path.join(_SHM_DIR, name))
    except OSError:
        return False
    return True


def _pid_of_segment(name: str) -> int | None:
    """The publishing pid baked into a repro segment name, if parseable."""
    if not name.startswith(BASE_PREFIX):
        return None
    fields = name[len(BASE_PREFIX):].split("_")
    if len(fields) != 3:
        return None
    try:
        return int(fields[0], 16)
    except ValueError:
        return None


def orphaned_segments(include_live: bool = False) -> list[str]:
    """Stale ``repro_shm_*`` names under ``/dev/shm``, sorted.

    A segment is *orphaned* when the pid its name embeds no longer
    runs: the publishing process was SIGKILL'd past its atexit hook,
    so nothing will ever unlink it.  ``include_live=True`` lists every
    repro segment regardless of owner liveness (the ``gc-shm --all``
    hammer) — except this process's own, which its atexit hook still
    covers.
    """
    if not os.path.isdir(_SHM_DIR):
        return []
    stale = []
    for name in os.listdir(_SHM_DIR):
        pid = _pid_of_segment(name)
        if pid is None or pid == os.getpid():
            continue
        if include_live or not pid_alive(pid):
            stale.append(name)
    return sorted(stale)


def gc_segments(include_live: bool = False) -> list[str]:
    """Unlink orphaned segments; return the names reclaimed.

    The janitor behind ``repro gc-shm``.  Plain ``os.unlink`` of the
    ``/dev/shm`` entry, deliberately bypassing ``SharedMemory`` — the
    dead owner's resource-tracker state is unreachable, and attaching
    just to unlink would map the (possibly huge) segment for nothing.
    """
    reclaimed = []
    for name in orphaned_segments(include_live):
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:  # pragma: no cover - raced another janitor
            continue
        reclaimed.append(name)
    return reclaimed
