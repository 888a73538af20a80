"""Span tracing for the benchmark's traced run, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public functions of each layer (the table in :data:`LAYERS`):
methods are patched on every class that defines them, module
functions at every binding that imported them by name.  Each wrapper
records a span ``(id, name, start, end, parent, rid, thread)`` in
memory, and work counts at the same boundaries.

Pool workers inherit the wrappers through ``fork``.  A worker appends
its spans to ``<dir>/spans.<pid>.jsonl`` each time one of its
outermost spans closes, because pool workers leave through
``os._exit`` and never run ``atexit``.  The tracing process itself
writes its spans once, through :meth:`Tracer.flush` at its end.
:func:`load` merges every file; ``run.py`` turns the spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

# (layer, import path of the owner, attribute names, span name).
# Owners are classes ("module:Class") or modules ("module"); for a
# class, every subclass that overrides the attribute is wrapped too.
LAYERS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("corpus", "repro.corpus.trec:TrecStyleCorpus", ("generate",), "generate"),
    ("tokenizer", "repro.spambayes.tokenizer:Tokenizer", ("tokenize",), "tokenize"),
    ("token_table", "repro.spambayes.token_table:TokenTable", ("encode_unique",), "encode"),
    ("token_table", "repro.corpus.dataset:Dataset", ("encode",), "encode"),
    ("classifier", "repro.spambayes.classifier:Classifier",
     ("learn", "learn_ids", "learn_many", "learn_repeated", "learn_ids_repeated"), "learn"),
    ("classifier", "repro.spambayes.classifier:Classifier",
     ("unlearn", "unlearn_ids", "unlearn_repeated", "unlearn_ids_repeated"), "unlearn"),
    ("classifier", "repro.spambayes.classifier:Classifier",
     ("snapshot", "restore"), "snapshot_restore"),
    ("classifier", "repro.spambayes.classifier:Classifier", ("score_many",), "score_many"),
    ("classifier", "repro.engine.sweep", ("train_grouped",), "learn"),
    ("classifier", "repro.engine.sweep", ("unlearn_grouped",), "unlearn"),
    ("classifier", "repro.engine.sweep", ("evaluate_dataset",), "evaluate"),
    ("ndkernel", "repro.spambayes.ndkernel:NDClassifier",
     ("score_many_ids", "score_workspace", "score_csr"), "score"),
    ("attacks", "repro.attacks.base:Attack", ("generate",), "generate"),
    ("roni", "repro.defenses.roni:RoniDefense",
     ("measure", "measure_tokens", "measure_ids", "measure_many", "measure_batch"), "measure"),
    ("threshold", "repro.defenses.threshold:DynamicThresholdDefense", ("fit",), "fit"),
    ("engine", "repro.engine.runner:ParallelRunner", ("map",), "map"),
    ("stream", "repro.stream.runner:StreamRunner", ("run",), "loop"),
    ("results", "repro.experiments.results:ReplicatedRecord", ("pool", "as_dict"), "pool"),
    ("results", "repro.experiments.results", ("save_record",), "pool"),
)

# Layers whose self time counts as "accounted": everything but the
# outer drivers (engine map and the stream loop), whose self time is
# the orchestration between named leaves.  ``serve`` is the daemon's
# request dispatch, wrapped by ``serve_entry.py``.
LEAF_LAYERS = (
    "corpus", "tokenizer", "token_table", "classifier", "ndkernel",
    "attacks", "roni", "threshold", "results", "serve",
)


class Tracer:
    """Spans and counters of one process (fork children start empty)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.local = threading.local()
        self.lock = threading.Lock()
        self.next_id = 0
        self.rid = None  # request id, set by serve_entry.py per dispatch
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counts = {}
        self.local = threading.local()
        self.lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer.local, "stack", None)
            if stack is None:
                stack = tracer.local.stack = []
            with tracer.lock:
                span_id = tracer.next_id
                tracer.next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer.lock:
                    tracer.spans.append(
                        (span_id, span_name, start, end, parent, tracer.rid,
                         threading.get_ident())
                    )
                if not stack and tracer.pid != _ROOT_PID:
                    tracer.flush()
            _count(tracer, span_name, fn.__name__, args, result)
            return result

        return wrapper

    def flush(self) -> None:
        """Append this process's spans and counts to its own file."""
        with self.lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, {}
        path = Path(self.out_dir) / f"spans.{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "pid": self.pid, "root": self.pid == _ROOT_PID,
                "spans": spans, "counts": counts,
            }))
            handle.write("\n")


def _count(tracer: Tracer, span_name: str, method: str, args: tuple, result) -> None:
    """Work counters recorded at the same boundaries as the spans."""
    if span_name == "token_table.encode":
        for obj in args[:2]:
            if any(cls.__name__ == "TokenTable" for cls in type(obj).__mro__):
                with tracer.lock:
                    size = len(obj)
                    if size > tracer.counts.get("token_table.size", 0):
                        tracer.counts["token_table.size"] = size
    elif span_name == "corpus.generate":
        tracer.count("corpus.messages", len(result.dataset.messages))
    elif span_name == "tokenizer.tokenize":
        tracer.count("tokenizer.messages")
    elif span_name == "ndkernel.score":
        tracer.count("ndkernel.calls")
        try:
            tracer.count("ndkernel.rows", len(result))
        except TypeError:
            pass
    elif span_name == "roni.measure" and method != "measure_tokens":
        # measure_tokens delegates to measure_ids, which counts.
        tracer.count("roni.candidates", len(result) if isinstance(result, list) else 1)
    elif span_name == "threshold.fit":
        tracer.count("threshold.fits")
    elif span_name == "engine.map":
        tracer.count("engine.tasks", len(args[3]) if len(args) > 3 else 0)
    elif span_name == "classifier.score_many":
        tracer.count("classifier.score_many_calls")


# The process that called install(); fork children flush as they go.
_ROOT_PID = os.getpid()


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, qualname) if qualname else None)


def _subclasses(cls) -> list[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def install(out_dir: str) -> Tracer:
    """Wrap every layer function; return the process's tracer."""
    global _ROOT_PID
    _ROOT_PID = os.getpid()
    tracer = Tracer(out_dir)
    # Import every module that could hold a by-name binding first, so
    # the binding sweep below sees them all.
    import repro.scenarios  # noqa: F401  (registers and imports protocols)
    import repro.serve.service  # noqa: F401
    import repro.stream.runner  # noqa: F401

    for layer, owner_path, attrs, name in LAYERS:
        module, owner = _resolve(owner_path)
        if owner is None:
            for attr in attrs:
                original = getattr(module, attr)
                wrapped = tracer.wrap(layer, name, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and getattr(
                        loaded, attr, None
                    ) is original:
                        setattr(loaded, attr, wrapped)
            continue
        for cls in _subclasses(owner):
            for attr in attrs:
                if attr not in vars(cls):
                    continue
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(layer, name, raw.__func__))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(tracer.wrap(layer, name, raw.__func__))
                else:
                    wrapped = tracer.wrap(layer, name, raw)
                setattr(cls, attr, wrapped)
    _install_supervision_counter(tracer)
    return tracer


def _install_supervision_counter(tracer: Tracer) -> None:
    """The supervision ledger: every bump also lands in the counts."""
    from repro.engine.supervise import SuperviseStats

    original = SuperviseStats.bump

    def bump(self, name: str, count: int = 1) -> None:
        tracer.count(f"engine.{name}", count)
        original(self, name, count)

    SuperviseStats.bump = bump


# ----------------------------------------------------------------------
# Merging the span files
# ----------------------------------------------------------------------


def load(out_dir: str) -> tuple[list[tuple], dict[str, float], set[int]]:
    """Every span and count written under ``out_dir``.

    Spans come back as ``(pid, id, name, start, end, parent, rid,
    thread)``; counts are summed, except sizes (``*.size``), which are
    the largest seen; the set holds the pids of the traced processes
    themselves, as opposed to their pool workers.
    """
    spans: list[tuple] = []
    counts: dict[str, float] = {}
    roots: set[int] = set()
    for path in sorted(Path(out_dir).glob("spans.*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            chunk = json.loads(line)
            pid = chunk["pid"]
            if chunk["root"]:
                roots.add(pid)
            spans.extend((pid, *span) for span in chunk["spans"])
            for key, value in chunk["counts"].items():
                if key.endswith(".size"):
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
    return spans, counts, roots


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per span name: duration minus what children cover.

    Children of a span run on its thread, nested inside it, so their
    covered intervals never overlap each other and subtract directly.
    """
    by_key = {(span[0], span[1]): span for span in spans}
    child_time: dict[tuple, float] = {}
    for pid, span_id, name, start, end, parent, rid, thread in spans:
        if parent is not None:
            key = (pid, parent)
            child_time[key] = child_time.get(key, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for key, (pid, span_id, name, start, end, parent, rid, thread) in by_key.items():
        own = (end - start) - child_time.get(key, 0.0)
        totals[name] = totals.get(name, 0.0) + max(0.0, own)
    return totals


def fallback_calls(spans: list[tuple]) -> tuple[int, int]:
    """``(score_many calls, those that never reached the ND kernel)``."""
    reached = {
        (span[0], span[5])
        for span in spans
        if span[2] == "ndkernel.score" and span[5] is not None
    }
    calls = [span for span in spans if span[2] == "classifier.score_many"]
    missed = sum(1 for span in calls if (span[0], span[1]) not in reached)
    return len(calls), missed
