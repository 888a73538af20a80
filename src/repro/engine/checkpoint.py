"""Per-replica checkpointing for :func:`repro.engine.replicate.replicate_scenario`.

A replication is embarrassingly resumable: each replica's
:class:`~repro.experiments.results.ExperimentRecord` is a pure
function of its root seed, so a killed 20-seed run that completed 14
replicas owes the world exactly 6 more.  :class:`ReplicaStore`
persists each replica record the moment it completes; on resume the
replication loads what exists, runs only the missing seeds, and pools
in seed order — producing **byte-identical** output to an
uninterrupted run (the records never serialize ephemera like worker
counts, a property the engine's determinism suite already proves).

Writes are atomic (``tmp`` + ``os.replace``), so a SIGKILL mid-write
leaves either the previous state or the new one, never a torn file; a
torn/foreign file on load is treated as absent, not fatal — the
replica simply re-runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import PersistenceError
from repro.experiments.results import ExperimentRecord
from repro.osutil import atomic_write_text

__all__ = ["ReplicaStore"]

_FORMAT = "repro-replica-checkpoint/1"


class ReplicaStore:
    """One directory of per-seed replica checkpoints for one scenario.

    Layout: ``<root>/<scenario>.seed<seed>.json``, each file a
    ``{"format", "scenario", "seed", "record"}`` envelope.  The
    scenario name and seed ride inside the file as well as in the name
    so a checkpoint can never be replayed into the wrong replication.
    """

    def __init__(self, root: str | Path, scenario: str) -> None:
        self.root = Path(root)
        self.scenario = str(scenario)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistenceError(
                f"cannot create checkpoint directory {self.root}: {exc}"
            ) from exc

    def path(self, seed: int) -> Path:
        return self.root / f"{self.scenario}.seed{seed}.json"

    def save(self, seed: int, record: ExperimentRecord) -> None:
        """Atomically persist ``record`` as the checkpoint for ``seed``."""
        envelope = {
            "format": _FORMAT,
            "scenario": self.scenario,
            "seed": int(seed),
            "record": record.as_dict(),
        }
        target = self.path(seed)
        try:
            # tmp + os.replace, via the storage layer's shared helper.
            atomic_write_text(target, json.dumps(envelope, indent=2))
        except OSError as exc:
            raise PersistenceError(
                f"cannot write checkpoint {target}: {exc}"
            ) from exc

    def load(self, seed: int) -> ExperimentRecord | None:
        """The checkpointed record for ``seed``, or ``None``.

        ``None`` covers every unusable state — missing, torn JSON,
        wrong scenario/seed, malformed record — because the correct
        response to all of them is the same: recompute the replica.
        """
        target = self.path(seed)
        try:
            data = json.loads(target.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("format") != _FORMAT:
            return None
        if data.get("scenario") != self.scenario or data.get("seed") != int(seed):
            return None
        try:
            return ExperimentRecord.from_dict(data["record"])
        except (KeyError, TypeError, ValueError):
            return None

    def completed_seeds(self) -> list[int]:
        """Seeds with a loadable checkpoint, sorted."""
        seeds = []
        prefix = f"{self.scenario}.seed"
        for entry in self.root.glob(f"{prefix}*.json"):
            raw = entry.name[len(prefix) : -len(".json")]
            try:
                seed = int(raw)
            except ValueError:
                continue
            if self.load(seed) is not None:
                seeds.append(seed)
        return sorted(seeds)
