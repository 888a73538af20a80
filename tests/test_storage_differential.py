"""Backend differentials: ``REPRO_STORE=memory`` vs ``disk`` must be
invisible in every record the pipeline emits.

The storage layer's contract is that records are token-table-layout
independent (scoring tie-breaks compare token *text*, persisted dumps
sort by text, grouping keys are text-keyed), so where the table and
count columns live — Python lists and arrays, or SQLite and mmap —
cannot change a single byte of scenario, replicate or stream output.
This suite proves it the same way the ND-kernel and fault suites prove
their contracts: the same work run under both backends (crossed with
both kernels, both worker counts, and — in subprocesses — several
``PYTHONHASHSEED`` values), serialized records compared for equality.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.scenarios import replicate_scenario, run_scenario
from repro.spambayes import ndkernel
from repro.storage import STORE_DIR_ENV, STORE_ENV

SRC = str(Path(__file__).resolve().parent.parent / "src")

KERNELS = ("python", "nd") if ndkernel.available() else ("python",)

# Small but complete: a batch scenario exercising folds + attack
# sweeps, and a stream scenario exercising ingestion, per-tick
# training, bulk scoring and the clean counterfactual.
BATCH_SCENARIO = "dictionary-vs-none"
BATCH_OVERRIDES = dict(
    inbox_size=80,
    folds=2,
    corpus_ham=100,
    corpus_spam=100,
    attack_fractions=(0.0, 0.05),
)
STREAM_SCENARIO = "stream-dictionary-ramp"
STREAM_OVERRIDES = dict(
    ticks=3,
    ham_per_tick=16,
    spam_per_tick=16,
    attack_start_tick=2,
    attack_per_tick=6,
    test_size=30,
)


@contextmanager
def _env(var: str, value: str):
    previous = os.environ.get(var)
    os.environ[var] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = previous


@pytest.fixture(autouse=True)
def _rooted_store_dir(tmp_path, monkeypatch):
    # Root any disk backend this process lazily creates under pytest's
    # tmp tree.  (active_backend caches per name for the process's
    # lifetime, so only the first disk-using test actually picks the
    # root — the cached backend is reused after that, which is exactly
    # the production behaviour and irrelevant to the differentials.)
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))


def _batch_record(store: str, kernel: str, workers: int = 1) -> str:
    with _env(STORE_ENV, store), _env(ndkernel.KERNEL_ENV, kernel):
        outcome = run_scenario(
            BATCH_SCENARIO, overrides=BATCH_OVERRIDES, workers=workers
        )
    return json.dumps(outcome.record_dict(), sort_keys=True)


def _replicated_record(store: str, kernel: str, workers: int) -> str:
    with _env(STORE_ENV, store), _env(ndkernel.KERNEL_ENV, kernel):
        record = replicate_scenario(
            STREAM_SCENARIO,
            seeds=2,
            overrides=STREAM_OVERRIDES,
            workers=workers,
        )
    return json.dumps(record.as_dict(), sort_keys=True)


class TestScenarioRecordsAcrossBackends:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_scenario_byte_identical(self, kernel):
        assert _batch_record("disk", kernel) == _batch_record("memory", kernel)

    def test_batch_scenario_identical_across_kernels_and_backends(self):
        records = {
            _batch_record(store, kernel)
            for store in ("memory", "disk")
            for kernel in KERNELS
        }
        assert len(records) == 1


class TestStreamReplicationAcrossBackends:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stream_replication_byte_identical(self, kernel):
        assert _replicated_record("disk", kernel, 1) == _replicated_record(
            "memory", kernel, 1
        )

    @pytest.mark.slow
    def test_stream_replication_identical_across_worker_counts(self):
        # The full cross: backend x worker count, one kernel (the
        # default-auto one), all four serializations equal.  Pooled
        # legs fork workers that lazily build their own backends.
        kernel = "nd" if ndkernel.available() else "python"
        records = {
            _replicated_record(store, kernel, workers)
            for store in ("memory", "disk")
            for workers in (1, 2)
        }
        assert len(records) == 1


class TestPrivatePoolForkSafety:
    """The fold fan-out of ``figure5-threshold`` maps through a
    throwaway ``WorkerPool`` whose fork-started workers must never
    touch the parent's live SQLite token table or ``MAP_SHARED`` count
    columns.  The pool ships the context as a pickled blob, so each
    worker unpickles its own by-value copy (``DiskTokenTable`` reduces
    to a plain in-memory table); regression for the sibling-intern
    collision (``UNIQUE constraint failed: tokens.id``) that
    fork-inherited contexts caused."""

    FOLD_SCENARIO = "figure5-threshold"
    FOLD_OVERRIDES = dict(
        inbox_size=60,
        folds=2,
        corpus_ham=100,
        corpus_spam=100,
        attack_fractions=(0.0, 0.05),
        quantiles=(0.10,),
    )

    def _record(self, store: str, workers: int) -> str:
        with _env(STORE_ENV, store):
            outcome = run_scenario(
                self.FOLD_SCENARIO, overrides=self.FOLD_OVERRIDES, workers=workers
            )
        return json.dumps(outcome.record_dict(), sort_keys=True)

    def test_disk_backend_survives_private_pool_fan_out(self):
        reference = self._record("memory", 1)
        assert self._record("disk", 2) == reference
        assert self._record("disk", 1) == reference


_SUBPROCESS_SCRIPT = """
import json
from repro.scenarios import replicate_scenario

record = replicate_scenario(
    "stream-dictionary-ramp",
    seeds=2,
    overrides=dict(
        ticks=3, ham_per_tick=16, spam_per_tick=16,
        attack_start_tick=2, attack_per_tick=6, test_size=30,
    ),
    workers=1,
)
print(json.dumps(record.as_dict(), indent=2))
"""


def _run_leg(store: str, hash_seed: str, store_dir: Path) -> str:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hash_seed
    env[STORE_ENV] = store
    env[STORE_DIR_ENV] = str(store_dir)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
class TestBackendsAcrossHashSeeds:
    def test_records_identical_across_backends_and_hash_seeds(self, tmp_path):
        """The acceptance cross: store x PYTHONHASHSEED, each leg its
        own interpreter, serialized stream records byte-identical."""
        legs = [
            _run_leg("memory", "0", tmp_path),
            _run_leg("disk", "1", tmp_path),
            _run_leg("disk", "2", tmp_path),
        ]
        assert legs[1] == legs[0]
        assert legs[2] == legs[0]
        # And every leg cleaned up after itself: no store directories
        # survive their owning interpreter's exit.
        assert not list(tmp_path.glob("repro_store_*"))
