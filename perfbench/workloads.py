"""The four workloads, their sizes, and the pinned environment.

Each batch workload is one ``replicate_scenario`` call at a stated
size, repeated for the run's time budget with a fresh base seed per
call (``call_seed``), so no two calls in a run see the same inputs.
Base seeds come from a fixed pool of ``POOL`` whose record digests are
pinned in ``digests.json``, so every call's output is checked.
The serve workload drives a ``repro serve`` daemon (see ``serve.py``).
Why each workload exists is in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BATCH = {
    "stream-ramp": {
        "scenario": "stream-dictionary-ramp",
        "seeds": 2,
        "workers": 1,
        "overrides": {},
    },
    "stream-roni": {
        "scenario": "stream-dictionary-vs-roni",
        "seeds": 2,
        "workers": 2,
        "overrides": {"ticks": 4},
    },
    "threshold-arms": {
        "scenario": "figure5-threshold",
        "seeds": 1,
        "workers": 1,
        "overrides": {
            "inbox_size": 400,
            "corpus_ham": 300,
            "corpus_spam": 300,
            "folds": 2,
            "attack_fractions": (0.0, 0.01, 0.05),
        },
    },
}
SERVE = ("serve-mixed",)
WORKLOADS = tuple(BATCH) + SERVE

KERNEL = "nd"
STORE = "memory"
HASH_SEED = "0"
# The traced re-run uses another hash seed: records must not depend on
# it (the determinism contract), so its bytes are the reference.
REFERENCE_HASH_SEED = "4242"


# Base seeds 0 .. POOL-1.  A process makes at most POOL calls, so no
# input repeats within one; at about 3 s a call a run makes 8-10.
POOL = 40


def call_seed(run_seed: int, index: int) -> int:
    """The ``base_seed`` of call ``index`` in a run at ``run_seed``.

    Each run seed visits the pool in its own seeded order.
    """
    if not 0 <= index < POOL:
        raise ValueError(f"call index {index} outside the pinned pool of {POOL}")
    return random.Random(run_seed).sample(range(POOL), POOL)[index]


def sut_env(hash_seed: str = HASH_SEED) -> dict[str, str]:
    """The environment every process of the system under test gets.

    Ambient ``REPRO_*`` settings (fault plans, worker counts, stores,
    supervision knobs) are dropped so the shell cannot change the
    workload; the kernel, store, hash seed and BLAS threads are pinned.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED=hash_seed,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_KERNEL=KERNEL,
        REPRO_STORE=STORE,
        PYTHONPATH=str(SRC),
    )
    return env

