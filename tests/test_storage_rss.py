"""Bounded-RSS proof: the disk backend streams a corpus the in-memory
backend cannot hold.

The whole point of ``REPRO_STORE=disk`` is that corpus and vocabulary
state spills to SQLite and file-backed mmap instead of private heap —
so a process capped with ``resource.setrlimit`` must be able to play a
stream an uncapped in-memory run needs hundreds of megabytes for.
Both legs run the *same* scenario under the *same* ``RLIMIT_DATA``
cap (``RLIMIT_DATA`` covers brk + private anonymous mappings — the
Python heap — but not the disk backend's file-backed pages, which is
precisely the mechanism under test):

* ``REPRO_STORE=disk`` must complete and report its throughput;
* ``REPRO_STORE=memory`` must die of ``MemoryError`` — proving the
  cap is real and the corpus genuinely does not fit.

The streamed corpus is 10x the ``large`` benchmark scale (1,600
messages/replica there; >=16,000 arrivals+evaluations here).  The
capped child runs single-threaded BLAS: importing NumPy otherwise
reserves one OpenBLAS buffer per CPU, and ``RLIMIT_DATA`` counts those
reservations, so the cap would measure the box's core count rather
than the backend.  Throughput is ``benchmarks/bench_storage.py``'s job;
this test writes nothing outside ``tmp_path``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.storage import STORE_DIR_ENV, STORE_ENV

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

# 128 MiB of heap: ~1.5x the disk leg's needs, ~half the memory leg's
# (the uncapped memory run peaks past 250 MiB on this corpus).
CAP_BYTES = 128 * 1024 * 1024

# 5 ticks x (1520 ham + 1520 spam) arrivals + 800 held-out messages
# evaluated per tick: 19,200 messages processed, 16,000-message corpus
# — 10x the stream benchmark's `large` scale (1,600 per replica).
_STREAM_SCRIPT = """
import resource, time
resource.setrlimit(resource.RLIMIT_DATA, (%(cap)d, %(cap)d))
from repro.stream.runner import StreamRunner
from repro.stream.spec import StreamSpec

spec = StreamSpec(
    ticks=5, ham_per_tick=1520, spam_per_tick=1520,
    attack_start_tick=3, attack_per_tick=0, test_size=800, seed=1,
)
start = time.perf_counter()
result = StreamRunner(spec).run()
elapsed = time.perf_counter() - start
print(f"OK messages={result.messages_processed()} elapsed={elapsed:.3f}")
""" % {"cap": CAP_BYTES}


def _run_capped(store: str, store_dir: Path) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env[STORE_ENV] = store
    env[STORE_DIR_ENV] = str(store_dir)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", _STREAM_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=600,
    )


@pytest.mark.slow
class TestBoundedRss:
    def test_disk_backend_streams_under_cap_memory_backend_cannot(self, tmp_path):
        disk = _run_capped("disk", tmp_path)
        assert disk.returncode == 0, disk.stderr
        match = re.search(r"OK messages=(\d+)", disk.stdout)
        assert match, disk.stdout
        messages = int(match.group(1))
        assert messages >= 16_000, "corpus must be >=10x the large stream scale"
        # The capped interpreter cleaned up its store directory.
        assert not list(tmp_path.glob("repro_store_*"))

        memory = _run_capped("memory", tmp_path)
        assert memory.returncode != 0, (
            "the in-memory backend satisfied a cap it must not fit under — "
            "either the cap is too generous or the corpus too small\n"
            + memory.stdout
        )
        assert "MemoryError" in memory.stderr, memory.stderr
