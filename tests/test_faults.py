"""Tests for the fault-injection harness and the supervision layer.

Four layers:

* :mod:`repro.engine.faults` — spec parsing, deterministic hash
  draws, site gating, worker-only firing;
* :class:`repro.engine.runner.WorkerPool` under a
  :class:`~repro.engine.supervise.SupervisePolicy` — the recovery
  ladder itself: crash → respawn → retry → degrade, hang → deadline →
  retry, app errors propagating unretried, with stats proving the
  faults actually fired — and the unsupervised pool's structured
  crash error;
* :mod:`repro.engine.checkpoint` — replica checkpoint round-trips and
  rejection of foreign/torn files;
* the **differential fault suite** — the module's reason to exist:
  every scenario family produces byte-identical records under
  injected crashes and hangs (both kernels, ``workers=2``), a killed
  ``repro replicate`` resumes via ``--resume`` to byte-identical
  pooled output.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import checkpoint, faults, supervise
from repro.engine.faults import FaultPlan, FaultSpec, parse_faults, use_faults
from repro.engine.replicate import replica_seeds, replicate_scenario
from repro.engine.runner import ParallelRunner, WorkerPool
from repro.engine.supervise import SupervisePolicy, use_supervision
from repro.errors import (
    ConfigurationError,
    EngineError,
    MapTimeoutError,
    WorkerCrashError,
)
from repro.experiments.results import ExperimentRecord

TINY_DICTIONARY = dict(
    inbox_size=120,
    folds=2,
    corpus_ham=120,
    corpus_spam=120,
    attack_fractions=(0.0, 0.05),
)

TINY_STREAM = dict(
    ticks=3,
    ham_per_tick=20,
    spam_per_tick=20,
    attack_start_tick=2,
    test_size=60,
)


# Module-level so pool workers can pickle them by reference.
def _square_task(context, task):
    return context["offset"] + task * task


def _failing_task(context, task):
    if task == 3:
        raise ValueError("task three exploded")
    return task


def _dying_task(context, task):
    os._exit(13)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


class TestParseFaults:
    def test_none_and_empty_mean_no_plan(self):
        assert parse_faults(None) is None
        assert parse_faults("") is None
        assert parse_faults("  ,  ") is None

    def test_single_clause_defaults(self):
        plan = parse_faults("crash")
        assert plan.specs == (FaultSpec("crash", 1.0),)
        assert plan.seed == 0

    def test_full_grammar(self):
        plan = parse_faults("crash:p=0.2,hang:p=0.05:s=0.5,seed=7")
        assert plan.seed == 7
        assert plan.specs[0] == FaultSpec("crash", 0.2)
        assert plan.specs[1] == FaultSpec("hang", 0.05, seconds=0.5)

    def test_shm_unlink_mode(self):
        plan = parse_faults("shm-unlink:p=0.5")
        assert plan.specs == (FaultSpec("shm-unlink", 0.5),)

    @pytest.mark.parametrize(
        "text",
        [
            "explode",  # unknown mode
            "crash:p=2",  # probability out of range
            "crash:q=0.5",  # unknown param
            "crash:p",  # missing value
            "crash:p=abc",  # non-numeric value
            "seed=x",  # bad seed
            "hang:s=-1",  # negative stall
        ],
    )
    def test_junk_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_faults(text)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan((FaultSpec("crash", 0.5),), seed=3)
        draws = [plan.decide("worker-chunk", f"k{i}") for i in range(64)]
        assert draws == [plan.decide("worker-chunk", f"k{i}") for i in range(64)]
        fired = sum(1 for draw in draws if draw is not None)
        assert 0 < fired < 64  # p=0.5 over 64 keys: both outcomes occur

    def test_seed_changes_decisions(self):
        keys = [f"k{i}" for i in range(64)]

        def fired(seed):
            plan = FaultPlan((FaultSpec("crash", 0.5),), seed=seed)
            return [plan.decide("worker-chunk", key) is not None for key in keys]

        assert fired(0) != fired(1)

    def test_site_gating(self):
        plan = FaultPlan((FaultSpec("shm-unlink", 1.0),))
        assert plan.decide("worker-chunk", "k") is None
        assert plan.decide("shm-unlink", "k") is not None
        crash = FaultPlan((FaultSpec("crash", 1.0),))
        assert crash.decide("shm-unlink", "k") is None

    def test_bool_reflects_live_probability(self):
        assert not FaultPlan((FaultSpec("crash", 0.0),))
        assert FaultPlan((FaultSpec("crash", 0.1),))

    def test_inject_is_noop_outside_workers(self):
        # An injected crash in the parent would take the whole test
        # run with it; this call returning at all is the assertion.
        with use_faults(FaultPlan((FaultSpec("crash", 1.0),))):
            assert not faults.in_worker_process()
            faults.inject("worker-chunk", "any")

    def test_env_activation_and_cache(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.active_plan() is None
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:p=0.25")
        plan = faults.active_plan()
        assert plan.specs == (FaultSpec("crash", 0.25),)
        assert faults.active_plan() is plan  # cached per distinct value


# ----------------------------------------------------------------------
# Policy resolution
# ----------------------------------------------------------------------


class TestPolicyResolution:
    def test_inactive_by_default(self, monkeypatch):
        for var in ("REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_FAULTS"):
            monkeypatch.delenv(var, raising=False)
        assert supervise.current_policy() is None

    def test_faults_env_auto_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=0.1")
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        policy = supervise.current_policy()
        assert policy is not None
        assert policy.retries == supervise.DEFAULT_RETRIES

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        policy = supervise.current_policy()
        assert policy == SupervisePolicy(timeout=2.5, retries=4, degrade=False)

    def test_thread_local_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=0.1")
        with use_supervision(None):
            assert supervise.current_policy() is None
        explicit = SupervisePolicy(retries=0)
        with use_supervision(explicit):
            assert supervise.current_policy() is explicit
        assert supervise.current_policy() is not None  # env default restored

    def test_invalid_policy_rejected(self):
        with pytest.raises(EngineError):
            SupervisePolicy(timeout=0)
        with pytest.raises(EngineError):
            SupervisePolicy(retries=-1)


# ----------------------------------------------------------------------
# The supervised pool: recovery ladder
# ----------------------------------------------------------------------


class TestSupervisedPool:
    def test_clean_run_matches_unsupervised(self):
        tasks = list(range(23))
        policy = SupervisePolicy(timeout=120.0, retries=2)
        # use_faults(None): stay clean even when the CI leg exports
        # REPRO_FAULTS around this whole file.
        with use_faults(None), WorkerPool(3, policy=policy) as pool:
            results = pool.run(_square_task, {"offset": 5}, tasks)
            stats = pool.stats.as_dict()
        assert results == [5 + task * task for task in tasks]
        assert all(count == 0 for count in stats.values())

    def test_certain_crash_degrades_to_correct_results(self):
        with use_faults(FaultPlan((FaultSpec("crash", 1.0),))):
            policy = SupervisePolicy(retries=1, degrade=True)
            with WorkerPool(2, policy=policy) as pool:
                results = pool.run(_square_task, {"offset": 3}, list(range(8)))
                stats = pool.stats.as_dict()
        assert results == [3 + task * task for task in range(8)]
        assert stats["crashes"] >= 1
        assert stats["respawns"] >= 1
        assert stats["degraded_chunks"] >= 1

    def test_certain_crash_without_degrade_raises_with_provenance(self):
        with use_faults(FaultPlan((FaultSpec("crash", 1.0),))):
            policy = SupervisePolicy(retries=1, degrade=False)
            with WorkerPool(2, policy=policy) as pool:
                with pytest.raises(WorkerCrashError) as excinfo:
                    pool.run(_square_task, {"offset": 0}, list(range(8)))
        error = excinfo.value
        assert error.attempts == 2  # initial try + 1 retry
        assert error.chunk_starts  # the unfinished offsets survive
        assert "_square_task" in error.provenance

    def test_partial_crash_retries_only_unfinished_chunks(self):
        # seed=1 fires at least one crash on attempt 0 and none on
        # attempt 1 for this map shape, so the retry completes without
        # ever degrading — the accounting path, not the fallback path.
        with use_faults(FaultPlan((FaultSpec("crash", 0.08),), seed=1)):
            policy = SupervisePolicy(retries=3, degrade=False)
            with WorkerPool(2, policy=policy) as pool:
                results = pool.run(_square_task, {"offset": 3}, list(range(16)))
                stats = pool.stats.as_dict()
        assert results == [3 + task * task for task in range(16)]
        assert stats["crashes"] >= 1
        assert stats["retried_chunks"] >= 1
        assert stats["degraded_chunks"] == 0

    def test_hang_past_deadline_raises_timeout_without_degrade(self):
        with use_faults(FaultPlan((FaultSpec("hang", 1.0, seconds=30.0),))):
            policy = SupervisePolicy(timeout=0.5, retries=0, degrade=False)
            with WorkerPool(2, policy=policy) as pool:
                with pytest.raises(MapTimeoutError) as excinfo:
                    pool.run(_square_task, {"offset": 0}, list(range(4)))
        assert "deadline" in str(excinfo.value)

    def test_hang_past_deadline_degrades_to_correct_results(self):
        with use_faults(FaultPlan((FaultSpec("hang", 1.0, seconds=30.0),))):
            policy = SupervisePolicy(timeout=0.5, retries=0, degrade=True)
            with WorkerPool(2, policy=policy) as pool:
                results = pool.run(_square_task, {"offset": 1}, list(range(4)))
                stats = pool.stats.as_dict()
        assert results == [1 + task * task for task in range(4)]
        assert stats["timeouts"] >= 1
        assert stats["degraded_chunks"] >= 1

    def test_app_exception_propagates_unretried(self):
        policy = SupervisePolicy(retries=5, degrade=True)
        with use_faults(None), WorkerPool(2, policy=policy) as pool:
            with pytest.raises(ValueError, match="task three exploded"):
                pool.run(_failing_task, None, list(range(6)))
            stats = pool.stats.as_dict()
            # A deterministic failure consumed no retry budget...
            assert stats["retried_chunks"] == 0
            assert stats["degraded_chunks"] == 0
            # ...and the pool survives to serve the next map.
            assert pool.run(_square_task, {"offset": 0}, [2, 4]) == [4, 16]

    def test_pool_survives_recovery_and_serves_next_map(self):
        crash_all = FaultPlan((FaultSpec("crash", 1.0),))
        policy = SupervisePolicy(retries=0, degrade=True)
        with use_faults(None), WorkerPool(2, policy=policy) as pool:
            with use_faults(crash_all):
                degraded = pool.run(_square_task, {"offset": 0}, list(range(6)))
            # Faults gone: the respawned workers serve a clean map.
            clean = pool.run(_square_task, {"offset": 0}, list(range(6)))
        assert degraded == clean == [task * task for task in range(6)]

    def test_supervised_runner_map_inline_below_parallel_threshold(self):
        with use_supervision(SupervisePolicy(retries=0)):
            assert ParallelRunner(8).map(_square_task, {"offset": 0}, [3]) == [9]
            assert ParallelRunner(8).map(_square_task, {"offset": 0}, []) == []

    def test_supervised_runner_map_parallel_matches_inline(self):
        tasks = list(range(10))
        inline = [_square_task({"offset": 2}, task) for task in tasks]
        with use_faults(None), use_supervision(SupervisePolicy(retries=1)):
            pooled = ParallelRunner(2).map(_square_task, {"offset": 2}, tasks)
        assert pooled == inline

    def test_unsupervised_worker_crash_raises_structured_error(self):
        with use_faults(None), use_supervision(None):
            with pytest.raises(WorkerCrashError) as excinfo:
                ParallelRunner(2).map(_dying_task, None, [0, 1])
        assert excinfo.value.attempts == 1  # no retry without a policy
        assert "_dying_task" in excinfo.value.provenance

    def test_unsupervised_pool_injects_no_faults(self):
        # The clean-reference contract: with supervision explicitly off,
        # a live crash plan must not fire, since nothing would recover.
        crash_all = FaultPlan((FaultSpec("crash", 1.0),))
        with use_faults(crash_all), use_supervision(None):
            pooled = ParallelRunner(2).map(_square_task, {"offset": 1}, list(range(6)))
        assert pooled == [1 + task * task for task in range(6)]


# ----------------------------------------------------------------------
# Replica checkpoints
# ----------------------------------------------------------------------


class TestReplicaStore:
    def _record(self, seed):
        return ExperimentRecord(experiment="t", config={"seed": seed})

    def test_round_trip(self, tmp_path):
        store = checkpoint.ReplicaStore(tmp_path, "dictionary-vs-none")
        assert store.load(7) is None
        store.save(7, self._record(7))
        assert store.load(7) == self._record(7)
        assert store.completed_seeds() == [7]

    def test_wrong_scenario_or_seed_rejected(self, tmp_path):
        store = checkpoint.ReplicaStore(tmp_path, "dictionary-vs-none")
        store.save(7, self._record(7))
        other = checkpoint.ReplicaStore(tmp_path, "stream-clean-control")
        assert other.load(7) is None
        # A file renamed to another seed is detected by the envelope.
        os.rename(store.path(7), store.path(8))
        assert store.load(8) is None

    def test_torn_file_treated_as_absent(self, tmp_path):
        store = checkpoint.ReplicaStore(tmp_path, "s")
        store.path(3).write_text('{"format": "repro-replica', encoding="utf-8")
        assert store.load(3) is None
        assert store.completed_seeds() == []


# ----------------------------------------------------------------------
# Differential fault suite: byte-identical records under injection
# ----------------------------------------------------------------------

CRASHY = FaultPlan((FaultSpec("crash", 0.4),), seed=5)
HANGY = FaultPlan((FaultSpec("hang", 0.5, seconds=0.05),), seed=5)
UNLINKY = FaultPlan(
    (FaultSpec("shm-unlink", 0.5), FaultSpec("crash", 0.2)), seed=5
)
SUPERVISED = SupervisePolicy(timeout=60.0, retries=2, degrade=True)


def _record_bytes(record) -> bytes:
    return json.dumps(record.as_dict(), sort_keys=True).encode()


def _scenario_record(workers: int) -> ExperimentRecord:
    from repro.scenarios import get_scenario, run_scenario

    spec = get_scenario("dictionary-vs-none")
    config = spec.build_config(**TINY_DICTIONARY, seed=0, workers=workers)
    return run_scenario(spec, config=config).record


@pytest.mark.parametrize("kernel", ["python", "nd"])
@pytest.mark.parametrize("plan", [CRASHY, HANGY], ids=["crash", "hang"])
def test_scenario_records_identical_under_faults(kernel, plan, monkeypatch):
    if kernel == "nd":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    with use_supervision(None), use_faults(None):
        clean = _record_bytes(_scenario_record(workers=2))
    with use_supervision(SUPERVISED), use_faults(plan):
        faulted = _record_bytes(_scenario_record(workers=2))
    assert faulted == clean


def test_scenario_records_identical_under_segment_loss(monkeypatch):
    # shm-unlink only matters on the kernel that ships segments.
    pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_KERNEL", "nd")
    with use_supervision(None), use_faults(None):
        clean = _record_bytes(_scenario_record(workers=2))
    with use_supervision(SUPERVISED), use_faults(UNLINKY):
        faulted = _record_bytes(_scenario_record(workers=2))
    assert faulted == clean


@pytest.mark.parametrize("kernel", ["python", "nd"])
def test_replicate_records_identical_under_faults(kernel, monkeypatch):
    if kernel == "nd":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_KERNEL", kernel)

    def pooled():
        return _record_bytes(
            replicate_scenario(
                "dictionary-vs-none",
                seeds=2,
                overrides=TINY_DICTIONARY,
                workers=2,
            )
        )

    with use_supervision(None), use_faults(None):
        clean = pooled()
    with use_supervision(SUPERVISED), use_faults(CRASHY):
        faulted = pooled()
    assert faulted == clean


def test_stream_replicate_identical_under_faults(monkeypatch):
    # Streams ship whole-stream tasks through the shared pool; the
    # stream-task injection site fires per replica seed.
    monkeypatch.setenv("REPRO_KERNEL", "python")

    def pooled():
        return _record_bytes(
            replicate_scenario(
                "stream-clean-control",
                seeds=2,
                overrides=TINY_STREAM,
                workers=2,
            )
        )

    with use_supervision(None), use_faults(None):
        clean = pooled()
    with use_supervision(SUPERVISED), use_faults(CRASHY):
        faulted = pooled()
    assert faulted == clean


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestResume:
    def test_resume_skips_completed_replicas(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        kwargs = dict(seeds=2, overrides=TINY_DICTIONARY, workers=1)
        full = replicate_scenario(
            "dictionary-vs-none", checkpoint_dir=str(tmp_path), **kwargs
        )
        # Second run must not recompute anything: poison run_scenario.
        import repro.scenarios

        def explode(*args, **kw):  # pragma: no cover - failure mode
            raise AssertionError("resume recomputed a completed replica")

        monkeypatch.setattr(repro.scenarios, "run_scenario", explode)
        resumed = replicate_scenario(
            "dictionary-vs-none", checkpoint_dir=str(tmp_path), **kwargs
        )
        assert _record_bytes(resumed) == _record_bytes(full)

    def test_partial_checkpoints_complete_to_identical_bytes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        kwargs = dict(seeds=2, overrides=TINY_DICTIONARY, workers=1)
        full = replicate_scenario("dictionary-vs-none", **kwargs)
        # Pre-seed the store with replica 0 only; the resumed run must
        # compute replica 1 and pool to the uninterrupted bytes.
        store = checkpoint.ReplicaStore(tmp_path, "dictionary-vs-none")
        seeds = replica_seeds(0, 2)
        store.save(seeds[0], full.replicas[0])
        resumed = replicate_scenario(
            "dictionary-vs-none", checkpoint_dir=str(tmp_path), **kwargs
        )
        assert _record_bytes(resumed) == _record_bytes(full)
        assert store.completed_seeds() == sorted(seeds)


def _replicate_command(out: Path, resume: Path) -> list[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "replicate",
        "dictionary-vs-none",
        "--seeds",
        "3",
        "--workers",
        "2",
        "--resume",
        str(resume),
        "--out",
        str(out),
    ]
    for key, value in TINY_DICTIONARY.items():
        command += ["--set", f"{key}={value}"]
    return command


@pytest.mark.slow
def test_sigkill_mid_replicate_resumes_to_identical_bytes(tmp_path):
    """SIGKILL a replication mid-flight; ``--resume`` must reproduce
    the uninterrupted output byte-for-byte."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_FAULTS", None)
    # The uninterrupted reference.
    reference = tmp_path / "reference.json"
    done = subprocess.run(
        _replicate_command(reference, tmp_path / "ckpt-reference"),
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    # The victim: killed as soon as its first replica checkpoints.
    out = tmp_path / "resumed.json"
    ckpt = tmp_path / "ckpt"
    victim = subprocess.Popen(
        _replicate_command(out, ckpt),
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline and victim.poll() is None:
            if list(ckpt.glob("*.json")):
                break
            time.sleep(0.05)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup
            victim.kill()
    # Resume: loads the surviving checkpoints, runs the rest.
    resumed = subprocess.run(
        _replicate_command(out, ckpt),
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_bytes() == reference.read_bytes()
