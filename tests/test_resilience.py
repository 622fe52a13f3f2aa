"""Tests for the fault-tolerant execution layer (repro.sweep.resilience).

The load-bearing properties:

* retry schedules are a pure function of the grid — deterministic
  backoff + jitter from the spec hash;
* worker crashes and hangs cost only the in-flight spec: the pool
  respawns the worker, retries per policy, and the rest of the grid
  completes bit-identically;
* specs that exhaust retries land in the quarantine sidecar with their
  traceback, and ``on_error`` picks fail/skip/quarantine semantics.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.sweep import (
    NO_RETRY,
    ChaosPlan,
    Fault,
    QuarantineLog,
    ResultStore,
    RetryPolicy,
    RunSpec,
    SpecOutcome,
    SweepExecutionError,
    SweepRunner,
    default_quarantine_path,
    execute_spec,
)
from repro.sweep.chaos import CHAOS_ENV
from repro.sweep.resilience import Attempt, WorkerPool

SHORT_NS = 150_000.0


def tiny_spec(**overrides) -> RunSpec:
    base = dict(scale="tiny", load=0.25, seed=2024, duration_ns=SHORT_NS)
    base.update(overrides)
    return RunSpec(**base)


def grid(n: int = 4) -> list[RunSpec]:
    seeds = (2024, 7, 99, 5, 13, 21, 34, 55)
    return [tiny_spec(seed=seeds[i]) for i in range(n)]


def set_chaos(monkeypatch, *faults: Fault) -> None:
    monkeypatch.setenv(
        CHAOS_ENV, ChaosPlan.from_faults(faults).to_json()
    )


FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01, jitter_frac=0.1)


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_is_deterministic_per_spec_and_attempt(self):
        policy = RetryPolicy()
        h = tiny_spec().content_hash
        assert policy.delay_s(1, h) == policy.delay_s(1, h)
        # Different attempts and different specs jitter differently.
        assert policy.delay_s(1, h) != policy.delay_s(2, h)
        other = tiny_spec(seed=7).content_hash
        assert policy.delay_s(1, h) != policy.delay_s(1, other)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10,
            backoff_base_s=1.0,
            backoff_factor=2.0,
            max_backoff_s=4.0,
            jitter_frac=0.0,
        )
        h = tiny_spec().content_hash
        assert policy.delay_s(1, h) == 1.0
        assert policy.delay_s(2, h) == 2.0
        assert policy.delay_s(3, h) == 4.0
        assert policy.delay_s(4, h) == 4.0  # capped

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, jitter_frac=0.25, max_backoff_s=100.0
        )
        for seed in range(20):
            delay = policy.delay_s(1, tiny_spec(seed=seed).content_hash)
            assert 1.0 <= delay <= 1.25

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=float("inf"))
        for name in ("backoff_base_s", "max_backoff_s", "jitter_frac"):
            for value in (-1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError) as excinfo:
                    RetryPolicy(**{name: value})
                assert str(excinfo.value) == (
                    f"{name} must be non-negative and finite"
                )
        with pytest.raises(ValueError, match="attempt numbers"):
            RetryPolicy().delay_s(0, "abc")

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


class TestSpecOutcome:
    def test_from_attempts_takes_last_status_and_error(self):
        outcome = SpecOutcome.from_attempts(
            "abc",
            [
                Attempt("crashed", 1.0, "worker crashed (exit code 9)"),
                Attempt("failed", 2.0, "ValueError: nope", "traceback..."),
            ],
        )
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert outcome.elapsed_s == (1.0, 2.0)
        assert outcome.attempt_statuses == ("crashed", "failed")
        assert outcome.error == "ValueError: nope"
        assert not outcome.ok
        # JSON-able for the quarantine sidecar.
        assert json.loads(json.dumps(outcome.to_dict())) == outcome.to_dict()


# ---------------------------------------------------------------------------
# serial retry semantics (in-process)
# ---------------------------------------------------------------------------


class TestSerialResilience:
    def test_transient_raise_retries_to_success(self, monkeypatch):
        spec = tiny_spec()
        set_chaos(
            monkeypatch,
            Fault(match=spec.content_hash, kind="raise", attempts=(1,)),
        )
        runner = SweepRunner(retry=FAST_RETRY)
        results = runner.run([spec])
        outcome = runner.outcomes[spec.content_hash]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.attempt_statuses == ("failed", "ok")
        monkeypatch.delenv(CHAOS_ENV)
        reference = execute_spec(spec)
        assert results[spec.content_hash].to_dict() == reference.to_dict()

    def test_default_serial_failure_reraises_original_exception(self):
        # The legacy contract: no retry, on_error="fail" -> the original
        # exception type propagates unchanged.
        bad = tiny_spec(collect=("nonexistent",))
        with pytest.raises(ValueError, match="collect"):
            SweepRunner().run([bad])

    def test_skip_mode_completes_rest_of_grid(self, monkeypatch):
        specs = grid(3)
        set_chaos(
            monkeypatch, Fault(match=specs[1].content_hash, kind="raise")
        )
        runner = SweepRunner(on_error="skip", retry=FAST_RETRY)
        results = runner.run(specs)
        assert set(results) == {
            specs[0].content_hash, specs[2].content_hash,
        }
        outcome = runner.outcomes[specs[1].content_hash]
        assert outcome.status == "failed"
        assert outcome.attempts == FAST_RETRY.max_attempts
        assert "ChaosError" in outcome.error
        assert runner.failed_hashes() == {specs[1].content_hash}

    def test_quarantine_mode_writes_sidecar(self, monkeypatch, tmp_path):
        specs = grid(2)
        set_chaos(
            monkeypatch, Fault(match=specs[0].content_hash, kind="raise")
        )
        store = ResultStore(tmp_path / "sweep.jsonl")
        runner = SweepRunner(
            store=store, on_error="quarantine", retry=FAST_RETRY
        )
        results = runner.run(specs)
        assert set(results) == {specs[1].content_hash}
        assert runner.quarantine.path == tmp_path / "sweep.quarantine.jsonl"
        rows = runner.quarantine.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["spec_hash"] == specs[0].content_hash
        assert row["status"] == "failed"
        assert "ChaosError" in row["traceback"]
        # The full spec rides along, so the quarantined point can re-run.
        assert RunSpec.from_dict(row["spec"]) == specs[0]
        # The healthy spec landed in the store; the poisoned one did not.
        assert store.completed_hashes() == {specs[1].content_hash}

    def test_quarantine_without_store_needs_explicit_path(self, tmp_path):
        with pytest.raises(ValueError, match="quarantine"):
            SweepRunner(on_error="quarantine")
        runner = SweepRunner(
            on_error="quarantine", quarantine=str(tmp_path / "q.jsonl")
        )
        assert runner.quarantine.path == tmp_path / "q.jsonl"

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            SweepRunner(on_error="explode")

    def test_nonpositive_timeout_rejected(self):
        # nan <= 0 is false: without the finite check a nan deadline
        # never expires.
        for timeout_s in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError) as excinfo:
                SweepRunner(timeout_s=timeout_s)
            assert str(excinfo.value) == "timeout_s must be positive and finite"


# ---------------------------------------------------------------------------
# the worker pool: crashes, hangs, containment
# ---------------------------------------------------------------------------


class TestWorkerPoolResilience:
    def test_worker_crash_retries_and_matches_clean_run(self, monkeypatch):
        """An os._exit mid-spec (segfault stand-in) costs one attempt of
        one spec; the result after retry is bit-identical to a clean run."""
        specs = grid(4)
        victim = specs[2]
        clean = SweepRunner(jobs=1).run(specs)
        set_chaos(
            monkeypatch,
            Fault(match=victim.content_hash, kind="exit", attempts=(1,)),
        )
        runner = SweepRunner(jobs=2, timeout_s=120.0, retry=FAST_RETRY)
        results = runner.run(specs)
        outcome = runner.outcomes[victim.content_hash]
        assert outcome.attempt_statuses == ("crashed", "ok")
        for spec in specs:
            assert (
                results[spec.content_hash].to_dict()
                == clean[spec.content_hash].to_dict()
            )

    def test_permanent_crash_quarantines_not_aborts(
        self, monkeypatch, tmp_path
    ):
        specs = grid(4)
        victim = specs[0]
        set_chaos(monkeypatch, Fault(match=victim.content_hash, kind="exit"))
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(
            jobs=2,
            store=store,
            timeout_s=120.0,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            on_error="quarantine",
        )
        results = runner.run(specs)
        assert len(results) == 3
        outcome = runner.outcomes[victim.content_hash]
        assert outcome.status == "crashed"
        assert outcome.attempts == 2
        assert "exit code" in outcome.error
        assert runner.quarantine.hashes() == {victim.content_hash}

    def test_hung_worker_killed_at_timeout(self, monkeypatch):
        specs = grid(3)
        victim = specs[1]
        set_chaos(monkeypatch, Fault(match=victim.content_hash, kind="hang"))
        runner = SweepRunner(jobs=2, timeout_s=1.5, on_error="skip")
        results = runner.run(specs)
        assert set(results) == {
            specs[0].content_hash, specs[2].content_hash,
        }
        outcome = runner.outcomes[victim.content_hash]
        assert outcome.status == "timed-out"
        assert "timed out" in outcome.error
        # The kill cost a worker: the pool respawned at least one.
        assert outcome.elapsed_s[0] >= 1.4

    def test_pool_failure_raises_sweep_execution_error(self, monkeypatch):
        specs = grid(2)
        set_chaos(
            monkeypatch, Fault(match=specs[0].content_hash, kind="raise")
        )
        runner = SweepRunner(jobs=2, timeout_s=120.0)
        with pytest.raises(SweepExecutionError) as err:
            runner.run(specs)
        assert err.value.spec == specs[0]
        assert err.value.outcome.status == "failed"
        assert "ChaosError" in err.value.outcome.traceback

    def test_timeout_forces_pool_even_at_jobs_1(self, monkeypatch):
        """timeout_s must be enforceable, so jobs=1 routes through a
        one-worker pool instead of the in-process serial loop."""
        spec = tiny_spec()
        set_chaos(monkeypatch, Fault(match=spec.content_hash, kind="hang"))
        runner = SweepRunner(jobs=1, timeout_s=1.0, on_error="skip")
        results = runner.run([spec])
        assert results == {}
        assert runner.outcomes[spec.content_hash].status == "timed-out"

    def test_pool_results_bit_identical_and_stored(self, tmp_path):
        """The resilient pool preserves the determinism contract."""
        specs = grid(5)
        serial = SweepRunner(jobs=1).run(specs)
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(jobs=3, store=store, retry=FAST_RETRY)
        pooled = runner.run(specs)
        assert runner.executed == len(specs)
        for spec_hash, summary in serial.items():
            assert pooled[spec_hash].to_dict() == summary.to_dict()
            assert store.load()[spec_hash].to_dict() == summary.to_dict()
        assert all(o.ok and o.attempts == 1 for o in runner.outcomes.values())


class TestRunnerPool:
    """One pool per runner: reused across run() calls, re-forked when
    what workers inherit changes, and never outliving its runner."""

    def test_two_runs_fork_one_pool(self, monkeypatch):
        forked = []
        init = WorkerPool.__init__

        def counting_init(pool, *args, **kwargs):
            forked.append(pool)
            init(pool, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "__init__", counting_init)
        specs = grid(4)
        runner = SweepRunner(jobs=2)
        runner.run(specs[:2])
        runner.run(specs[2:])
        assert runner.executed == 4
        assert len(forked) == 1

    def test_pool_sized_by_batch_and_grown_to_jobs(self):
        specs = grid(6)
        with SweepRunner(jobs=3) as runner:
            runner.run(specs[:2])
            assert len(multiprocessing.active_children()) == 2
            runner.run(specs[2:])
            assert len(multiprocessing.active_children()) == 3

    def test_chaos_plan_set_between_runs_reaches_workers(self, monkeypatch):
        specs = grid(4)
        victim = specs[3]
        with SweepRunner(jobs=2, on_error="skip") as runner:
            runner.run(specs[:2])
            set_chaos(
                monkeypatch, Fault(match=victim.content_hash, kind="raise")
            )
            results = runner.run(specs[2:])
        assert set(results) == {specs[2].content_hash}
        outcome = runner.outcomes[victim.content_hash]
        assert outcome.status == "failed"
        assert "ChaosError" in outcome.error

    def test_crash_leaves_pool_at_full_strength(self, monkeypatch):
        specs = grid(6)
        victim = specs[1]
        serial = SweepRunner(jobs=1).run(specs)
        set_chaos(
            monkeypatch,
            Fault(match=victim.content_hash, kind="exit", attempts=(1,)),
        )
        with SweepRunner(jobs=2, timeout_s=120.0, retry=FAST_RETRY) as runner:
            runner.run(specs[:3])
            statuses = runner.outcomes[victim.content_hash].attempt_statuses
            assert statuses == ("crashed", "ok")
            assert len(multiprocessing.active_children()) == 2
            second = runner.run(specs[3:])
        for spec in specs[3:]:
            assert (
                second[spec.content_hash].to_dict()
                == serial[spec.content_hash].to_dict()
            )

    def test_no_worker_outlives_a_with_block(self):
        with SweepRunner(jobs=2) as runner:
            runner.run(grid(2))
            assert multiprocessing.active_children()
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_dropped_runner(self):
        runner = SweepRunner(jobs=2)
        runner.run(grid(2))
        assert multiprocessing.active_children()
        del runner
        assert multiprocessing.active_children() == []

    def test_forked_child_cannot_stop_parent_workers(self):
        specs = grid(4)
        with SweepRunner(jobs=2) as runner:
            runner.run(specs[:2])
            child = multiprocessing.get_context("fork").Process(
                target=runner.close
            )
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            assert len(multiprocessing.active_children()) == 2
            assert len(runner.run(specs[2:])) == 2

    def test_no_worker_outlives_a_failed_run(self, monkeypatch):
        specs = grid(4)
        set_chaos(
            monkeypatch, Fault(match=specs[0].content_hash, kind="raise")
        )
        runner = SweepRunner(jobs=2)
        with pytest.raises(SweepExecutionError):
            runner.run(specs)
        assert multiprocessing.active_children() == []
        # The next run forks a fresh pool.
        monkeypatch.delenv(CHAOS_ENV)
        assert len(runner.run(specs)) == len(specs)
        runner.close()
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the quarantine log
# ---------------------------------------------------------------------------


class TestQuarantineLog:
    def test_roundtrip_and_torn_line_tolerance(self, tmp_path):
        log = QuarantineLog(tmp_path / "q.jsonl")
        spec = tiny_spec()
        outcome = SpecOutcome.from_attempts(
            spec.content_hash,
            [Attempt("failed", 0.5, "RuntimeError: boom", "tb")],
        )
        log.put(spec, outcome)
        with log.path.open("a") as handle:
            handle.write('{"torn": ')
        rows = log.rows()
        assert len(rows) == 1
        assert rows[0]["error"] == "RuntimeError: boom"
        assert log.hashes() == {spec.content_hash}

    def test_missing_file_is_empty(self, tmp_path):
        assert QuarantineLog(tmp_path / "absent.jsonl").rows() == []

    def test_default_path_derivation(self):
        assert (
            str(default_quarantine_path("results/sweep.jsonl"))
            == "results/sweep.quarantine.jsonl"
        )
