"""Chaos-injection tests: the fault-tolerance acceptance suite.

The headline contract (DESIGN.md §13): a sweep bombarded with injected
crashes, hangs, and failures completes every healthy spec, quarantines the
poisoned ones with tracebacks, and — after the faults clear — a resumed
run converges to a store whose canonical content digest is identical to an
undisturbed serial run's.
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

from repro.sweep import (
    ChaosError,
    ChaosPlan,
    Fault,
    ResultStore,
    RetryPolicy,
    RunSpec,
    SweepRunner,
    execute_spec,
)
from repro.sweep.chaos import (
    CHAOS_ENV,
    DEFAULT_EXIT_CODE,
    DEFAULT_HANG_S,
    active_plan,
    maybe_inject,
)

SHORT_NS = 150_000.0

FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base_s=0.01)


def acceptance_grid() -> list[RunSpec]:
    """32 cheap specs spanning scenarios, loads, and seeds."""
    return [
        RunSpec(
            scale="tiny",
            scenario=scenario,
            load=load,
            seed=seed,
            duration_ns=SHORT_NS,
        )
        for scenario in ("poisson", "hotspot", "permutation", "bursty")
        for load in (0.1, 0.25)
        for seed in (2024, 7, 99, 13)
    ]


def set_chaos(monkeypatch, *faults: Fault) -> None:
    monkeypatch.setenv(CHAOS_ENV, ChaosPlan.from_faults(faults).to_json())


# ---------------------------------------------------------------------------
# the plan itself
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_json_roundtrip(self):
        plan = ChaosPlan.from_faults(
            [
                Fault(match="3fa9c1", kind="raise"),
                Fault(match="77b2", kind="exit", attempts=(1, 3)),
                Fault(match="c0ffee", kind="hang", hang_s=30.0),
                Fault(match="dead", kind="exit", exit_code=9),
            ]
        )
        assert ChaosPlan.from_json(plan.to_json()) == plan
        # Defaults are elided from the wire format.
        payload = json.loads(plan.to_json())
        assert "hang_s" not in payload["faults"][0]
        assert payload["faults"][2]["hang_s"] == 30.0
        assert payload["faults"][3]["exit_code"] == 9

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            ChaosPlan.from_json("{nope")
        with pytest.raises(ValueError, match="faults"):
            ChaosPlan.from_json('{"other": 1}')
        with pytest.raises(ValueError, match="unknown chaos fault key"):
            ChaosPlan.from_json(
                '{"faults": [{"match": "ab", "kind": "raise", "oops": 1}]}'
            )
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(match="ab", kind="explode")
        with pytest.raises(ValueError, match="non-empty"):
            Fault(match="", kind="raise")

    def test_fault_gating_by_prefix_and_attempt(self):
        fault = Fault(match="abc", kind="raise", attempts=(2,))
        assert not fault.applies("abcdef", 1)
        assert fault.applies("abcdef", 2)
        assert not fault.applies("xabcdef", 2)
        every = Fault(match="abc", kind="raise")
        assert every.applies("abcdef", 1)
        assert every.applies("abcdef", 99)

    def test_fault_for_first_match_wins(self):
        plan = ChaosPlan.from_faults(
            [
                Fault(match="ab", kind="raise"),
                Fault(match="abc", kind="hang"),
            ]
        )
        assert plan.fault_for("abcd", 1).kind == "raise"
        assert plan.fault_for("zzz", 1) is None

    def test_inject_raise(self):
        plan = ChaosPlan.from_faults([Fault(match="ab", kind="raise")])
        with pytest.raises(ChaosError, match="chaos"):
            plan.inject("abcd", 1)
        plan.inject("zzz", 1)  # no matching fault: no-op

    def test_maybe_inject_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        maybe_inject("a" * 64, 1)  # must not raise

    def test_active_plan_tracks_env(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert active_plan().faults == ()
        set_chaos(monkeypatch, Fault(match="ab", kind="raise"))
        assert len(active_plan().faults) == 1
        set_chaos(monkeypatch, Fault(match="cd", kind="hang"))
        assert active_plan().faults[0].match == "cd"

    def test_defaults_are_sane(self):
        # The default hang outlives any plausible per-spec timeout, and
        # the default exit code is distinctive in worker-death reports.
        assert DEFAULT_HANG_S >= 600
        assert DEFAULT_EXIT_CODE not in (0, 1, 2)


# ---------------------------------------------------------------------------
# the acceptance run: 32 specs, crashes + hangs + raises, converge on resume
# ---------------------------------------------------------------------------


class TestChaosConvergence:
    def test_poisoned_sweep_quarantines_and_resume_converges(
        self, monkeypatch, tmp_path
    ):
        specs = acceptance_grid()
        assert len(specs) == 32

        # The undisturbed reference: serial, no chaos.
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        serial = SweepRunner(jobs=1, store=serial_store).run(specs)

        # Poison four specs: one permanent raise, one permanent crash,
        # one permanent hang, one transient raise (first attempt only).
        raise_spec, exit_spec, hang_spec, flaky_spec = (
            specs[0], specs[5], specs[10], specs[15],
        )
        set_chaos(
            monkeypatch,
            Fault(match=raise_spec.content_hash, kind="raise"),
            Fault(match=exit_spec.content_hash, kind="exit"),
            Fault(match=hang_spec.content_hash, kind="hang"),
            Fault(match=flaky_spec.content_hash, kind="raise", attempts=(1,)),
        )
        chaos_store = ResultStore(tmp_path / "chaos.jsonl")
        runner = SweepRunner(
            jobs=2,
            store=chaos_store,
            timeout_s=1.5,
            retry=FAST_RETRY,
            on_error="quarantine",
        )
        results = runner.run(specs)

        # Healthy specs (and the flaky one, on retry) all completed.
        poisoned = {
            raise_spec.content_hash,
            exit_spec.content_hash,
            hang_spec.content_hash,
        }
        assert len(results) == 29
        assert set(results) == {s.content_hash for s in specs} - poisoned
        assert runner.outcomes[flaky_spec.content_hash].attempt_statuses == (
            "failed", "ok",
        )

        # The poisoned specs are quarantined with diagnosable outcomes.
        assert runner.quarantine.hashes() == poisoned
        by_hash = {row["spec_hash"]: row for row in runner.quarantine.rows()}
        assert by_hash[raise_spec.content_hash]["status"] == "failed"
        assert "ChaosError" in by_hash[raise_spec.content_hash]["traceback"]
        assert by_hash[exit_spec.content_hash]["status"] == "crashed"
        assert "exit code 77" in by_hash[exit_spec.content_hash]["error"]
        assert by_hash[hang_spec.content_hash]["status"] == "timed-out"
        for row in by_hash.values():
            assert row["attempts"] == FAST_RETRY.max_attempts
            assert RunSpec.from_dict(row["spec"]).content_hash == (
                row["spec_hash"]
            )

        # Faults clear (deploy fixed, machine rebooted): resume executes
        # exactly the quarantined specs and nothing else.
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        resumer = SweepRunner(jobs=1, store=chaos_store, resume=True)
        resumed = resumer.run(specs)
        assert resumer.executed == 3
        assert resumer.cached == 29
        assert set(resumed) == {s.content_hash for s in specs}

        # Convergence: every summary bit-identical to the serial run, and
        # the compacted stores digest identically.
        for spec in specs:
            assert (
                resumed[spec.content_hash].to_dict()
                == serial[spec.content_hash].to_dict()
            )
        serial_store.compact()
        chaos_store.compact()
        assert serial_store.content_digest() == chaos_store.content_digest()
        assert serial_store.verify().ok
        assert chaos_store.verify().ok


# ---------------------------------------------------------------------------
# SIGINT mid-sweep: interrupt, resume, match the golden bit-for-bit
# ---------------------------------------------------------------------------


def cli_env(**extra: str) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {"PYTHONPATH": src, "PATH": "/usr/bin:/bin", **extra}
    # The subprocess must run the same engine core as this process: stored
    # summaries record core_used, and the bit-for-bit comparison against an
    # in-process golden would otherwise diverge on that key alone.
    if "REPRO_CORE" in os.environ:
        env["REPRO_CORE"] = os.environ["REPRO_CORE"]
    return env


SWEEP_ARGS = (
    "sweep",
    "--scale", "tiny",
    "--scenario", "poisson",
    "--scenario", "hotspot",
    "--load", "0.1",
    "--load", "0.25",
    "--duration-ms", "0.15",
    "--jobs", "1",
)


class TestSigintResume:
    def test_interrupt_then_resume_executes_only_missing(self, tmp_path):
        store_path = tmp_path / "sweep.jsonl"

        # Harvest the grid's execution order from a dry run.
        dry = subprocess.run(
            [sys.executable, "-m", "repro", *SWEEP_ARGS, "--dry-run"],
            capture_output=True, text=True, env=cli_env(),
        )
        assert dry.returncode == 0, dry.stderr
        hashes = [
            line.split()[0]
            for line in dry.stdout.splitlines()
            if line
            and len(line.split()[0]) == 12
            and set(line.split()[0]) <= set("0123456789abcdef")
        ]
        assert len(hashes) == 4

        # Hang the last spec: the sweep completes three runs, then stalls
        # mid-grid — the window where an operator hits Ctrl-C.
        plan = ChaosPlan.from_faults(
            [Fault(match=hashes[-1], kind="hang")]
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", *SWEEP_ARGS,
                "--store", str(store_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=cli_env(**{CHAOS_ENV: plan.to_json()}),
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if (
                    store_path.exists()
                    and len(store_path.read_bytes().splitlines()) >= 3
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep never completed its first three specs")
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "interrupted" in stderr
        assert "rerun the same command" in stderr

        # The interrupted store holds exactly the three completed runs,
        # every row intact.
        store = ResultStore(store_path)
        report = store.verify()
        assert report.ok
        assert report.unique_hashes == 3

        # Rerun without chaos: only the missing spec executes, at once,
        # because the interrupted worker released its leases.
        started = time.monotonic()
        resume = subprocess.run(
            [
                sys.executable, "-m", "repro", *SWEEP_ARGS,
                "--store", str(store_path),
            ],
            capture_output=True, text=True, env=cli_env(),
        )
        assert resume.returncode == 0, resume.stderr
        assert "1 executed, 3 cached" in resume.stdout
        assert time.monotonic() - started < 30  # the lease TTL is 60 s

        # Bit-for-bit against the serial golden, computed in-process.
        stored = store.load()
        specs = store.load_specs()
        assert len(stored) == 4
        assert {spec.short_hash for spec in specs.values()} == set(hashes)
        for spec_hash, spec in specs.items():
            golden = execute_spec(spec)
            assert stored[spec_hash].to_dict() == golden.to_dict()


# ---------------------------------------------------------------------------
# a failing spec under --on-error fail: one line and exit 2 on every path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "path_flags", [(), ("--timeout-s", "30")], ids=["serial", "pool"]
)
def test_failing_spec_ends_the_sweep_with_one_line(tmp_path, path_flags):
    """The serial path re-raises the spec's own exception and the pool
    path raises SweepExecutionError; the CLI ends both the same way."""
    grid = (
        "sweep", "--scale", "tiny", "--scenario", "poisson",
        "--load", "0.1", "--duration-ms", "0.15", "--jobs", "1",
    )
    dry = subprocess.run(
        [sys.executable, "-m", "repro", *grid, "--dry-run"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert dry.returncode == 0, dry.stderr
    short_hash, label = dry.stdout.splitlines()[0].split("  ", 1)
    plan = ChaosPlan.from_faults([Fault(match=short_hash, kind="raise")])
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", *grid, *path_flags,
            "--store", str(tmp_path / "s.jsonl"),
        ],
        capture_output=True, text=True,
        env=cli_env(**{CHAOS_ENV: plan.to_json()}),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith(
        f"spec {short_hash} ({label}) failed after 1 attempt(s): ChaosError"
    ), last
