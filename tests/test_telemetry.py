"""Tests for the telemetry subsystem (DESIGN.md §14).

The load-bearing contracts:

* telemetry is *observation only* — engine summaries, spec hashes, and
  golden digests are bit-identical with telemetry off and on;
* every event the subsystem writes validates against the closed schema,
  and the JSONL round-trips losslessly;
* worker heartbeats flow over the resilience pipes without ever being
  confused with results, and the aggregator/progress line math is exact
  under a fake clock;
* the campaign manifest matches the runner's retry/quarantine ground
  truth;
* the tracer is the one way to observe a run: with a one-epoch cadence
  it gives the negotiator's per-epoch series, including the piggyback /
  scheduled byte split, identically on both cores.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import pytest

from repro import (
    Flow,
    ObliviousSimulator,
    SimConfig,
    ThinClos,
    all_to_all_workload,
    golden,
)
from repro.core.relay import SelectiveRelaySimulator
from repro.experiments import MICRO
from repro.sim.adaptive import AdaptiveSimulator
from repro.sim.network import NegotiaToRSimulator
from repro.sim.rotor import RotorSimulator
from repro.sim.vectorized import VectorizedNegotiaToRSimulator
from repro.sweep import (
    ResultStore,
    RetryPolicy,
    RunSpec,
    SweepRunner,
    execute_spec,
    scale_spec_fields,
    system_spec_fields,
)
from repro.sweep.chaos import CHAOS_ENV
from repro.sweep.resilience import WorkerPool, run_with_retries
from repro.sweep.spec import SYSTEMS
from repro.telemetry import (
    DEFAULT_CADENCE_NS,
    EVENT_SCHEMA,
    EngineTracer,
    HeartbeatAggregator,
    MemorySink,
    ProgressReporter,
    TELEMETRY_ENV,
    TELEMETRY_VERSION,
    TelemetryWriter,
    analyze,
    build_manifest,
    clear_active_simulator,
    default_manifest_path,
    heartbeat_payload,
    make_event,
    progress_snapshot,
    read_events,
    set_active_simulator,
    validate_event,
)
from repro.topology.parallel import ParallelNetwork

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SHORT_NS = 80_000.0


def micro_spec(**overrides) -> RunSpec:
    base = dict(
        scenario="poisson",
        load=0.2,
        seed=7,
        duration_ns=SHORT_NS,
        **scale_spec_fields(MICRO),
    )
    base.update(overrides)
    return RunSpec(**base)


#: Every engine's tracer phases: the span names of its run-end event.
PHASES = {
    "negotiator": ["drain", "matching", "piggyback", "relay"],
    "relay": ["drain", "matching", "piggyback", "relay"],
    "oblivious": ["drain", "inject", "relay"],
    "rotor": ["drain", "inject", "offload", "relay"],
    "adaptive": ["drain", "inject", "matching"],
}

RANDOM_FAILURES = {
    "plan": "random",
    "ratio": 0.2,
    "fail_at_ns": 0.0,
    "repair_at_ns": SHORT_NS / 2,
    "seed": 5,
}

#: One micro spec per registered system, plus one under random link
#: failures for each system that takes failure plans.
TRACED_SPECS = [
    pytest.param(micro_spec(**system_spec_fields(name)), id=name)
    for name in SYSTEMS
] + [
    pytest.param(
        micro_spec(
            **system_spec_fields(name), failure_params=RANDOM_FAILURES
        ),
        id=f"{name}-failures",
    )
    for name, entry in SYSTEMS.items()
    if entry.failures
]


def telemetry_env(path: Path, cadence_ns: int = DEFAULT_CADENCE_NS) -> str:
    return json.dumps({"path": str(path), "cadence_ns": cadence_ns})


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# event schema
# ---------------------------------------------------------------------------


class TestEventSchema:
    def test_every_kind_round_trips_through_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = TelemetryWriter(path)
        samples = {
            "campaign-start": dict(campaign="c1", total_specs=4, jobs=2),
            "campaign-end": dict(
                campaign="c1", executed=3, cached=1, failed=0,
                retried=1, quarantined=0, elapsed_s=1.5,
            ),
            "spec-end": dict(
                spec="abc", label="poisson", status="ok", attempts=2,
                elapsed_s=0.25, cached=False,
            ),
            "heartbeat": dict(
                spec="abc", attempt=1, wall_s=0.5, sim_ns=100,
                epochs=3, flows_completed=9, rss_bytes=None,
            ),
            "span": dict(
                engine="negotiator", phase="matching", wall_s=0.01,
                sim_ns=50_000, spec="abc",
            ),
            "counter": dict(
                engine="negotiator", name="grants", delta=12, sim_ns=50_000,
            ),
            "gauge": dict(
                engine="rotor", name="queued_bytes", value=4096.0,
                sim_ns=50_000, spec=None,
            ),
            "run-end": dict(
                engine="oblivious", sim_ns=80_000, wall_s=0.2,
                spans={"drain": 0.1}, counters={"slots": 10},
                gauges={"queued_bytes": 0},
            ),
        }
        assert set(samples) == set(EVENT_SCHEMA)
        emitted = [make_event(kind, **fields) for kind, fields in samples.items()]
        for event in emitted:
            assert validate_event(event) == [], event
            writer.emit(event)
        loaded, torn = read_events(path)
        assert torn == 0
        assert loaded == emitted  # lossless round-trip, order preserved

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (lambda e: e.update(kind="mystery"), "unknown kind"),
            (lambda e: e.pop("phase"), "missing field 'phase'"),
            (lambda e: e.update(wall_s="fast"), "wrong type"),
            (lambda e: e.update(wall_s=True), "wrong type"),
            (lambda e: e.update(extra=1), "unknown field 'extra'"),
            (lambda e: e.update(v=99), "expected 1"),
            (lambda e: e.update(ts="noon"), "ts is not a number"),
        ],
    )
    def test_violations_are_reported(self, mutate, expected):
        event = make_event(
            "span", engine="negotiator", phase="drain", wall_s=0.1,
            sim_ns=1000,
        )
        mutate(event)
        problems = validate_event(event)
        assert problems, "expected a validation problem"
        assert any(expected in p for p in problems), problems

    def test_schema_version_is_one(self):
        assert TELEMETRY_VERSION == 1
        assert make_event("span")["v"] == 1

    def test_torn_lines_counted_not_fatal(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = make_event("counter", engine="e", name="n", delta=1, sim_ns=0)
        path.write_text(
            json.dumps(good) + "\n" + '{"v": 1, "kind": "cou' + "\n"
        )
        events, torn = read_events(path)
        assert events == [good]
        assert torn == 1


# ---------------------------------------------------------------------------
# engine tracer
# ---------------------------------------------------------------------------


class TestEngineTracer:
    def test_window_deltas_sum_to_run_end_totals(self):
        sink = MemorySink()
        tracer = EngineTracer(sink, "negotiator", spec_hash="ab", cadence_ns=100)
        tracer.add_span("matching", 0.25)
        tracer.count("grants", 3)
        tracer.sample(100, queued_bytes=10)
        tracer.add_span("matching", 0.5)
        tracer.add_span("drain", 1.0)
        tracer.count("grants", 4)
        tracer.count("accepts", 1)
        tracer.finish(250, queued_bytes=0)

        for event in sink.events:
            assert validate_event(event) == [], event
        spans = {}
        for event in sink.of_kind("span"):
            spans[event["phase"]] = spans.get(event["phase"], 0.0) + event["wall_s"]
        counts = {}
        for event in sink.of_kind("counter"):
            counts[event["name"]] = counts.get(event["name"], 0) + event["delta"]
        (run_end,) = sink.of_kind("run-end")
        assert run_end["spans"] == pytest.approx(spans)
        assert run_end["counters"] == counts
        assert run_end["wall_s"] == pytest.approx(0.25 + 0.5 + 1.0)
        assert run_end["gauges"] == {"queued_bytes": 0}

    def test_gauge_cadence_is_sim_time(self):
        sink = MemorySink()
        tracer = EngineTracer(sink, "rotor", cadence_ns=100)
        assert not tracer.gauge_due(99)
        assert tracer.gauge_due(100)
        tracer.sample(130, queued_bytes=1)
        # The next boundary advances by whole periods past the sample point.
        assert not tracer.gauge_due(199)
        assert tracer.gauge_due(200)

    def test_zero_count_emits_nothing(self):
        sink = MemorySink()
        tracer = EngineTracer(sink, "negotiator", cadence_ns=100)
        tracer.count("grants", 0)
        tracer.finish(100)
        assert sink.of_kind("counter") == []

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            EngineTracer(MemorySink(), "negotiator", cadence_ns=0)

    def test_flush_is_one_sink_call(self):
        """A cadence flush hands its spans, counters and gauges to the
        sink in one call, in that order."""
        calls = []

        class Recorder:
            def emit(self, event):
                calls.append([event])

            def emit_many(self, events):
                calls.append(list(events))

        tracer = EngineTracer(Recorder(), "negotiator", cadence_ns=100)
        tracer.add_span("matching", 0.25)
        tracer.add_span("drain", 0.5)
        tracer.count("grants", 3)
        tracer.sample(100, queued_bytes=10, active_pairs=2)
        tracer.sample(200)  # an empty window writes nothing
        tracer.finish(300)
        (flush, (run_end,)) = calls
        assert [(e["kind"], e.get("phase") or e.get("name")) for e in flush] == [
            ("span", "matching"),
            ("span", "drain"),
            ("counter", "grants"),
            ("gauge", "queued_bytes"),
            ("gauge", "active_pairs"),
        ]
        assert run_end["kind"] == "run-end"

    def test_writer_makes_its_directory_once(self, tmp_path, monkeypatch):
        made = []
        real_mkdir = Path.mkdir

        def mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        path = tmp_path / "runs" / "events.jsonl"
        writer = TelemetryWriter(path)
        event = make_event("counter", engine="e", name="n", delta=1, sim_ns=0)
        writer.emit(event)
        writer.emit_many([event, event])
        writer.emit_many([])
        assert made == [path.parent]
        assert read_events(path) == ([event] * 3, 0)

    def test_forked_writers_append_whole_lines(self, tmp_path):
        """More forked writers than cores append cadence flushes, each
        larger than a pipe buffer, to one file: every line parses and
        validates, no event is lost or doubled, and each writer's events
        keep their order."""
        import multiprocessing
        import time

        cores = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        writers = min(cores, 62) + 2
        flushes, names = 40, 24
        path = tmp_path / "events.jsonl"

        def write(worker):
            tracer = EngineTracer(
                TelemetryWriter(path), "negotiator",
                spec_hash=f"w{worker}", cadence_ns=1,
            )
            gauges = {f"gauge_{i}": float(i) for i in range(names)}
            for flush in range(1, flushes + 1):
                for i in range(names):
                    tracer.add_span(f"phase-{i}", 0.001)
                    tracer.count(f"counter-{i}", flush)
                tracer.sample(flush, **gauges)

        context = multiprocessing.get_context("fork")
        procs = [context.Process(target=write, args=(w,)) for w in range(writers)]
        for proc in procs:
            proc.start()
        deadline = time.monotonic() + 60.0
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        hung = [proc for proc in procs if proc.is_alive()]
        for proc in hung:
            proc.kill()
            proc.join()
        assert not hung, f"{len(hung)} writers still running after 60 s"
        assert [proc.exitcode for proc in procs] == [0] * writers

        events, torn = read_events(path)
        assert torn == 0
        per_flush = 3 * names
        assert len(events) == writers * flushes * per_flush
        assert all(validate_event(event) == [] for event in events)
        by_writer: dict[str, list[int]] = {}
        for event in events:
            by_writer.setdefault(event["spec"], []).append(event["sim_ns"])
        expected = [f for f in range(1, flushes + 1) for _ in range(per_flush)]
        assert by_writer == {f"w{w}": expected for w in range(writers)}


# ---------------------------------------------------------------------------
# observation-only: identical results with telemetry off and on
# ---------------------------------------------------------------------------


class TestZeroInterference:
    @pytest.mark.parametrize("spec", TRACED_SPECS)
    def test_execute_spec_bit_identical_with_telemetry(
        self, spec, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        plain = execute_spec(spec).to_dict()
        events_path = tmp_path / "events.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, telemetry_env(events_path))
        traced = execute_spec(spec).to_dict()
        assert traced == plain
        events, torn = read_events(events_path)
        assert torn == 0
        assert events, "telemetry on but no events written"
        for event in events:
            assert validate_event(event) == [], event
        (run_end,) = [e for e in events if e["kind"] == "run-end"]
        assert run_end["engine"] == spec.system
        assert run_end["spec"] == spec.content_hash
        assert sorted(run_end["spans"]) == PHASES[spec.system]

    def test_spec_hash_ignores_telemetry_env(self, tmp_path, monkeypatch):
        spec = micro_spec()
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        off_hash = spec.content_hash
        monkeypatch.setenv(
            TELEMETRY_ENV, telemetry_env(tmp_path / "t.jsonl")
        )
        assert micro_spec().content_hash == off_hash

    def test_golden_digest_unchanged_with_telemetry(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            TELEMETRY_ENV, telemetry_env(tmp_path / "t.jsonl")
        )
        result = golden.compute_result("fig6", MICRO, runner=SweepRunner())
        check = golden.check_golden(GOLDEN_DIR, "fig6", result)
        assert check.expected is not None
        assert check.ok, (
            "golden digest changed when telemetry was enabled: "
            f"{check.digest[:12]} != {check.expected[:12]}"
        )

    def test_sweep_results_identical_with_full_fleet_telemetry(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        specs = [micro_spec(seed=seed) for seed in (1, 2)]
        plain = SweepRunner(store=ResultStore(tmp_path / "a.jsonl")).run(specs)
        traced_runner = SweepRunner(
            store=ResultStore(tmp_path / "b.jsonl"),
            telemetry=tmp_path / "events.jsonl",
            progress=True,
        )
        buffer = io.StringIO()
        monkeypatch.setattr("sys.stderr", buffer)
        traced = traced_runner.run(specs)
        assert {h: s.to_dict() for h, s in traced.items()} == {
            h: s.to_dict() for h, s in plain.items()
        }
        assert os.environ.get(TELEMETRY_ENV) is None  # restored after run
        assert "sweep 2/2 done" in buffer.getvalue()


# ---------------------------------------------------------------------------
# heartbeats
# ---------------------------------------------------------------------------


class TestHeartbeatAggregation:
    def test_latest_wins_and_forget_drops(self):
        clock = FakeClock()
        agg = HeartbeatAggregator(clock=clock)
        agg.record(heartbeat_payload("aa", 1, 0.1))
        clock.advance(1.0)
        agg.record({"spec": "aa", "attempt": 1, "wall_s": 1.1})
        agg.record({"spec": "bb", "attempt": 2, "wall_s": 0.2})
        assert agg.latest("aa")["wall_s"] == 1.1
        assert [p["spec"] for p in agg.running()] == ["aa", "bb"] or [
            p["spec"] for p in agg.running()
        ] == ["bb", "aa"]
        agg.forget("aa")
        assert agg.latest("aa") is None
        assert [p["spec"] for p in agg.running()] == ["bb"]

    def test_staleness_cutoff(self):
        clock = FakeClock()
        agg = HeartbeatAggregator(clock=clock)
        agg.record({"spec": "aa", "attempt": 1, "wall_s": 0.1})
        clock.advance(5.0)
        agg.record({"spec": "bb", "attempt": 1, "wall_s": 0.1})
        clock.advance(6.0)
        # aa is 11s old, bb is 6s old; default cutoff is 10s.
        assert [p["spec"] for p in agg.running()] == ["bb"]
        assert agg.latest("aa") is not None  # stale, not forgotten

    def test_malformed_payload_ignored(self):
        agg = HeartbeatAggregator(clock=FakeClock())
        agg.record({"attempt": 1})
        agg.record({"spec": 42})
        assert agg.running() == []

    def test_payload_shape_validates_as_heartbeat_event(self):
        payload = heartbeat_payload("abc", 2, 1.25)
        event = make_event("heartbeat", **payload)
        assert validate_event(event) == []
        assert payload["spec"] == "abc"
        assert payload["attempt"] == 2

    def test_workers_stream_heartbeats_over_result_pipes(
        self, tmp_path, monkeypatch
    ):
        """A worker slowed by a chaos hang reports liveness before its
        result, and the result still arrives as the spec's last word."""
        spec = micro_spec(seed=99)
        plan = {"faults": [
            {"match": spec.content_hash[:12], "kind": "hang", "hang_s": 0.4},
        ]}
        monkeypatch.setenv(CHAOS_ENV, json.dumps(plan))
        beats: list[dict] = []
        summaries: dict[str, dict] = {}
        pool = WorkerPool(1, heartbeat_s=0.05)
        try:
            outcomes = run_with_retries(
                [spec],
                pool=pool,
                policy=RetryPolicy(max_attempts=1),
                timeout_s=None,
                on_error="fail",
                on_ok=lambda s, summary, outcome: summaries.update(
                    {s.content_hash: summary}
                ),
                on_heartbeat=lambda s, payload: beats.append(payload),
            )
        finally:
            pool.shutdown()
        assert outcomes[spec.content_hash].ok
        assert spec.content_hash in summaries
        assert len(beats) >= 2, "expected heartbeats during the 0.4s hang"
        for payload in beats:
            assert payload["spec"] == spec.content_hash
            assert payload["attempt"] == 1
            assert payload["wall_s"] > 0
            assert validate_event(make_event("heartbeat", **payload)) == []
        walls = [p["wall_s"] for p in beats]
        assert walls == sorted(walls)


def _probe_engine(system: str):
    """One small engine of each kind with traffic still in flight."""
    core = "vectorized" if system == "vectorized" else "scalar"
    config = SimConfig(num_tors=8, ports_per_tor=2, core=core)
    flows = [Flow(i, i % 8, (i + 3) % 8, 400_000, 1_000.0 * i) for i in range(8)]
    thin = ThinClos(8, 2, 4)
    parallel = ParallelNetwork(8, 2)
    build = {
        "negotiator": lambda: NegotiaToRSimulator(config, parallel, flows),
        "vectorized": lambda: VectorizedNegotiaToRSimulator(
            config, parallel, flows
        ),
        "relay": lambda: SelectiveRelaySimulator(config, thin, flows),
        "oblivious": lambda: ObliviousSimulator(config, thin, flows),
        "rotor": lambda: RotorSimulator(config, thin, flows),
        "adaptive": lambda: AdaptiveSimulator(config, thin, flows),
    }
    return build[system]()


class TestHeartbeatProgressProbe:
    @pytest.mark.parametrize(
        "system",
        ["negotiator", "vectorized", "relay", "oblivious", "rotor", "adaptive"],
    )
    def test_every_engine_reports_int_progress_mid_run(self, system):
        sim = _probe_engine(system)
        sim.run(20_000.0)
        assert not sim.tracker.all_complete  # still mid-run
        set_active_simulator(sim)
        try:
            snapshot = progress_snapshot()
        finally:
            clear_active_simulator()
        assert isinstance(snapshot["sim_ns"], int)
        assert isinstance(snapshot["epochs"], int)
        assert snapshot["sim_ns"] == int(sim.now_ns) >= 20_000
        assert snapshot["epochs"] == sim.steps > 0
        event = make_event(
            "heartbeat", spec="aa", attempt=1, wall_s=0.1, **snapshot
        )
        assert validate_event(event) == []


# ---------------------------------------------------------------------------
# progress line
# ---------------------------------------------------------------------------


class TestProgressReporter:
    def make(self, total=4, **kwargs):
        clock = FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(
            total, stream=stream, clock=clock, **kwargs
        )
        return reporter, clock, stream

    def test_counts_and_line(self):
        reporter, clock, _ = self.make(total=6)
        reporter.spec_cached()
        clock.advance(2.0)
        reporter.spec_finished()
        clock.advance(2.0)
        reporter.spec_finished(attempts=3)
        clock.advance(2.0)
        reporter.spec_finished(status="quarantined")
        reporter.set_running(2)
        line = reporter.line()
        assert "sweep 4/6 done (1 cached)" in line
        assert "2 running" in line
        assert "1 retried, 1 quarantined" in line
        assert "0.5 spec/s" in line
        assert "eta 4s" in line

    def test_eta_math_constant_rate(self):
        reporter, clock, _ = self.make(total=10)
        for _ in range(4):
            clock.advance(1.0)
            reporter.spec_finished()
        # Constant 1 spec/s: EWMA converges to exactly 1.0.
        assert reporter.eta_s() == pytest.approx(6.0)

    def test_all_cached_resume_renders_unknown_eta(self):
        # An all-cached resume completes specs without ever executing
        # one: there is no throughput sample, so the line must say
        # "eta -", not divide by zero or show a stale estimate.
        reporter, _, _ = self.make(total=6)
        for _ in range(3):
            reporter.spec_cached()
        line = reporter.line()
        assert reporter.eta_s() is None
        assert "eta -" in line
        assert "spec/s" not in line

    def test_no_completions_yet_renders_unknown_eta(self):
        reporter, _, _ = self.make(total=6)
        assert "eta -" in reporter.line()

    def test_finished_sweep_has_no_eta_placeholder(self):
        reporter, _, _ = self.make(total=2)
        reporter.spec_cached()
        reporter.spec_cached()
        line = reporter.line()
        assert "eta" not in line

    def test_cache_hits_do_not_skew_rate(self):
        reporter, clock, _ = self.make(total=10)
        clock.advance(1.0)
        reporter.spec_finished()
        clock.advance(1.0)
        reporter.spec_finished()
        rate_before = reporter._rate
        for _ in range(5):
            reporter.spec_cached()  # instant; must not touch the EWMA
        assert reporter._rate == rate_before

    def test_non_tty_output_is_throttled_newlines(self):
        reporter, clock, stream = self.make(total=100, min_interval_s=1.0)
        for _ in range(10):
            clock.advance(0.05)
            reporter.spec_finished()
        rendered = stream.getvalue()
        assert rendered.count("\n") <= 2
        assert "\r" not in rendered

    def test_tty_redraws_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        clock = FakeClock()
        stream = Tty()
        reporter = ProgressReporter(2, stream=stream, clock=clock)
        reporter.spec_finished()
        clock.advance(1.0)
        reporter.spec_finished()
        reporter.close()
        assert stream.getvalue().count("\r\x1b[2K") == 3
        assert stream.getvalue().endswith("\n")

    def test_close_always_renders_final_state(self):
        reporter, _, stream = self.make(total=2, min_interval_s=1000.0)
        reporter.spec_finished()
        reporter.spec_finished()
        reporter.close()
        assert "sweep 2/2 done" in stream.getvalue()


# ---------------------------------------------------------------------------
# campaign manifest
# ---------------------------------------------------------------------------


class TestManifest:
    def test_manifest_matches_retry_and_quarantine_ground_truth(
        self, tmp_path, monkeypatch
    ):
        specs = [micro_spec(seed=seed) for seed in (11, 12, 13)]
        flaky, poisoned, healthy = specs
        plan = {"faults": [
            # Transient: fails once, succeeds on retry.
            {"match": flaky.content_hash[:12], "kind": "raise",
             "attempts": [1]},
            # Permanent: exhausts attempts, lands in quarantine.
            {"match": poisoned.content_hash[:12], "kind": "raise"},
        ]}
        monkeypatch.setenv(CHAOS_ENV, json.dumps(plan))
        runner = SweepRunner(
            jobs=2,
            store=ResultStore(tmp_path / "s.jsonl"),
            verbose=False,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            on_error="quarantine",
            quarantine=tmp_path / "q.jsonl",
            telemetry=tmp_path / "events.jsonl",
        )
        runner.run(specs)
        manifest = runner.build_manifest()

        assert manifest["manifest_version"] == 1
        # Both the flaky and the poisoned spec re-attempted: retried == 2.
        assert manifest["counts"] == {
            "specs": 3, "executed": 2, "cached": 0, "failed": 1,
            "retried": 2, "quarantined": 1,
        }
        assert manifest["quarantined"] == [poisoned.content_hash]
        assert manifest["specs"][flaky.content_hash]["attempts"] == 2
        assert manifest["specs"][flaky.content_hash]["attempt_statuses"] == [
            "failed", "ok",
        ]
        assert manifest["specs"][poisoned.content_hash]["status"] == "failed"
        assert manifest["specs"][poisoned.content_hash]["error"]
        assert manifest["specs"][healthy.content_hash]["attempts"] == 1
        assert manifest["jobs"] == 2
        assert manifest["environment"]["python"]

        # The campaign-end event agrees with the manifest.
        events, _ = read_events(tmp_path / "events.jsonl")
        (end,) = [e for e in events if e["kind"] == "campaign-end"]
        assert end["retried"] == 2
        assert end["quarantined"] == 1
        assert end["executed"] == 2

    def test_cached_specs_counted_as_cached(self, tmp_path):
        spec = micro_spec(seed=21)
        store = ResultStore(tmp_path / "s.jsonl")
        SweepRunner(store=store, verbose=False).run([spec])
        rerun = SweepRunner(store=store, resume=True, verbose=False)
        rerun.run([spec])
        manifest = rerun.build_manifest()
        assert manifest["counts"]["cached"] == 1
        assert manifest["counts"]["executed"] == 0
        assert manifest["specs"][spec.content_hash]["cached"] is True

    def test_default_path_sits_next_to_store(self):
        assert default_manifest_path("campaign.jsonl", "w1") == Path(
            "campaign.manifest-w1.json"
        )

    def test_build_manifest_is_json_serializable(self):
        spec = micro_spec()
        manifest = build_manifest(
            campaign="c1",
            started_at=1000.0,
            ended_at=1010.0,
            specs={spec.content_hash: spec},
            outcomes={},
            cached_hashes={spec.content_hash},
            quarantined_hashes=set(),
            jobs=1,
        )
        json.dumps(manifest)
        assert manifest["elapsed_s"] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# trace analyzer
# ---------------------------------------------------------------------------


class TestTraceAnalyzer:
    def synthetic_events(self):
        events = [
            make_event("campaign-start", campaign="c", total_specs=3, jobs=2),
            make_event(
                "span", engine="negotiator", phase="matching", wall_s=0.3,
                sim_ns=1000,
            ),
            make_event(
                "span", engine="negotiator", phase="drain", wall_s=0.1,
                sim_ns=1000,
            ),
            make_event(
                "counter", engine="negotiator", name="grants", delta=5,
                sim_ns=1000,
            ),
            make_event(
                "counter", engine="negotiator", name="grants", delta=3,
                sim_ns=2000,
            ),
        ]
        for value in (10, 20, 30, 40):
            events.append(make_event(
                "gauge", engine="negotiator", name="queued_bytes",
                value=value, sim_ns=value,
            ))
        events += [
            make_event(
                "spec-end", spec="aa", label="slow", status="ok",
                attempts=2, elapsed_s=2.0, cached=False,
            ),
            make_event(
                "spec-end", spec="bb", label="fast", status="ok",
                attempts=1, elapsed_s=0.5, cached=False,
            ),
            make_event(
                "spec-end", spec="cc", label="hit", status="cached",
                attempts=0, elapsed_s=0.0, cached=True,
            ),
            make_event("heartbeat", spec="aa", attempt=1, wall_s=0.5,
                       rss_bytes=1000),
            make_event(
                "campaign-end", campaign="c", executed=2, cached=1,
                failed=0, retried=1, quarantined=0, elapsed_s=2.5,
            ),
        ]
        for event in events:
            assert validate_event(event) == [], event
        return events

    def test_analysis_math(self):
        analysis = analyze(self.synthetic_events(), top=5)
        shares = analysis["phase_time_shares"]["negotiator"]
        assert shares["matching"]["share"] == pytest.approx(0.75)
        assert shares["drain"]["share"] == pytest.approx(0.25)
        assert list(shares) == ["matching", "drain"]  # sorted by time
        assert analysis["counters"]["negotiator"]["grants"] == 8
        slowest = analysis["slowest_specs"]
        assert [s["spec"] for s in slowest] == ["aa", "bb"]  # cached excluded
        assert analysis["retry_histogram"] == {"1": 1, "2": 1}
        depth = analysis["queue_depth"]["negotiator"]
        assert depth["samples"] == 4
        assert depth["max"] == 40
        assert depth["p50"] == 20
        assert analysis["campaign"]["retried"] == 1
        assert analysis["heartbeats"]["count"] == 1
        assert analysis["heartbeats"]["max_rss_bytes"] == 1000

    def test_top_limits_slowest_specs(self):
        analysis = analyze(self.synthetic_events(), top=1)
        assert [s["spec"] for s in analysis["slowest_specs"]] == ["aa"]

    def test_percentile_of_empty_series_is_none(self):
        """Satellite: an empty gauge series must not crash the analyzer."""
        from repro.telemetry.trace import _percentile

        assert _percentile([], 0.50) is None
        assert _percentile([], 0.99) is None
        assert _percentile([5.0], 0.50) == 5.0

    def test_format_trace_renders_missing_depth_stats_as_dash(self):
        """A truncated JSONL can leave percentile stats absent; the text
        renderer shows '-' instead of raising on the None."""
        from repro.telemetry.trace import format_trace

        analysis = analyze([], top=5)
        analysis["queue_depth"]["negotiator"] = {
            "samples": 0, "p50": None, "p90": None, "p99": None, "max": None,
        }
        text = format_trace(analysis)
        assert "queue depth (negotiator): p50=- p90=- p99=- max=- " in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTelemetryCli:
    def run_main(self, *argv, capsys=None):
        from repro.cli import main

        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    def sweep_args(self, tmp_path, *extra):
        return (
            "sweep", "--scale", "micro", "--scenario", "poisson",
            "--load", "0.2", "--seed", "5", "--duration-ms", "0.08",
            "--store", str(tmp_path / "s.jsonl"), *extra,
        )

    def test_json_stdout_stays_pure_with_verbose_logging(
        self, tmp_path, capsys
    ):
        """Satellite: runner logs go to stderr, so --json stdout is
        machine-parseable even with per-spec logging enabled."""
        code, out, err = self.run_main(
            *self.sweep_args(tmp_path, "--json", "--no-progress"),
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)  # would raise if a log line leaked
        assert payload["runs"]
        assert "ran in" in err  # the verbose per-spec log, on stderr
        assert "1 executed" in err

    def test_sweep_telemetry_progress_trace_round_trip(
        self, tmp_path, capsys
    ):
        events_path = tmp_path / "events.jsonl"
        code, out, err = self.run_main(
            *self.sweep_args(
                tmp_path, "--telemetry", str(events_path), "--progress",
                "--worker-id", "w1",
            ),
            capsys=capsys,
        )
        assert code == 0
        assert "sweep 1/1 done" in err
        assert "manifest" in out or "manifest" in err
        manifest = json.loads(
            default_manifest_path(tmp_path / "s.jsonl", "w1").read_text()
        )
        assert manifest["counts"]["executed"] == 1

        code, out, _ = self.run_main(
            "trace", str(events_path), "--validate", capsys=capsys
        )
        assert code == 0
        assert "schema valid" in out

        code, out, _ = self.run_main(
            "trace", str(events_path), "--json", capsys=capsys
        )
        assert code == 0
        analysis = json.loads(out)
        assert analysis["phase_time_shares"]["negotiator"]
        assert analysis["retry_histogram"] == {"1": 1}
        assert analysis["torn_lines"] == 0

        code, out, _ = self.run_main(
            "trace", str(events_path), capsys=capsys
        )
        assert code == 0
        assert "phase time (negotiator)" in out

    @pytest.mark.parametrize("store_name", ["s.jsonl", "s.db"])
    def test_progress_and_campaign_events_span_every_lease_round(
        self, tmp_path, capsys, store_name
    ):
        """A sweep runs its grid in several lease rounds, yet reads as one
        invocation: one campaign-start/-end pair over the whole grid, one
        progress line that ends on it, and a rerun that serves it all."""
        events_path = tmp_path / "events.jsonl"
        argv = (
            "sweep", "--scale", "micro", "--scenario", "poisson",
            "--load", "0.2", "--load", "0.4", "--seed", "5", "--seed", "6",
            "--duration-ms", "0.03", "--store", str(tmp_path / store_name),
            "--lease-batch", "1", "--worker-id", "w1", "--progress",
            "--telemetry", str(events_path), "--json",
        )
        code, out, err = self.run_main(*argv, capsys=capsys)
        assert code == 0, err
        assert json.loads(out)["totals"]["rounds"] == 4
        progress = [line for line in err.splitlines() if "sweep " in line]
        assert progress[-1].lstrip("\r").startswith("sweep 4/4 done")
        events, torn = read_events(events_path)
        assert torn == 0
        (start,) = [e for e in events if e["kind"] == "campaign-start"]
        (end,) = [e for e in events if e["kind"] == "campaign-end"]
        assert (start["total_specs"], start["worker"]) == (4, "w1")
        assert (end["executed"], end["cached"]) == (4, 0)

        code, out, err = self.run_main(*argv, capsys=capsys)
        assert code == 0, err
        assert json.loads(out)["totals"]["rounds"] == 0
        assert "sweep 4/4 done (4 cached)" in err
        events, _ = read_events(events_path)
        ends = [e for e in events if e["kind"] == "campaign-end"]
        assert (ends[-1]["executed"], ends[-1]["cached"]) == (0, 4)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_trace_profiles_the_phases_of_every_system(
        self, tmp_path, capsys, system
    ):
        """``sweep --telemetry`` then ``trace`` is the per-phase wall-time
        profile of any engine: the run's phase shares cover all of it."""
        events_path = tmp_path / "events.jsonl"
        code, _, err = self.run_main(
            *self.sweep_args(
                tmp_path,
                "--system", system,
                "--topology", SYSTEMS[system].topologies[0],
                "--telemetry", str(events_path),
                "--no-progress",
            ),
            capsys=capsys,
        )
        assert code == 0, err

        code, out, _ = self.run_main(
            "trace", str(events_path), "--json", capsys=capsys
        )
        assert code == 0
        phases = json.loads(out)["phase_time_shares"]
        assert list(phases) == [system]
        shares = [stats["share"] for stats in phases[system].values()]
        assert shares and min(shares) >= 0.0
        # Each share is rounded to four places.
        assert sum(shares) == pytest.approx(1.0, abs=1e-4 * len(shares))

        code, out, _ = self.run_main(
            "trace", str(events_path), capsys=capsys
        )
        assert code == 0
        assert f"phase time ({system}):" in out

    def test_trace_validate_flags_bad_events(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "kind": "mystery", "ts": 0}\n')
        code, _, err = self.run_main(
            "trace", str(path), "--validate", capsys=capsys
        )
        assert code == 1
        assert "unknown kind" in err

    def test_trace_missing_file(self, tmp_path, capsys):
        code, _, err = self.run_main(
            "trace", str(tmp_path / "nope.jsonl"), capsys=capsys
        )
        assert code == 2
        assert "no such telemetry" in err

    def test_bad_cadence_rejected(self, tmp_path, capsys):
        code, _, err = self.run_main(
            *self.sweep_args(tmp_path, "--telemetry-cadence-us", "0"),
            capsys=capsys,
        )
        assert code == 2
        assert "telemetry-cadence" in err


# ---------------------------------------------------------------------------
# per-epoch series from a tracer sampling every epoch
# ---------------------------------------------------------------------------


def epoch_traced(core: str, flows):
    """(engine, tracer, sink): a NegotiaToR engine on ``core`` whose
    tracer flushes every epoch."""
    sink = MemorySink()
    tracer = EngineTracer(sink, "negotiator", cadence_ns=1)
    engine = {
        "scalar": NegotiaToRSimulator,
        "vectorized": VectorizedNegotiaToRSimulator,
    }[core]
    config = SimConfig(
        num_tors=8, ports_per_tor=2, uplink_gbps=100.0,
        host_aggregate_gbps=100.0, core=core,
    )
    sim = engine(config, ParallelNetwork(8, 2), flows, tracer=tracer)
    return sim, tracer, sink


def windows(sink: MemorySink, kind: str, name: str) -> dict[int, float]:
    """One counter's deltas or one gauge's samples, keyed by sim_ns."""
    key = "delta" if kind == "counter" else "value"
    return {
        event["sim_ns"]: event[key]
        for event in sink.of_kind(kind)
        if event["name"] == name
    }


@pytest.mark.parametrize("core", ["scalar", "vectorized"])
class TestEpochSeries:
    def test_byte_split_sums_to_delivered_bytes(self, core):
        sim, tracer, sink = epoch_traced(core, all_to_all_workload(8, 50_000))
        assert sim.run_until_complete(max_ns=10_000_000)
        tracer.finish(int(sim.now_ns))
        (run_end,) = sink.of_kind("run-end")
        counters = run_end["counters"]
        assert counters["piggyback_bytes"] > 0
        assert counters["scheduled_bytes"] > 0
        assert (
            counters["piggyback_bytes"] + counters["scheduled_bytes"]
            == sim.tracker.delivered_bytes
            == 8 * 7 * 50_000
        )

    def test_one_sample_per_stepped_epoch(self, core):
        sim, _tracer, sink = epoch_traced(core, all_to_all_workload(8, 20_000))
        assert sim.run_until_complete(max_ns=10_000_000)
        queued = windows(sink, "gauge", "queued_bytes")
        assert len(queued) == sim.epoch - sim.fast_forwarded_epochs
        series = [queued[sim_ns] for sim_ns in sorted(queued)]
        assert series[0] > 0
        assert series[-1] == 0
        first = min(queued)
        assert windows(sink, "counter", "requests")[first] > 0
        assert windows(sink, "gauge", "active_pairs")[first] == 8 * 7
        # The three-epoch pipeline matches the backlog from epoch 2 on.
        assert min(windows(sink, "counter", "matches")) > first
