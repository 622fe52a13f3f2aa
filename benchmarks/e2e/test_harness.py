"""Self-test of the end-to-end benchmark harness (seconds, not minutes).

The real workloads take tens of seconds per run, so the run-level checks
use one tiny stand-in workload through the same code paths.
"""

from __future__ import annotations

import json
import subprocess
import warnings

import pytest

import harness_trace
import run
from harness_stats import classify, percentile, samples_beyond, tail_percentile
from harness_workloads import (
    WORKLOADS,
    Workload,
    dense_specs,
    idle_specs,
    summary_digest,
    sweep_grid,
)
from repro.sweep import RunSpec

BENCHMARK = run.load_benchmark()


def _tiny_inputs(seed: int) -> list[RunSpec]:
    return [
        RunSpec(
            scale="micro",
            topology=topology,
            scenario="incast",
            scenario_params={"degree": 3},
            seed=seed,
            duration_ns=4_000.0,
        )
        for topology in ("parallel", "thinclos")
    ]


TINY = Workload(
    "tiny",
    jobs=1,
    store_suffix=".jsonl",
    inputs=_tiny_inputs,
    execute=WORKLOADS["paper-dense"].execute,
)


def _git_status() -> str | None:
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=run.ROOT,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_benchmark_metrics_and_leaves_tree_clean(
    trace, monkeypatch, capsys
):
    before = _git_status()
    monkeypatch.setattr(run, "measure_setup", lambda *args: 0.5)
    run.single_run(TINY, seed=1, seconds=0.0, trace=trace, trace_out=None)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    section = "per_layer" if trace else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    if trace:
        metrics = result["metrics"]
        assert metrics["runner.executed"]["value"] == 2
        assert metrics["sim.construct_s.negotiator"]["value"] > 0
        assert metrics["unattributed_frac"]["value"] < 0.05
    if before is not None:
        assert _git_status() == before


def test_benchmark_names_workloads_the_harness_defines():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_self_time_subtracts_child_coverage():
    # root [0, 10] with children [1, 4] and [3, 6] (overlap counted once)
    # and a grandchild [2, 3] inside the first child.
    spans = [
        ["root", 0.0, 10.0, None, "t"],
        ["a", 1.0, 4.0, 0, "t"],
        ["b", 3.0, 6.0, 0, "t"],
        ["c", 2.0, 3.0, 1, "t"],
    ]
    assert harness_trace.self_times(spans) == [5.0, 2.0, 3.0, 1.0]
    totals, counts = harness_trace.by_name(spans + [["a", 7.0, 8.0, 0, "t"]])
    assert totals["root"] == 4.0 and totals["a"] == 3.0 and counts["a"] == 2


def test_recorder_nests_spans_and_inherits_trace_ids():
    ticks = iter(range(100))
    recorder = harness_trace.SpanRecorder(clock=lambda: float(next(ticks)))
    outer = recorder.open("runner.execute", trace="abc")
    inner = recorder.open("sim.step/negotiator")
    recorder.close(inner)
    recorder.close(outer)
    spans = recorder.take()
    assert spans[1][3] == 0 and spans[1][4] == "abc"
    assert harness_trace.self_times(spans) == [2.0, 1.0]
    assert recorder.spans == []


def test_nearest_rank_percentile_and_tail_rule():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([7.0], 99) == 7.0
    assert samples_beyond(200, 95) == 10
    assert tail_percentile(200) == 95
    assert tail_percentile(147) == 90
    assert tail_percentile(600) == 95
    assert tail_percentile(1000) == 99
    assert tail_percentile(19) == 100


def test_compare_classification():
    def stats(median, spread=0.0):
        return {"median": median, "q1": median * (1 - spread / 2),
                "q3": median * (1 + spread / 2), "n": 3}

    assert classify(stats(10), stats(10.5), 0.1, "lower") == "within"
    assert classify(stats(10), stats(12), 0.1, "lower") == "worse"
    assert classify(stats(10), stats(12), 0.1, "higher") == "better"
    assert classify(stats(10, 0.2), stats(10), 0.1, "lower") == "unresolved"


def test_inputs_are_deterministic_per_seed():
    assert sweep_grid(3) == sweep_grid(3)
    assert len(sweep_grid(3)) == 600
    assert not {s.content_hash for s in sweep_grid(3)} & {
        s.content_hash for s in sweep_grid(4)
    }
    assert dense_specs(2) == dense_specs(2) != dense_specs(5)
    assert idle_specs(2) == idle_specs(2) != idle_specs(5)
    scales, names = WORKLOADS["paper-micro"].inputs(0)
    assert [(s.name, s.seed) for s in scales] == [("micro", 99), ("micro", 100)]
    assert len(names) == 21
    assert [s.seed for s in WORKLOADS["paper-micro"].inputs(4)[0]] == [107, 108]


def test_core_used_is_excluded_from_the_digest():
    summary = {"num_flows": 3, "extra": {"core_used": "scalar", "x": 1}}
    vectorized = {"num_flows": 3, "extra": {"core_used": "vectorized", "x": 1}}
    assert summary_digest(summary) == summary_digest(vectorized)
    assert summary_digest(summary) != summary_digest(
        {"num_flows": 3, "extra": {"core_used": "scalar", "x": 2}}
    )


def test_missing_hook_target_reports_null_with_a_warning(monkeypatch):
    monkeypatch.setattr(
        harness_trace,
        "FUNCTIONS",
        harness_trace.FUNCTIONS
        + (("repro.experiments.common", "no_such_builder", "topology.build"),),
    )
    original_hash = RunSpec.__dict__["content_hash"]
    recorder = harness_trace.SpanRecorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        uninstall, missing = harness_trace.install(recorder)
    uninstall()
    assert RunSpec.__dict__["content_hash"] is original_hash
    assert missing == {"topology.build"}
    assert any("no_such_builder" in str(w.message) for w in caught)
    metrics = harness_trace.layer_metrics(
        recorder, [], [], traced_wall_s=1.0, untraced_serial_wall_s=1.0,
        requested=1, resumed=0, telemetry={}, missing=missing,
    )
    assert metrics["topology.build_s"] is None
    assert metrics["spec.hash_s"] == 0.0
