"""Tests for the engine perf harness (repro.perf) and the bench CLI."""

import json

import pytest

from repro.cli import main
from repro.perf import (
    FABRICS,
    SCENARIOS,
    BenchFile,
    PerfResult,
    Stopwatch,
    fabric_config,
    format_results,
    run_scenario,
)


class TestScenarios:
    def test_registry_covers_the_three_regimes(self):
        assert set(SCENARIOS) == {"alltoall", "incast", "sparse"}
        assert (64, 8) in FABRICS

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("nope", 16, 4)

    def test_alltoall_builds_one_flow_per_pair(self):
        flows = SCENARIOS["alltoall"].build_flows(8, 10, 2940.0)
        assert len(flows) == 8 * 7
        assert all(f.arrival_ns == 0.0 for f in flows)

    def test_sparse_flows_are_time_ordered_and_in_range(self):
        flows = SCENARIOS["sparse"].build_flows(16, 5000, 2940.0)
        assert flows, "sparse builder produced no flows"
        times = [f.arrival_ns for f in flows]
        assert times == sorted(times)
        assert all(f.src != f.dst for f in flows)
        assert times[-1] < 5000 * 2940.0

    def test_epochs_for_interpolates_unlisted_fabrics(self):
        scenario = SCENARIOS["alltoall"]
        assert scenario.epochs_for(64) == scenario.epochs_by_tors[64]
        assert scenario.epochs_for(60) == scenario.epochs_by_tors[64]

    def test_fabric_config_keeps_2x_speedup(self):
        config = fabric_config(16, 4)
        assert config.speedup == pytest.approx(2.0)


class TestRunScenario:
    def test_smoke_run_reports_consistent_counters(self):
        result = run_scenario("sparse", 8, 2, epochs=1500)
        assert result.epochs == 1500
        assert result.stepped_epochs + result.fast_forwarded_epochs == 1500
        assert result.fast_forwarded_epochs > 0
        assert result.delivered_bytes > 0
        assert result.epochs_per_sec > 0
        assert result.key == "sparse/t8p2"

    def test_fast_forward_flag_respected(self):
        result = run_scenario("sparse", 8, 2, epochs=800, fast_forward=False)
        assert result.fast_forwarded_epochs == 0
        assert result.stepped_epochs == 800


class TestBenchFile:
    def result(self, eps, scenario="sparse"):
        return PerfResult(
            scenario=scenario,
            num_tors=8,
            ports_per_tor=2,
            epochs=100,
            stepped_epochs=100,
            fast_forwarded_epochs=0,
            wall_s=1.0,
            epochs_per_sec=eps,
            num_flows=1,
            completed_flows=1,
            delivered_bytes=10,
        )

    def test_roundtrip_and_speedup(self, tmp_path):
        path = str(tmp_path / "bench.json")
        bench = BenchFile.load(path)  # missing file -> empty
        bench.record_baseline(self.result(100.0))
        bench.record_current(self.result(250.0))
        bench.write()

        reloaded = BenchFile.load(path)
        assert reloaded.baseline_eps("sparse/t8p2") == 100.0
        assert reloaded.entries["sparse/t8p2"]["speedup"] == 2.5
        with open(path) as handle:
            assert json.load(handle)["schema"] == 1

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="unsupported schema"):
            BenchFile.load(str(path))

    def test_format_results_shows_speedup_column(self, tmp_path):
        bench = BenchFile(path=str(tmp_path / "b.json"))
        bench.record_baseline(self.result(100.0))
        text = format_results([self.result(200.0)], bench)
        assert "2.00x" in text
        assert "sparse" in text


class TestBenchCli:
    def test_auto_core_reports_the_core_that_ran(
        self, tmp_path, capsys, monkeypatch
    ):
        """--core auto is accepted; the report names the core that ran,
        while the bench file keeps its historical keys."""
        monkeypatch.delenv("REPRO_CORE", raising=False)
        bench_file = str(tmp_path / "BENCH.json")
        code = main([
            "bench",
            "--scenario", "sparse",
            "--fabric", "8x2",
            "--core", "auto",
            "--bench-file", bench_file,
            "--update-baseline",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "core" in out and "scalar" in out
        stored = BenchFile.load(bench_file).entries["sparse/t8p2"]["baseline"]
        assert "core_used" not in stored

    def test_bench_command_runs_and_records(self, tmp_path, capsys):
        bench_file = str(tmp_path / "BENCH.json")
        code = main([
            "bench",
            "--scenario", "sparse",
            "--fabric", "8x2",
            "--bench-file", bench_file,
            "--update-baseline",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sparse" in out and "epochs/s" in out
        entries = BenchFile.load(bench_file).entries
        assert "sparse/t8p2" in entries

        # A second run with --check against its own baseline passes.
        code = main([
            "bench",
            "--scenario", "sparse",
            "--fabric", "8x2",
            "--bench-file", bench_file,
            "--check", "0.05",
        ])
        assert code == 0

    def test_bench_check_fails_on_regression(self, tmp_path, capsys):
        bench_file = str(tmp_path / "BENCH.json")
        bench = BenchFile.load(bench_file)
        bench.entries["sparse/t8p2"] = {
            "baseline": {"epochs_per_sec": 1e12}
        }
        bench.write()
        code = main([
            "bench",
            "--scenario", "sparse",
            "--fabric", "8x2",
            "--bench-file", bench_file,
            "--check", "1.0",
        ])
        assert code == 1
        assert "perf regression" in capsys.readouterr().err

    def test_bench_rejects_bad_fabric_and_scenario(self, capsys):
        assert main(["bench", "--fabric", "wat"]) == 2
        assert main(["bench", "--scenario", "nope", "--fabric", "8x2"]) == 2

    def test_check_without_any_baseline_fails(self, tmp_path, capsys):
        # A missing/empty bench file must not let the CI gate pass silently.
        code = main([
            "bench",
            "--scenario", "sparse",
            "--fabric", "8x2",
            "--bench-file", str(tmp_path / "missing.json"),
            "--check", "0.5",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "no baseline for sparse/t8p2" in err
        assert "no comparable baselines" in err

    def test_update_baseline_does_not_blind_the_check(self, tmp_path, capsys):
        # --update-baseline combined with --check must compare against the
        # baseline that existed before this run, not the one just written.
        bench_file = str(tmp_path / "BENCH.json")
        bench = BenchFile.load(bench_file)
        bench.entries["sparse/t8p2"] = {"baseline": {"epochs_per_sec": 1e12}}
        bench.write()
        code = main([
            "bench",
            "--scenario", "sparse",
            "--fabric", "8x2",
            "--bench-file", bench_file,
            "--update-baseline",
            "--check", "1.0",
        ])
        assert code == 1
        assert "perf regression" in capsys.readouterr().err
