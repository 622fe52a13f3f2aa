"""Tests for the CLI and the report helpers."""

import pytest

from repro.analysis.report import (
    build_report,
    result_to_markdown,
    run_experiments,
)
from repro.cli import build_parser, main
from repro.experiments import EXPERIMENT_MODULES, load_experiment
from repro.experiments.common import ExperimentResult, ExperimentScale
from repro.sweep import RunSpec

MICRO = ExperimentScale(
    name="micro",
    num_tors=8,
    ports_per_tor=2,
    awgr_ports=4,
    duration_ns=60_000.0,
    loads=(0.5,),
    incast_degrees=(1, 3),
    alltoall_flow_kb=(1, 5),
    max_flow_bytes=100_000,
)


class TestReport:
    def sample_result(self):
        result = ExperimentResult(
            experiment="Table X",
            title="demo",
            headers=["a", "b"],
        )
        result.add_row("x", 1.2345)
        result.notes.append("a note")
        return result

    def test_markdown_rendering(self):
        text = result_to_markdown(self.sample_result())
        assert "### Table X — demo" in text
        assert "| a | b |" in text
        assert "| x | 1.234 |" in text
        assert "*a note*" in text

    def test_build_report_includes_scale(self):
        text = build_report({"x": self.sample_result()}, MICRO)
        assert "`micro`" in text
        assert "8 ToRs x 2 ports" in text

    def test_run_experiments_subset(self):
        results = run_experiments(["efficiency"], MICRO)
        assert set(results) == {"efficiency"}
        assert results["efficiency"].rows


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "paper" in out

    def test_bench_is_not_a_command(self, capsys):
        """Timing lives in benchmarks/e2e and phase time in ``trace``;
        ``bench`` is an unknown command like any other."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--scale"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["campaign", "run", "--store", "x.db"], "invalid choice: 'run'"),
            (["sweep", "--resume"], "unrecognized arguments: --resume"),
        ],
        ids=["campaign-run", "sweep-resume"],
    )
    def test_removed_grid_front_ends_exit_2(self, argv, message, capsys):
        """``sweep`` is the one grid command and its store always
        resumes: ``campaign run`` and ``--resume`` are unknown words."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_name_rejections_share_one_message_shape(self, capsys):
        """All unknown-name paths emit the identical exit-2 diagnostic.

        Before the _reject_unknown helper, run/golden said "(try: python -m
        repro list)" while sweep said "(choose from ...)"; the shape is now
        pinned — via spec.unknown_name_message — so no path can drift apart
        again.  The system cases additionally pin the registry contents:
        every message must enumerate ``adaptive``.
        """
        import re

        cases = [
            (["run", "fig99"], "experiment", "fig99"),
            (["golden", "fig99"], "experiment", "fig99"),
            (["report", "--experiments", "fig99"], "experiment", "fig99"),
            (["sweep", "--scenario", "fig99", "--dry-run"], "scenario", "fig99"),
            (["sweep", "--system", "torus", "--dry-run"], "system", "torus"),
            (["simulate", "--system", "torus"], "system", "torus"),
        ]
        shape = re.compile(
            r"^unknown (experiment|scenario|system)\(s\): \w+ "
            r"\(choose from [\w, .-]+\)$"
        )
        for argv, kind, name in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err.strip()
            assert shape.fullmatch(err), (argv, err)
            assert err.startswith(f"unknown {kind}(s): {name} (choose from ")
            if kind == "system":
                assert "adaptive" in err, (argv, err)

    def test_spec_and_cli_unknown_system_messages_match(self, capsys):
        """The spec layer and the CLI reject unknown systems identically."""
        from repro.sweep.spec import SYSTEMS, unknown_name_message

        with pytest.raises(ValueError) as excinfo:
            RunSpec(scale="tiny", system="torus")
        assert str(excinfo.value) == unknown_name_message(
            "system", ["torus"], SYSTEMS
        )
        assert "adaptive" in str(excinfo.value)
        assert "relay" in str(excinfo.value)
        for argv in (
            ["sweep", "--system", "torus", "--dry-run"],
            ["simulate", "--system", "torus"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.strip() == str(excinfo.value)

    def test_run_fast_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["run", "efficiency"]) == 0
        out = capsys.readouterr().out
        assert "matching efficiency" in out

    def test_report_to_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        target = tmp_path / "report.md"
        assert main(
            ["report", "--experiments", "efficiency", "--output", str(target)]
        ) == 0
        assert "matching efficiency" in target.read_text()


class TestSimulateCommand:
    def test_simulate_negotiator(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--load", "0.5", "--duration-ms", "0.1", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "negotiator on parallel" in out
        assert "goodput" in out

    def test_simulate_oblivious_thinclos(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--system", "oblivious", "--topology", "thinclos",
             "--load", "0.5", "--duration-ms", "0.1"]
        )
        assert code == 0
        assert "oblivious on thinclos" in capsys.readouterr().out

    def test_simulate_rotor_thinclos(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--system", "rotor", "--topology", "thinclos",
             "--load", "0.5", "--duration-ms", "0.1"]
        )
        assert code == 0
        assert "rotor on thinclos" in capsys.readouterr().out

    def test_simulate_baseline_defaults_to_its_own_fabric(
        self, capsys, monkeypatch
    ):
        """Without --topology a baseline runs where sweep specs put it."""
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        for system in ("rotor", "relay"):
            code = main(
                ["simulate", "--system", system, "--load", "0.5",
                 "--duration-ms", "0.1"]
            )
            assert code == 0
            assert f"{system} on thinclos" in capsys.readouterr().out

    def test_simulate_from_workload_file(self, capsys, tmp_path, monkeypatch):
        from repro.sim.flows import Flow
        from repro.workloads import trace_io

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        path = tmp_path / "wl.csv"
        trace_io.save(
            [Flow(fid=0, src=0, dst=1, size_bytes=500, arrival_ns=0.0)], path
        )
        code = main(
            ["simulate", "--workload-file", str(path), "--duration-ms", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1" in out

    def test_simulate_rejects_oversized_workload_file(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.sim.flows import Flow
        from repro.workloads import trace_io

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        path = tmp_path / "wl.csv"
        trace_io.save(
            [Flow(fid=0, src=0, dst=99, size_bytes=500, arrival_ns=0.0)], path
        )
        assert main(["simulate", "--workload-file", str(path)]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--load", "0"], "load must be positive"),
            (["--load", "-1"], "load must be positive"),
            (["--load", "inf"], "load must be positive and finite"),
            (["--duration-ms", "0"], "--duration-ms must be positive"),
            (["--duration-ms", "nan"], "--duration-ms must be positive"),
            (["--trace", "nosuch"], "unknown trace 'nosuch'"),
            (["--workload-file", "missing.csv"], "No such file or directory"),
        ],
        ids=["zero-load", "negative-load", "infinite-load", "zero-duration",
             "nan-duration", "unknown-trace", "missing-workload-file"],
    )
    def test_simulate_rejects_bad_input(
        self, args, message, capsys, tmp_path, monkeypatch
    ):
        """Bad input is a one-line message and exit 2, never a traceback."""
        monkeypatch.setenv("REPRO_SCALE", "micro")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert message in captured.err

    def test_simulate_no_pq(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        code = main(
            ["simulate", "--no-pq", "--load", "0.3", "--duration-ms", "0.1"]
        )
        assert code == 0


class TestExperimentRegistry:
    def test_registry_is_complete(self):
        """Every table and figure of the evaluation has an experiment."""
        expected = {
            "table2", "table3", "table4", "table5", "table6",
            "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig17_18", "fig19",
            "fig9_rotor_baseline", "fig9_adaptive_baseline", "efficiency",
        }
        assert set(EXPERIMENT_MODULES) == expected

    def test_load_experiment_unknown(self):
        with pytest.raises(ValueError):
            load_experiment("fig42")

    def test_every_module_has_run(self):
        for name in EXPERIMENT_MODULES:
            module = load_experiment(name)
            assert callable(module.run)
