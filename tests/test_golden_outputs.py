"""Golden snapshot tests: every experiment's output is pinned by digest.

Each experiment runs at the ``micro`` scale and its
``ExperimentResult.to_dict()`` is hashed (SHA-256 over canonical JSON) and
compared against the baseline recorded under tests/golden/.  Any change
that shifts a single bit of any table — engine, workload generator,
scheduler variant, collector, rendering of to_dict — fails here.

After an *intentional* output change, re-record the baselines with::

    PYTHONPATH=src python -m repro golden --record

and commit the updated tests/golden/*.json together with the code change.

The migration guard at the bottom keeps the experiments layer on the
declared-run path: no experiment module may construct a simulator (or call
the run helpers) directly — every simulation must flow through
RunSpec/SweepRunner so it parallelizes, caches, and hits this harness.
"""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import pytest

from repro import golden
from repro.experiments import EXPERIMENT_MODULES, MICRO, load_experiment
from repro.sweep import SweepRunner

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def shared_runner():
    """One runner for the whole suite: specs shared between experiments
    (e.g. the poisson base runs of fig9 and tables 4-6) execute once."""
    return SweepRunner()


@pytest.mark.parametrize("name", sorted(EXPERIMENT_MODULES))
def test_experiment_matches_golden_digest(name, shared_runner):
    result = golden.compute_result(name, MICRO, runner=shared_runner)
    check = golden.check_golden(GOLDEN_DIR, name, result)
    assert check.expected is not None, (
        f"no baseline for {name}; record one with "
        "'PYTHONPATH=src python -m repro golden --record'"
    )
    if not check.ok:
        baseline = golden.load_golden(GOLDEN_DIR, name)
        assert result.to_dict() == baseline["result"], (
            f"{name} output changed (digest {check.digest[:12]} != "
            f"{check.expected[:12]}); if intentional, re-record with "
            "'PYTHONPATH=src python -m repro golden --record'"
        )
        pytest.fail(
            f"{name}: digest changed but payload compares equal — "
            "canonicalization drift; re-record if intentional"
        )


def test_golden_files_carry_the_recorded_scale():
    for name in sorted(EXPERIMENT_MODULES):
        baseline = golden.load_golden(GOLDEN_DIR, name)
        assert baseline is not None, f"missing golden file for {name}"
        assert baseline["scale"] == golden.GOLDEN_SCALE
        assert baseline["experiment"] == name
        assert re.fullmatch(r"[0-9a-f]{64}", baseline["digest"])


def test_no_stray_golden_files():
    recorded = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert recorded == set(EXPERIMENT_MODULES), (
        "tests/golden/ out of sync with the experiment registry"
    )


# ---------------------------------------------------------------------------
# migration guard: the experiments layer stays on the declared-run path
# ---------------------------------------------------------------------------

FORBIDDEN = (
    "NegotiaToRSimulator",
    "ObliviousSimulator",
    "SelectiveRelaySimulator",
    "run_system",
)


def _referenced_identifiers(module) -> set[str]:
    """Every Name/attribute/import identifier a module's code references
    (docstrings and comments excluded — they may cite the classes)."""
    import ast

    tree = ast.parse(inspect.getsource(module))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", sorted(EXPERIMENT_MODULES))
def test_experiment_module_declares_all_runs_as_specs(name):
    """No experiment constructs a simulator or calls a run helper directly.

    The reference implementations live in experiments/common.py and are
    reached only through repro.sweep.runner.execute_spec — that is what
    makes `repro run --all --jobs N --store PATH` able to parallelize,
    dedupe, and resume every figure and table.
    """
    referenced = _referenced_identifiers(load_experiment(name))
    offenders = sorted(referenced & set(FORBIDDEN))
    assert not offenders, (
        f"experiments/{EXPERIMENT_MODULES[name]}.py references "
        f"{offenders}; declare the run as a RunSpec and execute it "
        "through SweepRunner instead"
    )


def test_cli_has_no_direct_simulator_construction():
    """`repro simulate` routes through `run_system` too."""
    import repro.cli

    source = inspect.getsource(repro.cli)
    assert "NegotiaToRSimulator(" not in source
    assert "ObliviousSimulator(" not in source


# ---------------------------------------------------------------------------
# the `repro golden` CLI: record, verify, and fail on divergence
# ---------------------------------------------------------------------------


class TestGoldenCli:
    def _run(self, *args):
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "golden", *args],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )

    def test_record_verify_and_detect_divergence(self, tmp_path):
        golden_dir = str(tmp_path / "golden")
        recorded = self._run(
            "fig7a", "--record", "--golden-dir", golden_dir
        )
        assert recorded.returncode == 0, recorded.stderr
        assert "recorded fig7a" in recorded.stdout

        verified = self._run("fig7a", "--golden-dir", golden_dir)
        assert verified.returncode == 0, verified.stderr
        assert "ok       fig7a" in verified.stdout

        # Tamper with the baseline: verification must fail loudly.
        path = Path(golden_dir) / "fig7a.json"
        baseline = json.loads(path.read_text())
        baseline["digest"] = "0" * 64
        path.write_text(json.dumps(baseline))
        diverged = self._run("fig7a", "--golden-dir", golden_dir)
        assert diverged.returncode == 1
        assert "MISMATCH fig7a" in diverged.stdout
        assert "--record" in diverged.stderr

    def test_missing_baseline_fails(self, tmp_path):
        missing = self._run(
            "fig7a", "--golden-dir", str(tmp_path / "empty")
        )
        assert missing.returncode == 1
        assert "MISSING" in missing.stdout
