"""Benchmark harness glue.

Each benchmark regenerates one table/figure of the paper via
:mod:`repro.experiments` and registers the rendered result.  Rendered tables
are written to ``benchmarks/results/`` and echoed into the terminal summary,
so ``pytest benchmarks/bench_*.py --benchmark-only`` leaves both a timing
report and the reproduced tables (plain ``pytest benchmarks/`` collects
only the e2e harness tests: these files do not match ``test_*.py``).

Scale is controlled by ``REPRO_SCALE`` (tiny / small / paper); the default
``small`` keeps the full suite in the minutes range.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
_RESULTS: list = []


@pytest.fixture
def record_result():
    """Register an ExperimentResult for file output and terminal echo."""

    def _record(result):
        _RESULTS.append(result)
        RESULTS_DIR.mkdir(exist_ok=True)
        stem = (
            result.experiment.lower()
            .replace(" ", "")
            .replace("/", "_")
            .replace(".", "_")
        )
        (RESULTS_DIR / f"{stem}.txt").write_text(result.render() + "\n")

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 72)
    terminalreporter.write_line("reproduced tables and figures")
    terminalreporter.write_line("=" * 72)
    for result in _RESULTS:
        terminalreporter.write_line("")
        for line in result.render().splitlines():
            terminalreporter.write_line(line)
