"""Reproduction report generation.

Runs any subset of the paper-reproduction experiments and renders a single
markdown report with one section per table/figure.  No plotting
dependencies: series data is summarized into tables.
"""

from __future__ import annotations

import io
import time
from collections.abc import Iterable

from .. import golden
from ..experiments import EXPERIMENT_MODULES, current_scale
from ..experiments.common import ExperimentResult, ExperimentScale, format_cell
from ..sweep import SweepRunner


def run_experiments(
    names: Iterable[str] | None = None,
    scale: ExperimentScale | None = None,
    verbose: bool = False,
) -> dict[str, ExperimentResult]:
    """Run experiments by short name (default: all of them).

    Every experiment runs through one shared runner, as ``repro run``
    does, so specs common to several figures execute once.
    """
    scale = scale or current_scale()
    chosen = list(names) if names is not None else sorted(EXPERIMENT_MODULES)
    results: dict[str, ExperimentResult] = {}
    with SweepRunner() as runner:
        for name in chosen:
            started = time.monotonic()
            results[name] = golden.compute_result(name, scale, runner=runner)
            if verbose:
                elapsed = time.monotonic() - started
                print(f"[{name}] done in {elapsed:.1f}s")
    return results


def result_to_markdown(result: ExperimentResult) -> str:
    """Render one ExperimentResult as a markdown section."""
    out = io.StringIO()
    out.write(f"### {result.experiment} — {result.title}\n\n")
    out.write("| " + " | ".join(result.headers) + " |\n")
    out.write("|" + "|".join("---" for _ in result.headers) + "|\n")
    for row in result.rows:
        cells = [format_cell(value) for value in row]
        out.write("| " + " | ".join(cells) + " |\n")
    for note in result.notes:
        out.write(f"\n*{note}*\n")
    return out.getvalue()


def build_report(
    results: dict[str, ExperimentResult],
    scale: ExperimentScale,
    title: str = "NegotiaToR reproduction report",
) -> str:
    """Assemble a full markdown report from experiment results."""
    out = io.StringIO()
    out.write(f"# {title}\n\n")
    out.write(
        f"Scale: `{scale.name}` — {scale.num_tors} ToRs x "
        f"{scale.ports_per_tor} ports, {scale.duration_ns / 1e6:g} ms "
        f"trace-driven runs, 2x uplink speedup.\n\n"
    )
    for name in sorted(results):
        out.write(result_to_markdown(results[name]))
        out.write("\n")
    return out.getvalue()
