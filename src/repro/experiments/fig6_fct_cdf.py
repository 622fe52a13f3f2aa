"""Fig 6 — CDF of mice-flow FCT at 100% load (PB and PQ enabled).

Expected shape: the two topologies overlap for small FCTs (identical
predefined phases) and over 80% of mice flows finish within two epochs —
they bypassed the scheduling delay entirely.

The two runs are declared as :class:`~repro.sweep.spec.RunSpec`\\ s with the
``mice_cdf`` collector, so they parallelize under ``repro run --jobs`` and
cache in a sweep store like any other sweep point.
"""

from __future__ import annotations

import numpy as np

from ..sweep import RunSpec, SweepRunner, scale_spec_fields
from .common import ExperimentResult, ExperimentScale, current_scale

TOPOLOGIES = ("parallel", "thinclos")


def cdf_specs(scale: ExperimentScale) -> dict[str, RunSpec]:
    """Declare the Fig 6 runs: one per topology at 100% load."""
    return {
        kind: RunSpec(
            **scale_spec_fields(scale),
            topology=kind,
            scenario="poisson",
            scenario_params={"trace": "hadoop"},
            load=1.0,
            seed=scale.seed,
            collect=("mice_cdf",),
        )
        for kind in TOPOLOGIES
    }


def _unpack_cdf(summary) -> tuple[np.ndarray, np.ndarray, float]:
    cdf = summary.extra["mice_cdf"]
    return (
        np.array(cdf["values_us"]),
        np.array(cdf["fractions"]),
        cdf["epoch_us"],
    )


def fraction_within_epochs(values_us, fractions, epoch_us, epochs: float) -> float:
    """Fraction of mice flows finishing within ``epochs`` epochs."""
    cutoff = epochs * epoch_us
    index = np.searchsorted(values_us, cutoff, side="right")
    if index == 0:
        return 0.0
    return float(fractions[index - 1])


def run(
    scale: ExperimentScale | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Regenerate Fig 6 as quantiles plus the 2-epoch bypass fraction."""
    scale = scale or current_scale()
    runner = runner if runner is not None else SweepRunner()
    result = ExperimentResult(
        experiment="Fig 6",
        title="CDF of mice flow FCT at 100% load",
        headers=[
            "topology",
            "p50 (us)",
            "p80 (us)",
            "p99 (us)",
            "within 1 epoch",
            "within 2 epochs",
        ],
    )
    specs = cdf_specs(scale)
    summaries = runner.run(specs.values())
    for kind in TOPOLOGIES:
        values, fractions, epoch_us = _unpack_cdf(
            summaries[specs[kind].content_hash]
        )
        result.series[kind] = (values, fractions)
        result.add_row(
            kind,
            float(np.interp(0.50, fractions, values)),
            float(np.interp(0.80, fractions, values)),
            float(np.interp(0.99, fractions, values)),
            fraction_within_epochs(values, fractions, epoch_us, 1.0),
            fraction_within_epochs(values, fractions, epoch_us, 2.0),
        )
    result.notes.append(
        "paper: >80% of mice flows finish within 2 epochs on both topologies"
    )
    result.notes.append(f"scale={scale.name}")
    return result


if __name__ == "__main__":
    print(run().render())
