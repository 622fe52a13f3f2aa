"""Fig 10 — bandwidth usage through link failure and recovery.

A fraction of all directed fibers fails simultaneously mid-run on the
parallel network and is repaired later.  We report the paper's two ratios:
``BW_post_failure / BW_pre_failure`` (how much bandwidth the failures cost)
and ``BW_pre_recovery / BW_post_recovery`` (how completely repair restores
it).  Expected shape: the bandwidth drop is disproportionate to the failure
ratio (one dead fiber affects every pair whose control or data rides it) and
recovery returns usage to its pre-failure level.

Each failure-ratio point is declared as a :class:`~repro.sweep.spec.RunSpec`
carrying the failure plan in ``failure_params`` and the windowed-bandwidth
measurement in the ``fault_bw_ratios`` collector.
"""

from __future__ import annotations

from ..sweep import RunSpec, SweepRunner, scale_spec_fields
from .common import ExperimentResult, ExperimentScale, current_scale, make_topology

FAILURE_RATIOS = (0.02, 0.04, 0.06, 0.08, 0.10)


def _epoch_ns(scale: ExperimentScale) -> float:
    from ..sim.config import EpochConfig, EpochTiming

    slots = make_topology(scale, "parallel").predefined_slots
    return EpochTiming.derive(EpochConfig(), 100.0, slots).epoch_ns


def fault_spec(
    scale: ExperimentScale, failure_ratio: float, seed: int = 5
) -> RunSpec:
    """Declare one Fig 10 run: saturating all-to-all through fail+repair.

    A saturating all-to-all backlog keeps every link busy, so windowed
    delivered bytes measure available bandwidth directly.  The window
    boundaries are multiples of the (declare-time-derived) epoch length.
    """
    epoch_ns = _epoch_ns(scale)
    return RunSpec(
        **scale_spec_fields(scale),
        topology="parallel",
        scenario="alltoall",
        scenario_params={"flow_bytes": 20_000_000, "at_ns": 0.0},
        load=1.0,
        seed=seed,
        duration_ns=360 * epoch_ns,
        failure_params={
            "plan": "random",
            "ratio": failure_ratio,
            "fail_at_ns": 120 * epoch_ns,
            "repair_at_ns": 240 * epoch_ns,
            "seed": seed,
            "detect_epochs": 3,
        },
        instrument={
            "bandwidth_bin_ns": epoch_ns,
            "margin_ns": 25 * epoch_ns,
        },
        collect=("fault_bw_ratios",),
    )


def run(
    scale: ExperimentScale | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Regenerate Fig 10."""
    scale = scale or current_scale()
    runner = runner if runner is not None else SweepRunner()
    result = ExperimentResult(
        experiment="Fig 10",
        title="bandwidth usage through link failure and recovery",
        headers=[
            "failure ratio",
            "BW_post_failure/BW_pre_failure",
            "BW_pre_recov/BW_post_recov",
        ],
    )
    specs = {ratio: fault_spec(scale, ratio) for ratio in FAILURE_RATIOS}
    summaries = runner.run(specs.values())
    for ratio in FAILURE_RATIOS:
        ratios = summaries[specs[ratio].content_hash].extra["fault_bw_ratios"]
        result.add_row(f"{ratio:.0%}", ratios["drop"], ratios["recovery"])
    result.notes.append(
        "paper: 1% failures -> 98.9% bandwidth, 10% -> 75.3%; recovery "
        "restores the pre-failure level (both ratios track each other)"
    )
    result.notes.append(f"scale={scale.name}")
    return result


if __name__ == "__main__":
    print(run().render())
