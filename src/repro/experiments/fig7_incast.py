"""Fig 7a — incast finish time vs incast degree.

A set of ToRs synchronously sends one 1 KB flow each to the same destination.
Expected shape: NegotiaToR's finish time is flat in the degree — every pair
gets a piggyback slot every epoch, so the incast bypasses scheduling on both
topologies identically — while the traffic-oblivious scheme grows with the
degree (cells collide at intermediates and pay extra rotor cycles).

Each (system, degree) point is declared as a :class:`~repro.sweep.spec.RunSpec`
with the ``incast_finish_ns`` collector and executed through the sweep
runner, so the whole figure parallelizes and caches.
"""

from __future__ import annotations

from ..sim.config import KB
from ..sweep import RunSpec, SweepRunner, scale_spec_fields, system_spec_fields
from .common import ExperimentResult, ExperimentScale, current_scale

INJECT_NS = 10_000.0
FLOW_BYTES = 1 * KB
SYSTEMS = ("parallel", "thinclos", "oblivious")


def incast_spec(
    scale: ExperimentScale, system: str, degree: int, seed: int = 7
) -> RunSpec:
    """Declare one incast run (the paper samples sources with seed 7)."""
    return RunSpec(
        **scale_spec_fields(scale),
        **system_spec_fields(system),
        scenario="incast",
        scenario_params={
            "degree": degree,
            "dst": 0,
            "flow_bytes": FLOW_BYTES,
            "at_ns": INJECT_NS,
        },
        load=1.0,
        seed=seed,
        until_complete=True,
        max_ns=50_000_000.0,
        collect=("incast_finish_ns",),
    )


def run(
    scale: ExperimentScale | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Regenerate Fig 7a."""
    scale = scale or current_scale()
    runner = runner if runner is not None else SweepRunner()
    result = ExperimentResult(
        experiment="Fig 7a",
        title="incast finish time (us) vs degree, 1 KB flows",
        headers=[
            "degree",
            "NegotiaToR parallel",
            "NegotiaToR thin-clos",
            "oblivious thin-clos",
        ],
    )
    degrees = [d for d in scale.incast_degrees if d < scale.num_tors]
    specs = {
        (system, degree): incast_spec(scale, system, degree)
        for degree in degrees
        for system in SYSTEMS
    }
    summaries = runner.run(specs.values())
    for degree in degrees:
        result.add_row(
            degree,
            *(
                summaries[specs[(system, degree)].content_hash].extra[
                    "incast_finish_ns"
                ]
                / 1e3
                for system in SYSTEMS
            ),
        )
    result.notes.append(
        "paper: NegotiaToR flat and identical on both topologies; "
        "oblivious grows with degree"
    )
    result.notes.append(f"scale={scale.name}")
    return result


if __name__ == "__main__":
    print(run().render())
