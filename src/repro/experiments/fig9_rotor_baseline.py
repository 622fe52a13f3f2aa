"""Fig 9 companion — NegotiaToR vs oblivious vs rotor, across workloads.

The paper's evaluation compares NegotiaToR against one traffic-oblivious
baseline (the Sirius-style per-packet rotor with up-front VLB spraying).
This experiment adds the *other* classic oblivious design — a
RotorNet-style long-slice round-robin rotor with RotorLB two-hop relay
(sim/rotor.py) — and runs all three systems over three traffic shapes:

* the paper's Hadoop Poisson workload,
* ``rotor-uniform`` — equal-sized bulk flows over a uniform matrix, the
  regime rotor fabrics are designed for, and
* ``rotor-skewed`` — a heavily skewed matrix, the regime that punishes
  traffic-oblivious schedules hardest.

Expected shape (adaptive-vs-oblivious trade-off; cf. D3, Avin & Schmid):

* NegotiaToR's mice FCT stays one to two orders of magnitude below both
  oblivious designs everywhere — neither rotor can deliver a mouse before
  its rotation reaches the destination.
* On the uniform bulk workload the rotor's goodput tracks the offered load
  (its schedule matches the demand matrix by construction); on the skewed
  matrix it falls behind while NegotiaToR keeps climbing.
* Disabling the VLB relay (``rotor w/o VLB``) hurts the rotor most on
  skewed traffic, where direct slices to the hot destinations are the
  bottleneck that indirection would have spread.
"""

from __future__ import annotations

from ..sim.config import KB
from ..sweep import RunSpec, SweepRunner, scale_spec_fields, system_spec_fields
from .common import ExperimentResult, ExperimentScale, current_scale
from .fig9_main_results import fct_goodput_table, run_grid

WORKLOADS = (
    ("hadoop poisson", "poisson", {"trace": "hadoop"}),
    ("rotor-uniform", "rotor-uniform", {"flow_bytes": 50 * KB}),
    (
        "rotor-skewed",
        "rotor-skewed",
        {"trace": "hadoop", "hot_fraction": 0.125, "hot_weight": 0.9},
    ),
)

SYSTEMS = (
    ("NT parallel", "parallel", {}),
    ("oblivious", "oblivious", {}),
    ("rotor", "rotor", {}),
    ("rotor w/o VLB", "rotor", {"vlb_relay": False}),
)


def load_specs(
    scale: ExperimentScale, *, loads=None
) -> dict[tuple[str, str], dict[float, RunSpec]]:
    """Declare every run: {(system label, workload label): {load: spec}}."""
    loads = loads if loads is not None else scale.loads
    grid: dict[tuple[str, str], dict[float, RunSpec]] = {}
    for workload_label, scenario, scenario_params in WORKLOADS:
        for system_label, kind, rotor_params in SYSTEMS:
            grid[(system_label, workload_label)] = {
                load: RunSpec(
                    **scale_spec_fields(scale),
                    **system_spec_fields(kind),
                    scenario=scenario,
                    scenario_params=scenario_params,
                    load=load,
                    seed=scale.seed,
                    rotor_params=rotor_params,
                )
                for load in loads
            }
    return grid


def sweep(
    scale: ExperimentScale,
    *,
    loads=None,
    runner: SweepRunner | None = None,
) -> dict[tuple[str, str], dict[float, tuple[float | None, float]]]:
    """Run the grid; returns {(system, workload): {load: (fct_ms, goodput)}}."""
    return run_grid(load_specs(scale, loads=loads), runner)


def build_result(
    scale: ExperimentScale, data, *, loads=None
) -> ExperimentResult:
    """Render the sweep as one table with FCT and goodput per system."""
    result = fct_goodput_table(
        data,
        loads if loads is not None else scale.loads,
        ["system", "workload"],
        experiment="Fig 9 (rotor baseline)",
        title="NegotiaToR vs oblivious vs rotor: 99p mice FCT (ms) and goodput",
    )
    result.notes.append(
        "rotor = RotorNet-style round-robin slices with RotorLB two-hop "
        "relay; oblivious = per-packet rotor with up-front VLB spraying"
    )
    result.notes.append(
        "expected: NegotiaToR mice FCT 1-2 orders below both rotors; the "
        "rotor matches offered load on uniform bulk traffic and falls "
        "behind on the skewed matrix"
    )
    result.notes.append(f"scale={scale.name}")
    return result


def run(
    scale: ExperimentScale | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Regenerate the three-system rotor-baseline comparison."""
    scale = scale or current_scale()
    return build_result(scale, sweep(scale, runner=runner))


if __name__ == "__main__":
    print(run().render())
