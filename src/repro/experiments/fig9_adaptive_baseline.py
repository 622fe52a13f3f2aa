"""Fig 9 companion — the four-way schedule comparison with the adaptive engine.

The rotor baseline (fig9_rotor_baseline) placed NegotiaToR between two
traffic-oblivious designs.  This experiment completes the D3 / Avin-Schmid
taxonomy with the demand-*aware* corner: the adaptive engine
(sim/adaptive.py), which tracks an EWMA traffic-matrix estimate and
periodically re-aims its circuits at the heavy entries, paying a
reconfiguration penalty per re-aimed link.  All four systems —
negotiator, oblivious, rotor, adaptive — run over three traffic shapes:

* ``uniform`` — equal-sized bulk flows over a uniform matrix
  (``rotor-uniform``), where demand-awareness buys nothing: the rotor's
  round-robin already matches the matrix, and the adaptive engine's
  matching degenerates to a (penalty-paying) rotation.
* ``skewed`` — a skewed matrix (``rotor-skewed`` with half the ToRs hot),
  where the adaptive engine overtakes the rotor: its matching parks
  circuits on the hot pairs instead of sweeping past them.  The hot set
  is deliberately wider than the rotor baseline's (0.5 vs 0.125): with
  only two hot ToRs the direct-circuit ceiling — one uplink per hot pair
  — binds first, and the rotor's VLB relay, which spreads hot traffic
  over the whole bisection, wins instead.  Demand-aware direct circuits
  pay off once the hot set is wide enough to absorb its own demand.
* ``shuffling`` — synchronous all-to-all rounds (``shuffle``), the
  collective pattern whose instantaneous matrix is dense and balanced;
  a stress test for the demand tracker's reaction to bursts that are
  over before the EWMA settles.

Expected shape:

* NegotiaToR's mice FCT stays lowest everywhere (per-epoch negotiation
  reacts in microseconds; schedule recomputation reacts in slices).
* On the skewed matrix the adaptive engine's goodput sits between the
  rotor and NegotiaToR, approaching the latter as skew concentrates.
* On uniform and shuffling traffic adaptive roughly tracks the rotor —
  the matching cannot beat round-robin on a balanced matrix, and the
  reconfiguration penalty is the price of trying.
"""

from __future__ import annotations

from ..sim.config import KB
from ..sweep import RunSpec, SweepRunner, scale_spec_fields, system_spec_fields
from .common import ExperimentResult, ExperimentScale, current_scale
from .fig9_main_results import fct_goodput_table, run_grid

WORKLOADS = (
    ("uniform", "rotor-uniform", {"flow_bytes": 50 * KB}),
    (
        "skewed",
        "rotor-skewed",
        {"trace": "hadoop", "hot_fraction": 0.5, "hot_weight": 0.9},
    ),
    ("shuffling", "shuffle", {"chunk_bytes": 10 * KB, "rounds": 2}),
)

SYSTEMS = (
    ("NT parallel", "parallel"),
    ("oblivious", "oblivious"),
    ("rotor", "rotor"),
    ("adaptive", "adaptive"),
)


def load_specs(
    scale: ExperimentScale, *, loads=None
) -> dict[tuple[str, str], dict[float, RunSpec]]:
    """Declare every run: {(system label, workload label): {load: spec}}."""
    loads = loads if loads is not None else scale.loads
    grid: dict[tuple[str, str], dict[float, RunSpec]] = {}
    for workload_label, scenario, scenario_params in WORKLOADS:
        for system_label, kind in SYSTEMS:
            grid[(system_label, workload_label)] = {
                load: RunSpec(
                    **scale_spec_fields(scale),
                    **system_spec_fields(kind),
                    scenario=scenario,
                    scenario_params=scenario_params,
                    load=load,
                    seed=scale.seed,
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
        experiment="Fig 9 (adaptive baseline)",
        title="negotiator vs oblivious vs rotor vs adaptive: "
        "99p mice FCT (ms) and goodput",
    )
    result.notes.append(
        "adaptive = EWMA demand tracking with greedy max-weight circuit "
        "matching and rotating residual round-robin coverage (DESIGN.md "
        "section 16); the shuffle workload is synchronous, so its rows "
        "repeat across load columns"
    )
    result.notes.append(
        "expected: adaptive goodput above the rotor's on the wide-hot-set "
        "skewed matrix, tracking the rotor on uniform and shuffling "
        "traffic; at narrower hot sets the rotor's VLB relay wins instead "
        "(direct-circuit ceiling, see the module docstring)"
    )
    result.notes.append(f"scale={scale.name}")
    return result


def run(
    scale: ExperimentScale | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Regenerate the four-system adaptive-baseline comparison."""
    scale = scale or current_scale()
    return build_result(scale, sweep(scale, runner=runner))


if __name__ == "__main__":
    print(run().render())
