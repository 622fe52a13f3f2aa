"""Fig 15 / Appendix A.2.1 — iteration versus speedup.

The iterative variants run with *no* uplink speedup (ITER_I/III/V = 1/3/5
iterations at 1x) against the standard non-iterative matching with the 2x
speedup.  Expected shape: iteration consistently worsens FCT (each extra
iteration adds three epochs of scheduling delay) and does not buy goodput —
the 2x speedup dominates everywhere, which is the paper's argument for
"no iteration".

Each (variant, load) point is declared as a
:class:`~repro.sweep.spec.RunSpec` carrying the scheduler variant and the
``without_speedup`` flag.
"""

from __future__ import annotations

from ..sweep import RunSpec, SweepRunner, scale_spec_fields
from .common import ExperimentResult, ExperimentScale, current_scale
from .fig9_main_results import fct_goodput_table, run_grid

VARIANTS = (
    ("Speedup 2x", "base", None, True),
    ("ITER_I", "iterative", 1, False),
    ("ITER_III", "iterative", 3, False),
    ("ITER_V", "iterative", 5, False),
)


def variant_spec(
    scale: ExperimentScale,
    load: float,
    scheduler_name: str,
    iterations: int | None,
    speedup: bool,
) -> RunSpec:
    """Declare one variant's run at one load (parallel network)."""
    return RunSpec(
        **scale_spec_fields(scale),
        topology="parallel",
        scheduler=scheduler_name,
        scheduler_params=(
            {"iterations": iterations} if iterations is not None else {}
        ),
        scenario="poisson",
        scenario_params={"trace": "hadoop"},
        load=load,
        seed=scale.seed,
        without_speedup=not speedup,
    )


def run(
    scale: ExperimentScale | None = None,
    loads=None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Regenerate Fig 15."""
    scale = scale or current_scale()
    loads = loads if loads is not None else scale.loads
    grid = {
        label: {
            load: variant_spec(scale, load, name, iterations, speedup)
            for load in loads
        }
        for label, name, iterations, speedup in VARIANTS
    }
    result = fct_goodput_table(
        run_grid(grid, runner),
        loads,
        ["variant"],
        experiment="Fig 15",
        title="iterative matching (1x) vs 2x speedup on the parallel network",
    )
    result.notes.append(
        "paper: iteration worsens FCT at all loads; goodput never beats the "
        "2x speedup"
    )
    result.notes.append(f"scale={scale.name}")
    return result


if __name__ == "__main__":
    print(run().render())
