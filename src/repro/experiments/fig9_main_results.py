"""Fig 9 — the main result: mice FCT and goodput across loads.

NegotiaToR (both topologies, with and without priority queues) versus the
traffic-oblivious baseline under the Hadoop workload, loads 10%..100%.
Expected shape (section 4.3):

* NegotiaToR's 99p mice FCT is one to two orders of magnitude below the
  baseline at every load when PQ is on, and still far better at light loads
  without PQ.
* Goodput tracks the offered load for everyone at light loads; at heavy
  loads relayed traffic saturates the baseline while NegotiaToR keeps
  climbing (the paper's crossover).
* Thin-clos is marginally below the parallel network, not qualitatively off.
"""

from __future__ import annotations

from ..sweep import RunSpec, SweepRunner, scale_spec_fields, system_spec_fields
from .common import ExperimentResult, ExperimentScale, current_scale, fct_ms

SYSTEMS = (
    ("NT parallel", "parallel", True),
    ("NT parallel w/o PQ", "parallel", False),
    ("NT thin-clos", "thinclos", True),
    ("NT thin-clos w/o PQ", "thinclos", False),
    ("oblivious", "oblivious", True),
    ("oblivious w/o PQ", "oblivious", False),
)


def load_specs(
    scale: ExperimentScale,
    *,
    without_speedup: bool = False,
    trace: str = "hadoop",
    loads=None,
) -> dict[str, dict[float, RunSpec]]:
    """Declare every Fig 9 run: {system label: {load: spec}}.

    The oblivious baseline always runs on thin-clos (its rotor schedule
    needs the AWGR structure); NegotiaToR runs on both fabrics.
    """
    loads = loads if loads is not None else scale.loads
    grid: dict[str, dict[float, RunSpec]] = {}
    for label, kind, pq in SYSTEMS:
        grid[label] = {
            load: RunSpec(
                **scale_spec_fields(scale),
                **system_spec_fields(kind),
                scenario="poisson",
                scenario_params={"trace": trace},
                load=load,
                seed=scale.seed,
                priority_queue=pq,
                without_speedup=without_speedup,
            )
            for load in loads
        }
    return grid


def run_grid(grid: dict, runner: SweepRunner | None = None) -> dict:
    """Run a ``{key: {load: spec}}`` grid through ``runner`` (default:
    serial in-process); returns ``{key: {load: (fct_ms, goodput)}}``."""
    runner = runner if runner is not None else SweepRunner()
    summaries = runner.run(
        spec for per_load in grid.values() for spec in per_load.values()
    )
    return {
        key: {
            load: (
                fct_ms(summaries[spec.content_hash]),
                summaries[spec.content_hash].goodput_normalized,
            )
            for load, spec in per_load.items()
        }
        for key, per_load in grid.items()
    }


def sweep(
    scale: ExperimentScale,
    *,
    without_speedup: bool = False,
    trace: str = "hadoop",
    loads=None,
    runner: SweepRunner | None = None,
) -> dict[str, dict[float, tuple[float | None, float]]]:
    """Run every system at every load; returns {system: {load: (fct_ms, goodput)}}.

    ``without_speedup`` switches to the Fig 11 protocol (1x uplinks).  The
    runs are declared as specs and executed by ``runner`` (default: serial
    in-process), so ``repro run --jobs N`` parallelizes and a store-backed
    runner caches them.
    """
    grid = load_specs(
        scale, without_speedup=without_speedup, trace=trace, loads=loads
    )
    return run_grid(grid, runner)


def fct_goodput_table(
    data: dict, loads, key_headers: list[str], **fields
) -> ExperimentResult:
    """One row per key of a :func:`run_grid` result (a tuple key fills
    several columns): the FCT at every load, then the goodput."""
    result = ExperimentResult(
        headers=key_headers
        + [f"FCT@{int(load * 100)}%" for load in loads]
        + [f"gput@{int(load * 100)}%" for load in loads],
        **fields,
    )
    for key, per_load in data.items():
        fcts = [per_load[load][0] for load in loads]
        result.rows.append(
            list(key if isinstance(key, tuple) else (key,))
            + [fct if fct is not None else "n/a" for fct in fcts]
            + [per_load[load][1] for load in loads]
        )
    result.series = data
    return result


def build_result(
    scale: ExperimentScale,
    data,
    *,
    experiment: str = "Fig 9",
    title: str = "99p mice FCT (ms) and normalized goodput vs load",
    loads=None,
) -> ExperimentResult:
    """Render a sweep as one table with FCT and goodput per system."""
    result = fct_goodput_table(
        data,
        loads if loads is not None else scale.loads,
        ["system"],
        experiment=experiment,
        title=title,
    )
    result.notes.append(
        "paper: NegotiaToR FCT 1-2 orders of magnitude below oblivious; "
        "oblivious goodput saturates at heavy load"
    )
    result.notes.append(f"scale={scale.name}")
    return result


def run(
    scale: ExperimentScale | None = None,
    runner: SweepRunner | None = None,
) -> ExperimentResult:
    """Regenerate Fig 9."""
    scale = scale or current_scale()
    return build_result(scale, sweep(scale, runner=runner))


if __name__ == "__main__":
    print(run().render())
