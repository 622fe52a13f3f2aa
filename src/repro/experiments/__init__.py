"""Per-table/figure experiment runners (see DESIGN.md's experiment index).

Each module regenerates one table or figure of the paper at a configurable
scale (``REPRO_SCALE`` in {tiny, small, paper}) and exposes::

    run(scale=None, ...) -> ExperimentResult

The claims table in benchmarks/paper_claims.py checks the paper's
directional claims against these results; every module is also directly
runnable: ``python -m repro.experiments.<name>``.
"""

import importlib

from .common import (
    MICRO,
    PAPER,
    SCALES,
    SMALL,
    SYSTEMS,
    TINY,
    ExperimentResult,
    ExperimentScale,
    current_scale,
    make_topology,
    run_system,
    sim_config,
    workload_for,
)

EXPERIMENT_MODULES = {
    "table2": "table2_ablation",
    "table3": "table3_relay",
    "table4": "table4_informative",
    "table5": "table5_stateful",
    "table6": "table6_projector",
    "fig6": "fig6_fct_cdf",
    "fig7a": "fig7_incast",
    "fig7b": "fig7_alltoall",
    "fig8": "fig8_reconfig_delay",
    "fig9": "fig9_main_results",
    "fig9_adaptive_baseline": "fig9_adaptive_baseline",
    "fig9_rotor_baseline": "fig9_rotor_baseline",
    "fig10": "fig10_fault_tolerance",
    "fig11": "fig11_no_speedup",
    "fig12": "fig12_sensitivity",
    "fig13": "fig13_workloads",
    "fig14": "fig14_match_ratio",
    "fig15": "fig15_iterative",
    "fig17_18": "fig17_18_micro",
    "fig19": "fig19_failure_micro",
    "efficiency": "efficiency_model",
}


def load_experiment(name: str):
    """Import and return one experiment module by its short name."""
    if name not in EXPERIMENT_MODULES:
        # Imported here: the sweep package imports this one.
        from ..sweep.spec import unknown_name_message

        raise ValueError(
            unknown_name_message("experiment", [name], EXPERIMENT_MODULES)
        )
    return importlib.import_module(
        f".{EXPERIMENT_MODULES[name]}", __package__
    )


__all__ = [
    "EXPERIMENT_MODULES",
    "MICRO",
    "SCALES",
    "ExperimentResult",
    "ExperimentScale",
    "PAPER",
    "SMALL",
    "SYSTEMS",
    "TINY",
    "current_scale",
    "load_experiment",
    "make_topology",
    "run_system",
    "sim_config",
    "workload_for",
]
