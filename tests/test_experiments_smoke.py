"""Smoke tests: every experiment runs end to end at micro scale.

These validate the full harness graph — workload generation, both engines,
variants, failure plans, recorders, rendering — not the paper's numbers
(the claims table in benchmarks/paper_claims.py checks those at tiny
scale).
"""

import pytest

from repro.experiments import EXPERIMENT_MODULES, MICRO, load_experiment
from repro.experiments.common import ExperimentResult

# Experiments whose default sweeps are too heavy for a micro smoke run get
# reduced arguments.
RUN_KWARGS = {
    "fig12": {"load": 1.0},
    "fig13": {"loads": (1.0,)},
    "fig15": {"loads": (0.5, 1.0)},
    "table3": {"loads": (0.5, 1.0)},
    "table4": {"loads": (0.5, 1.0)},
    "table5": {"loads": (0.5, 1.0)},
    "table6": {"loads": (0.5, 1.0)},
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_MODULES))
def test_experiment_runs_at_micro_scale(name):
    module = load_experiment(name)
    result = module.run(MICRO, **RUN_KWARGS.get(name, {}))
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{name} produced no rows"
    rendered = result.render()
    assert result.experiment in rendered
    for header in result.headers:
        assert header in rendered
    # Every row matches the header width.
    for row in result.rows:
        assert len(row) == len(result.headers)
