"""The four workloads of the end-to-end benchmark and one pass over each.

Every workload is closed loop: the sweep runner hands each worker the
next spec when its previous one finishes.  A workload's inputs come from
the benchmark seed alone (:meth:`Workload.inputs`); the program only ever
sees the generated specs or scale.

A *pass* runs a workload's whole input against a fresh result store, the
way a user regenerates figures or runs a sweep; a *resume* re-runs the
same input against the now-warm store, which must execute nothing.
Output correctness is judged on per-spec summary digests read back from
the store (:func:`summary_digest`) and, for the paper workload, on each
experiment's golden result digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro import golden
from repro.experiments import SCALES, load_experiment
from repro.sim.config import KB
from repro.sweep import ResultStore, RunSpec, SweepRunner, system_spec_fields

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

SWEEP_SYSTEMS = ("parallel", "thinclos", "oblivious", "rotor", "adaptive")
"""Experiment system labels: NegotiaToR on both fabrics plus the three
baselines (see ``repro.sweep.spec.system_spec_fields``)."""

SWEEP_TRAFFIC = (
    ("poisson", 0.3, {}),
    ("poisson", 0.9, {}),
    ("hotspot", 0.6, {}),
    ("incast", 1.0, {"degree": 7}),
    ("alltoall", 1.0, {"flow_bytes": 5 * KB}),
)
SWEEP_SEEDS = 24
SWEEP_DURATION_NS = 20_000.0

DENSE_DURATION_NS = 600_000.0
IDLE_FLOWS = 20_000


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its inputs and execute them."""

    name: str
    jobs: int
    store_suffix: str
    inputs: Callable[[int], object]
    execute: Callable[[object, SweepRunner], tuple[dict, int]]
    """(inputs, runner) -> (experiment digests, experiments that raised)."""


PAPER_SCALES = 2
"""Reseeded micro scales per paper-micro pass: at micro scale one seed's
experiments vary by ~10% in flow count, and two halve that variance."""


def _paper_inputs(seed: int):
    # Seed 0 starts with the registered (golden) micro scale.
    base = SCALES["micro"]
    scales = [
        dataclasses.replace(base, seed=base.seed + PAPER_SCALES * seed + k)
        for k in range(PAPER_SCALES)
    ]
    names = golden.experiment_names()
    for name in names:
        load_experiment(name)
    return scales, names


def _paper_execute(inputs, runner: SweepRunner) -> tuple[dict, int]:
    scales, names = inputs
    digests: dict[str, str] = {}
    raised = 0
    for scale in scales:
        for name in names:
            key = f"{name}@{scale.seed}"
            try:
                # Looked up on the module at call time so the traced
                # pass's hook on ``golden.compute_result`` sees every call.
                result = golden.compute_result(name, scale, runner=runner)
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                traceback.print_exc()
                digests[key] = f"raised {type(exc).__name__}: {exc}"
                raised += 1
                continue
            digests[key] = golden.result_digest(result)
    return digests, raised


def _grid_execute(specs, runner: SweepRunner) -> tuple[dict, int]:
    runner.run(specs)
    return {}, 0


def sweep_grid(seed: int) -> list[RunSpec]:
    """The sweep-micro grid: 5 systems x 5 traffic mixes x SWEEP_SEEDS."""
    return [
        RunSpec(
            scale="micro",
            **system_spec_fields(kind),
            scenario=scenario,
            load=load,
            scenario_params=params,
            seed=1000 * seed + i,
            duration_ns=SWEEP_DURATION_NS,
        )
        for i in range(SWEEP_SEEDS)
        for kind in SWEEP_SYSTEMS
        for scenario, load, params in SWEEP_TRAFFIC
    ]


def dense_specs(seed: int) -> list[RunSpec]:
    """NegotiaToR at paper scale under heavy Hadoop load, both fabrics."""
    return [
        RunSpec(
            scale="paper",
            topology=topology,
            scenario="poisson",
            load=0.9,
            seed=seed,
            duration_ns=DENSE_DURATION_NS,
        )
        for topology in ("parallel", "thinclos")
    ]


def idle_specs(seed: int) -> list[RunSpec]:
    """NegotiaToR at paper scale on a nearly idle, streamed Hadoop trace."""
    return [
        RunSpec(
            scale="paper",
            scenario="heavy-poisson",
            scenario_params={"trace": "hadoop", "num_flows": IDLE_FLOWS},
            load=0.005,
            seed=seed,
            stream=True,
            until_complete=True,
        )
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-micro",
            jobs=2,
            store_suffix=".jsonl",
            inputs=_paper_inputs,
            execute=_paper_execute,
        ),
        Workload(
            "sweep-micro",
            jobs=2,
            store_suffix=".db",
            inputs=sweep_grid,
            execute=_grid_execute,
        ),
        Workload(
            "paper-dense",
            jobs=1,
            store_suffix=".jsonl",
            inputs=dense_specs,
            execute=_grid_execute,
        ),
        Workload(
            "paper-idle-stream",
            jobs=1,
            store_suffix=".jsonl",
            inputs=idle_specs,
            execute=_grid_execute,
        ),
    )
}


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def summary_digest(summary: dict) -> str:
    """SHA-256 of a stored summary with ``extra.core_used`` removed.

    Which core ran is observability, not output: the scalar and
    vectorized cores produce otherwise identical summaries, so a later
    change of the default core must not read as a mismatch.
    """
    extra = {k: v for k, v in summary.get("extra", {}).items() if k != "core_used"}
    payload = {**summary, "extra": extra}
    return hashlib.sha256(golden.canonical_json(payload).encode()).hexdigest()


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load_expected(name: str) -> dict | None:
    path = expected_path(name)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_expected(name: str, specs: dict, experiments: dict) -> Path:
    """Pin seed-0 digests for one workload (``run.py --record``)."""
    path = expected_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": name, "seed": 0, "specs": specs}
    if experiments:
        payload["experiments"] = experiments
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def mismatches(expected: dict, actual: dict) -> int:
    """Keys whose values differ, counting keys present on one side only."""
    return sum(
        1 for key in expected.keys() | actual.keys()
        if expected.get(key) != actual.get(key)
    )


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class StoreRows:
    """What one pass left in its store, read back through the public API."""

    digests: dict[str, str] = field(default_factory=dict)
    specs: dict[str, dict] = field(default_factory=dict)
    elapsed_s: list[float] = field(default_factory=list)
    sim_us: float = 0.0
    flows: int = 0
    fct_p99_us: list[float] = field(default_factory=list)
    goodput: list[float] = field(default_factory=list)
    store_bytes: int = 0


def store_files(path: Path) -> list[Path]:
    """The store file plus any sidecars its backend keeps next to it."""
    return sorted(path.parent.glob(path.name + "*"))


def read_rows(path: Path) -> StoreRows:
    out = StoreRows()
    latest = {row["spec_hash"]: row for row in ResultStore(path).rows()}
    for spec_hash, row in latest.items():
        summary = row["summary"]
        out.digests[spec_hash] = summary_digest(summary)
        out.specs[spec_hash] = row["spec"]
        out.elapsed_s.append(row["elapsed_s"])
        out.sim_us += summary["duration_ns"] / 1e3
        out.flows += summary["num_flows"]
        if summary["mice_fct_p99_ns"] is not None:
            out.fct_p99_us.append(summary["mice_fct_p99_ns"] / 1e3)
        out.goodput.append(summary["goodput_normalized"])
    out.store_bytes = sum(p.stat().st_size for p in store_files(path))
    return out


@dataclass
class PassResult:
    wall_s: float
    executed: int
    cached: int
    failed: int
    retries: int
    experiments: dict


def run_pass(
    workload: Workload,
    inputs,
    store_path: Path,
    *,
    jobs: int,
    telemetry: Path | None = None,
) -> PassResult:
    """Run the whole input once against the store at ``store_path``."""
    runner = SweepRunner(
        jobs=jobs,
        store=ResultStore(store_path),
        resume=True,
        on_error="skip",
        telemetry=telemetry,
    )
    started = time.perf_counter()
    experiments, raised = workload.execute(inputs, runner)
    wall = time.perf_counter() - started
    return PassResult(
        wall_s=wall,
        executed=runner.executed,
        cached=runner.cached,
        failed=len(runner.failed_hashes()) + raised,
        retries=sum(o.attempts - 1 for o in runner.outcomes.values()),
        experiments=experiments,
    )
