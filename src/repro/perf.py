"""Engine performance instrumentation and the hot-path benchmark scenarios.

The ROADMAP's north star is a simulator that runs "as fast as the hardware
allows"; this module is how we know whether it does.  It provides

* :class:`Stopwatch` — a tiny wall-clock timer for ad-hoc measurements,
* scenario builders (all-to-all, incast, sparse Poisson trace) that stress
  the three qualitatively different regimes of ``NegotiaToRSimulator``:
  every pair backlogged, one hot destination, and long idle tails,
* :func:`run_scenario` / :func:`run_suite` — build a fabric, run the
  scenario, and report wall-clock time and epochs per second, and
* :func:`load_baseline` / :func:`write_report` — the ``BENCH_engine.json``
  trajectory that lets a future PR detect a hot-path regression.

Scenario definitions are part of the performance contract: changing flow
sizes, epoch counts, or seeds invalidates every recorded baseline, so treat
them as frozen once a baseline is checked in.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, fields, replace

from .sim.config import EpochTiming, SimConfig
from .sim.factory import make_negotiator
from .sim.flows import Flow
from .topology.parallel import ParallelNetwork

KB = 1000
MB = 1000 * KB

#: The fabric sizes the hot-path suite covers: (num_tors, ports_per_tor).
FABRICS: tuple[tuple[int, int], ...] = ((16, 4), (64, 8), (128, 8))

_SCENARIO_SEED = 0x5EED


class Stopwatch:
    """Wall-clock timer; use as a context manager around the hot section."""

    def __init__(self) -> None:
        self.elapsed_s = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = time.perf_counter() - self._start


@dataclass(frozen=True)
class PerfResult:
    """One scenario run's timing and sanity counters."""

    scenario: str
    num_tors: int
    ports_per_tor: int
    epochs: int
    stepped_epochs: int
    fast_forwarded_epochs: int
    wall_s: float
    epochs_per_sec: float
    num_flows: int
    completed_flows: int
    delivered_bytes: int
    core_used: str = ""
    """Which core ran; printed, but kept out of BENCH_engine.json."""

    @property
    def key(self) -> str:
        """Stable identifier used in BENCH_engine.json."""
        return f"{self.scenario}/t{self.num_tors}p{self.ports_per_tor}"

    def to_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "core_used"
        }


@dataclass(frozen=True)
class Scenario:
    """A named workload shape plus its per-fabric epoch budget."""

    name: str
    description: str
    epochs_by_tors: dict[int, int]
    build_flows: "callable"

    def epochs_for(self, num_tors: int) -> int:
        try:
            return self.epochs_by_tors[num_tors]
        except KeyError:
            # Unlisted fabric sizes interpolate to the nearest listed one.
            nearest = min(self.epochs_by_tors, key=lambda n: abs(n - num_tors))
            return self.epochs_by_tors[nearest]


def fabric_config(
    num_tors: int, ports_per_tor: int, *, fast_forward: bool = True
) -> SimConfig:
    """A paper-timing SimConfig at the 2x speedup for one bench fabric."""
    kwargs = dict(
        num_tors=num_tors,
        ports_per_tor=ports_per_tor,
        uplink_gbps=100.0,
        host_aggregate_gbps=ports_per_tor * 100.0 / 2.0,
        seed=_SCENARIO_SEED,
    )
    if any(f.name == "idle_fast_forward" for f in fields(SimConfig)):
        kwargs["idle_fast_forward"] = fast_forward
    return SimConfig(**kwargs)


# ---------------------------------------------------------------------------
# scenario flow builders (frozen: baselines depend on them)
# ---------------------------------------------------------------------------


def _alltoall_flows(num_tors: int, epochs: int, epoch_ns: float) -> list[Flow]:
    """Every ordered pair starts one elephant at t=0: dense, zero idle."""
    flows = []
    fid = 0
    for src in range(num_tors):
        for dst in range(num_tors):
            if src == dst:
                continue
            flows.append(Flow(fid, src, dst, 2 * MB, 0.0, tag="a2a"))
            fid += 1
    return flows


def _incast_flows(num_tors: int, epochs: int, epoch_ns: float) -> list[Flow]:
    """Every other ToR sends one huge flow to ToR 0: one hot destination."""
    return [
        Flow(src - 1, src, 0, 50 * MB, 0.0, tag="incast")
        for src in range(1, num_tors)
    ]


def _sparse_flows(num_tors: int, epochs: int, epoch_ns: float) -> list[Flow]:
    """A low-rate Poisson trace: mice with long idle tails between them.

    Mean inter-arrival is 80 epochs, so the fabric is idle the vast majority
    of the time — the regime of the fig6 FCT-CDF and fig13 workload traces
    whose wall-clock cost is dominated by dead epochs.
    """
    rng = random.Random(_SCENARIO_SEED)
    duration_ns = epochs * epoch_ns
    mean_gap_ns = 80 * epoch_ns
    flows = []
    now = 0.0
    fid = 0
    while True:
        now += rng.expovariate(1.0 / mean_gap_ns)
        if now >= duration_ns:
            break
        src = rng.randrange(num_tors)
        dst = rng.randrange(num_tors - 1)
        if dst >= src:
            dst += 1
        size = 500 * KB if fid % 20 == 19 else 10 * KB
        flows.append(Flow(fid, src, dst, size, now, tag="sparse"))
        fid += 1
    return flows


SCENARIOS: dict[str, Scenario] = {
    "alltoall": Scenario(
        name="alltoall",
        description="dense all-to-all, every pair backlogged for the whole run",
        epochs_by_tors={16: 600, 64: 250, 128: 80},
        build_flows=_alltoall_flows,
    ),
    "incast": Scenario(
        name="incast",
        description="all ToRs incast one hot destination",
        epochs_by_tors={16: 4000, 64: 1500, 128: 800},
        build_flows=_incast_flows,
    ),
    "sparse": Scenario(
        name="sparse",
        description="low-rate Poisson mice trace with long idle tails",
        epochs_by_tors={16: 120_000, 64: 60_000, 128: 40_000},
        build_flows=_sparse_flows,
    ),
}


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_scenario(
    scenario_name: str,
    num_tors: int,
    ports_per_tor: int,
    *,
    epochs: int | None = None,
    fast_forward: bool = True,
    core: str | None = None,
    tracer=None,
) -> PerfResult:
    """Build and time one scenario on one fabric; returns a PerfResult.

    ``epochs`` overrides the scenario's default budget (used by the smoke
    tests); overridden runs are not comparable to recorded baselines.
    ``tracer`` (an :class:`repro.telemetry.EngineTracer`) attributes the
    wall time to engine phases for ``repro bench --profile``.
    """
    try:
        scenario = SCENARIOS[scenario_name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario_name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    config = fabric_config(num_tors, ports_per_tor, fast_forward=fast_forward)
    if core is not None:
        config = replace(config, core=core)
    topology = ParallelNetwork(num_tors, ports_per_tor)
    epoch_ns = EpochTiming.derive(
        config.epoch, config.uplink_gbps, topology.predefined_slots
    ).epoch_ns
    budget = epochs if epochs is not None else scenario.epochs_for(num_tors)
    flows = scenario.build_flows(num_tors, budget, epoch_ns)
    sim = make_negotiator(config, topology, flows, tracer=tracer)
    duration_ns = budget * epoch_ns
    with Stopwatch() as watch:
        sim.run(duration_ns)
    if tracer is not None:
        tracer.finish(int(sim.now_ns))
    simulated = sim.steps
    skipped = sim.fast_forwarded_steps
    summary = sim.summary(duration_ns)
    return PerfResult(
        scenario=scenario.name,
        num_tors=num_tors,
        ports_per_tor=ports_per_tor,
        epochs=simulated,
        stepped_epochs=simulated - skipped,
        fast_forwarded_epochs=skipped,
        wall_s=watch.elapsed_s,
        epochs_per_sec=simulated / watch.elapsed_s if watch.elapsed_s > 0 else 0.0,
        num_flows=summary.num_flows,
        completed_flows=summary.num_completed,
        delivered_bytes=sim.tracker.delivered_bytes,
        core_used=sim.core_used,
    )


def run_suite(
    scenarios: list[str] | None = None,
    fabrics: list[tuple[int, int]] | None = None,
    *,
    fast_forward: bool = True,
    core: str | None = None,
) -> list[PerfResult]:
    """Run the scenario x fabric matrix (default: the full suite)."""
    results = []
    for name in scenarios or sorted(SCENARIOS):
        for num_tors, ports in fabrics or FABRICS:
            results.append(
                run_scenario(
                    name, num_tors, ports, fast_forward=fast_forward, core=core
                )
            )
    return results


# ---------------------------------------------------------------------------
# BENCH_engine.json bookkeeping
# ---------------------------------------------------------------------------

BENCH_SCHEMA = 1


@dataclass
class BenchFile:
    """The tracked perf trajectory: per-scenario baseline + current numbers."""

    path: str
    entries: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str) -> "BenchFile":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return cls(path=path)
        if data.get("schema") != BENCH_SCHEMA:
            raise ValueError(f"{path}: unsupported schema {data.get('schema')!r}")
        return cls(path=path, entries=data.get("scenarios", {}))

    def baseline_eps(self, key: str) -> float | None:
        entry = self.entries.get(key)
        if entry and "baseline" in entry:
            return entry["baseline"]["epochs_per_sec"]
        return None

    def record_baseline(self, result: PerfResult) -> None:
        self.entries.setdefault(result.key, {})["baseline"] = result.to_dict()

    def record_current(self, result: PerfResult) -> None:
        entry = self.entries.setdefault(result.key, {})
        entry["current"] = result.to_dict()
        base = self.baseline_eps(result.key)
        if base:
            entry["speedup"] = round(result.epochs_per_sec / base, 3)

    def write(self) -> None:
        payload = {"schema": BENCH_SCHEMA, "scenarios": self.entries}
        with open(self.path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def format_results(
    results: list[PerfResult], bench: BenchFile | None = None
) -> str:
    """Fixed-width report of a suite run, with vs-baseline speedups."""
    header = (
        f"{'scenario':<10} {'fabric':<9} {'core':<10} {'epochs':>8} "
        f"{'stepped':>8} {'wall s':>8} {'epochs/s':>10} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        base = bench.baseline_eps(result.key) if bench is not None else None
        speedup = (
            f"{result.epochs_per_sec / base:6.2f}x" if base else "      -"
        )
        lines.append(
            f"{result.scenario:<10} {result.num_tors:>3}x{result.ports_per_tor:<5} "
            f"{result.core_used:<10} {result.epochs:>8} {result.stepped_epochs:>8} "
            f"{result.wall_s:>8.3f} {result.epochs_per_sec:>10.0f} {speedup:>8}"
        )
    return "\n".join(lines)
