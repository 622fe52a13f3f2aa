"""Shared infrastructure for the paper-reproduction experiments.

Every module in :mod:`repro.experiments` regenerates one table or figure of
the paper.  Experiments run at a configurable *scale*:

* ``paper`` — the full 128 ToRs x 8 ports, 30 ms runs of section 4.1.  Exact
  but slow in pure Python (hours for the load sweeps).
* ``small`` — 32 ToRs x 4 ports, ~1.2 ms runs.  The default: every effect the
  paper reports is visible at this size.
* ``tiny`` — 16 ToRs x 4 ports, sub-millisecond runs: the smallest scale
  that holds the paper's claims (benchmarks/paper_claims.py).
* ``micro`` — 8 ToRs x 2 ports, 80 us runs: the golden-baseline scale the
  regression digests under tests/golden/ are recorded at.

Select with the ``REPRO_SCALE`` environment variable.  All scales keep the
paper's 2x uplink speedup by deriving the host-aggregate bandwidth from the
port count (``S * 100 / 2`` Gbps).
"""

from __future__ import annotations

import inspect
import os
import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from ..core.relay import RelayPolicy, SelectiveRelaySimulator
from ..core.variants import SCHEDULERS, make_scheduler
from ..sim.config import AdaptiveConfig, RotorConfig, SimConfig
from ..sim.metrics import BandwidthRecorder, MatchRatioRecorder, RunSummary
from ..sim.factory import make_negotiator
from ..sim.oblivious import ObliviousSimulator
from ..topology.base import FlatTopology
from ..topology.parallel import ParallelNetwork
from ..topology.thinclos import ThinClos
from ..workloads.traces import by_name

SCALE_ENV_VAR = "REPRO_SCALE"

DEFAULT_LOADS = (0.1, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ExperimentScale:
    """One evaluation scale: fabric shape plus default run lengths."""

    name: str
    num_tors: int
    ports_per_tor: int
    awgr_ports: int
    duration_ns: float
    loads: tuple[float, ...] = DEFAULT_LOADS
    incast_degrees: tuple[int, ...] = (1, 5, 10, 20, 30)
    alltoall_flow_kb: tuple[int, ...] = (1, 5, 30, 100, 500)
    max_flow_bytes: int | None = None
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.num_tors != self.ports_per_tor * self.awgr_ports:
            raise ValueError(
                "scale must satisfy num_tors == ports_per_tor * awgr_ports "
                "for the balanced thin-clos"
            )

    @property
    def host_aggregate_gbps(self) -> float:
        """Host-side bandwidth keeping the paper's 2x speedup."""
        return self.ports_per_tor * 100.0 / 2.0


MICRO = ExperimentScale(
    name="micro",
    num_tors=8,
    ports_per_tor=2,
    awgr_ports=4,
    duration_ns=80_000.0,
    loads=(0.5, 1.0),
    incast_degrees=(1, 3),
    alltoall_flow_kb=(1, 5),
    max_flow_bytes=100_000,
    seed=99,
)

TINY = ExperimentScale(
    name="tiny",
    num_tors=16,
    ports_per_tor=4,
    awgr_ports=4,
    duration_ns=800_000.0,
    incast_degrees=(1, 2, 5, 10, 15),
    max_flow_bytes=500_000,
)

SMALL = ExperimentScale(
    name="small",
    num_tors=32,
    ports_per_tor=4,
    awgr_ports=8,
    duration_ns=1_200_000.0,
    incast_degrees=(1, 5, 10, 20, 30),
    max_flow_bytes=1_000_000,
)

PAPER = ExperimentScale(
    name="paper",
    num_tors=128,
    ports_per_tor=8,
    awgr_ports=16,
    duration_ns=30_000_000.0,
    incast_degrees=(1, 10, 20, 30, 40, 50),
)

SCALES = {scale.name: scale for scale in (MICRO, TINY, SMALL, PAPER)}


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (default: small)."""
    name = os.environ.get(SCALE_ENV_VAR, "small").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown {SCALE_ENV_VAR}={name!r}; choose from {sorted(SCALES)}"
        ) from None


def sim_config(scale: ExperimentScale, **overrides) -> SimConfig:
    """A SimConfig for one scale (2x speedup, paper timing defaults)."""
    base = dict(
        num_tors=scale.num_tors,
        ports_per_tor=scale.ports_per_tor,
        uplink_gbps=100.0,
        host_aggregate_gbps=scale.host_aggregate_gbps,
        seed=scale.seed,
    )
    base.update(overrides)
    return SimConfig(**base)


TOPOLOGIES = ("parallel", "thinclos")
"""The fabric kinds :func:`make_topology` builds."""


def make_topology(scale: ExperimentScale, kind: str) -> FlatTopology:
    """Build the ``parallel`` or ``thinclos`` fabric at one scale."""
    if kind == "parallel":
        return ParallelNetwork(scale.num_tors, scale.ports_per_tor)
    if kind == "thinclos":
        return ThinClos(scale.num_tors, scale.ports_per_tor, scale.awgr_ports)
    raise ValueError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# the system registry and its one run path
# ---------------------------------------------------------------------------


def _build_negotiator(config, topology, flows, scheduler, params, **engine):
    # Only a variant or scheduler_params attaches a scheduler: the
    # default one leaves the vectorized core eligible.
    if scheduler != "base" or params:
        engine["scheduler"] = make_scheduler(
            scheduler, topology, random.Random(config.seed), **params
        )
    return make_negotiator(config, topology, flows, **engine)


def _build_relay(config, topology, flows, scheduler, params, **engine):
    return SelectiveRelaySimulator(
        config, topology, flows, relay_policy=RelayPolicy(**params), **engine
    )


def _build_oblivious(config, topology, flows, scheduler, params, **engine):
    return ObliviousSimulator(config, topology, flows, **engine)


def _build_rotor(config, topology, flows, scheduler, params, **engine):
    from ..sim.rotor import RotorSimulator

    return RotorSimulator(
        config, topology, flows, rotor=RotorConfig(**params), **engine
    )


def _build_adaptive(config, topology, flows, scheduler, params, **engine):
    from ..sim.adaptive import AdaptiveSimulator

    return AdaptiveSimulator(
        config, topology, flows, adaptive=AdaptiveConfig(**params), **engine
    )


def _keywords(resolver) -> frozenset[str]:
    """The parameters ``resolver`` takes with a default: the keys its
    ``*_params`` spec field may set (make_scheduler's keyword options, or
    a config dataclass's fields)."""
    return frozenset(
        name
        for name, parameter in inspect.signature(resolver).parameters.items()
        if parameter.default is not parameter.empty
    )


@dataclass(frozen=True)
class System:
    """One registered system: its builder and what a spec may ask of it.

    ``build(config, topology, flows, scheduler, params, **engine)`` returns
    the engine.  ``params`` is the spec's ``params_field`` as a dict whose
    keys come from ``params_keys``; ``engine`` holds ``stream``,
    ``tracer`` and only the failure plan and recorders the run asks for,
    so a builder is never handed an option its engine lacks.  The other
    fields are the capabilities :class:`~repro.sweep.spec.RunSpec` checks
    every spec against when it is built: the fabrics the system runs on,
    its scheduler variants, whether it takes failure plans and
    ``stream=True``, the ``instrument`` keys it reads, and the
    ``spec_version`` it hashes under.
    """

    build: Callable[..., object]
    topologies: tuple[str, ...] = ("thinclos",)
    params_field: str | None = None
    params_keys: frozenset[str] = frozenset()
    schedulers: tuple[str, ...] = ("base",)
    failures: bool = False
    stream: bool = True
    instrument: frozenset[str] = frozenset({"bandwidth_bin_ns"})
    spec_version: int = 2


SYSTEMS: dict[str, System] = {
    "negotiator": System(
        _build_negotiator,
        topologies=TOPOLOGIES,
        params_field="scheduler_params",
        params_keys=_keywords(make_scheduler),
        schedulers=SCHEDULERS,
        failures=True,
        instrument=frozenset(
            {"bandwidth_bin_ns", "match_ratio", "pair_bandwidth"}
        ),
    ),
    # The selective-relay variant of appendix A.2.2: its relay needs the
    # AWGR structure of thin-clos, as do the three baselines' schedules.
    "relay": System(
        _build_relay,
        params_field="scheduler_params",
        params_keys=_keywords(RelayPolicy),
        stream=False,
        instrument=frozenset(),
    ),
    "oblivious": System(_build_oblivious),
    "rotor": System(
        _build_rotor,
        params_field="rotor_params",
        params_keys=_keywords(RotorConfig),
        failures=True,
        spec_version=3,
    ),
    "adaptive": System(
        _build_adaptive,
        params_field="adaptive_params",
        params_keys=_keywords(AdaptiveConfig),
        failures=True,
        spec_version=5,
    ),
}
"""Every runnable system by name (DESIGN.md §8)."""


@dataclass
class RunArtifacts:
    """Everything an experiment may need from one simulation run."""

    summary: RunSummary
    simulator: object
    match_recorder: MatchRatioRecorder | None = None
    bandwidth: BandwidthRecorder | None = None


def run_system(
    system: str,
    scale: ExperimentScale,
    topology_kind: str,
    flows,
    *,
    config: SimConfig,
    duration_ns: float | None = None,
    scheduler: str = "base",
    params: Mapping | None = None,
    instrument: Mapping | None = None,
    failure_model=None,
    failure_plan=None,
    until_complete: bool = False,
    max_ns: float | None = None,
    stream: bool = False,
    tracer=None,
) -> RunArtifacts:
    """Build one registered system on a workload, run it, and summarize.

    The one run path behind ``execute_spec`` and ``repro simulate``.  The
    arguments are trusted: RunSpec construction checks a spec against
    ``SYSTEMS[system]``, and ``repro simulate`` asks for nothing but a
    fabric, which it takes from ``system_spec_fields``.  ``params`` holds
    the entry's ``params_field`` options, and ``instrument`` the recorder
    switches (``bandwidth_bin_ns``, ``match_ratio``, ``pair_bandwidth``).
    ``stream=True`` consumes ``flows`` as a lazy arrival-ordered iterator
    with a bounded-memory tracker (DESIGN.md §11); ``tracer`` is an
    optional :class:`~repro.telemetry.EngineTracer` (DESIGN.md §14).

    The active-simulator registration is what lets the sweep heartbeat
    thread (DESIGN.md §14) report sim-time/flow progress while the run
    loop is busy; it costs one lock acquisition per *run*, not per epoch.
    """
    from ..telemetry.heartbeat import (
        clear_active_simulator,
        set_active_simulator,
    )

    instrument = instrument or {}
    bin_ns = instrument.get("bandwidth_bin_ns")
    bandwidth = BandwidthRecorder(bin_ns) if bin_ns else None
    match_recorder = (
        MatchRatioRecorder() if instrument.get("match_ratio") else None
    )
    engine: dict = {"stream": stream, "tracer": tracer}
    if bandwidth is not None:
        engine["bandwidth_recorder"] = bandwidth
    if match_recorder is not None:
        engine["match_recorder"] = match_recorder
    if instrument.get("pair_bandwidth"):
        engine["record_pair_bandwidth"] = True
    if failure_model is not None or failure_plan is not None:
        engine.update(failure_model=failure_model, failure_plan=failure_plan)
    topology = make_topology(scale, topology_kind)
    sim = SYSTEMS[system].build(
        config, topology, flows, scheduler, dict(params or {}), **engine
    )
    duration = duration_ns if duration_ns is not None else scale.duration_ns
    set_active_simulator(sim)
    try:
        if until_complete:
            sim.run_until_complete(
                max_ns=100 * duration if max_ns is None else max_ns
            )
            summary = sim.summary(sim.now_ns)
        else:
            sim.run(duration)
            summary = sim.summary(duration)
    finally:
        clear_active_simulator()
    return RunArtifacts(summary, sim, match_recorder, bandwidth)


def sized_distribution(scale: ExperimentScale, trace: str = "hadoop"):
    """A flow-size distribution truncated to the scale's cap.

    The cap keeps the largest flow's single-port service time small
    relative to the run, matching the paper's 30 ms-to-10 MB ratio
    (DESIGN.md).  The single source of truth for both the experiments'
    direct workloads and the sweep scenarios.
    """
    distribution = by_name(trace)
    if scale.max_flow_bytes is not None:
        distribution = distribution.truncated(scale.max_flow_bytes)
    return distribution


def workload_for(
    scale: ExperimentScale,
    load: float,
    *,
    trace: str = "hadoop",
    duration_ns: float | None = None,
    seed_offset: int = 0,
    rng: random.Random | None = None,
):
    """The standard Poisson workload of section 4.1 at one load point.

    ``rng`` overrides the default ``Random(scale.seed + seed_offset)`` —
    the sweep layer passes a spec-seeded one so both paths share this
    single implementation.
    """
    from ..workloads.generators import poisson_workload

    duration = duration_ns if duration_ns is not None else scale.duration_ns
    if rng is None:
        rng = random.Random(scale.seed + seed_offset)
    return poisson_workload(
        sized_distribution(scale, trace),
        load,
        scale.num_tors,
        scale.host_aggregate_gbps,
        duration,
        rng,
    )


# ---------------------------------------------------------------------------
# result rendering
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """A rendered experiment: headers, rows, and paper-comparison notes."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def add_row(self, *values) -> None:
        """Append one table row."""
        self.rows.append(list(values))

    def to_dict(self) -> dict:
        """JSON-serializable form (series data is omitted: it may hold
        arbitrarily large arrays; the sweep store is the home for raw
        per-run data)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[_jsonable(v) for v in row] for row in self.rows],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """Human-readable fixed-width table plus notes."""
        cells = [[format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.headers[i]), *(len(row[i]) for row in cells))
            if cells
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append(
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append(
                "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _jsonable(value):
    """Coerce a table cell to a JSON-serializable scalar."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def format_cell(value) -> str:
    """One table cell as text: floats to about three significant digits."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def fct_ms(summary: RunSummary) -> float | None:
    """99th-percentile mice FCT in milliseconds (the paper's FCT axis)."""
    if summary.mice_fct_p99_ns is None:
        return None
    return summary.mice_fct_p99_ns / 1e6


def fct_us(summary: RunSummary) -> float | None:
    """99th-percentile mice FCT in microseconds."""
    if summary.mice_fct_p99_ns is None:
        return None
    return summary.mice_fct_p99_ns / 1e3
