"""The streaming-scale benchmark: million-flow bounded-memory runs.

Where :mod:`repro.perf` measures how fast the engine steps *epochs*, this
module measures how fast the whole streaming data path (DESIGN.md §11)
chews through *flows*: a :func:`~repro.workloads.streams
.heavy_poisson_stream` trace sized by flow count is pulled lazily through
``NegotiaToRSimulator(stream=True)``, so no flow list ever materializes and
the bounded-memory tracker evicts every completion.  The result records

* throughput — wall seconds, flows/sec, epochs/sec,
* the boundedness witness — ``peak_live_flows`` (the tracker's high-water
  mark of in-flight flows) next to the total flow count, plus the process
  peak RSS for context, and
* correctness sanity — completions, delivered bytes, and streaming FCT
  stats from the reservoirs.

``repro bench --scale`` runs it and tracks the trajectory in
``BENCH_scale.json`` with the same baseline/current bookkeeping as the
hot-path suite (:class:`repro.perf.BenchFile` is shape-compatible).  The
default point — 1M flows of 1000 bytes at load 0.5 on an 8x2 fabric —
holds in-flight residency near ~700 flows, four orders of magnitude below
the trace, and finishes in seconds on a laptop.
"""

from __future__ import annotations

import random
import resource
import sys
from dataclasses import dataclass, fields, replace

from .perf import Stopwatch, fabric_config
from .sim.factory import make_negotiator
from .sweep.spec import unknown_name_message
from .topology.parallel import ParallelNetwork
from .topology.thinclos import ThinClos
from .workloads.distributions import FixedSize
from .workloads.streams import heavy_poisson_span_ns, heavy_poisson_stream

DEFAULT_FLOWS = 1_000_000
DEFAULT_TORS = 8
DEFAULT_PORTS = 2
DEFAULT_LOAD = 0.5
DEFAULT_FLOW_BYTES = 1000
_BENCH_SEED = 0x5CA1E

SCALE_BENCH_FILE = "BENCH_scale.json"

#: Engines the scale bench can drive, in the shared rejection-message order.
ENGINES = ("adaptive", "negotiator", "rotor")


@dataclass(frozen=True)
class ScaleBenchResult:
    """One streaming scale run's throughput and residency counters.

    ``epochs`` counts the engine's own steps — NegotiaToR epochs for the
    negotiator engine, circuit slices for the rotor and adaptive engines.
    """

    num_flows: int
    num_tors: int
    ports_per_tor: int
    load: float
    flow_bytes: int
    completed: bool
    wall_s: float
    flows_per_sec: float
    epochs: int
    epochs_per_sec: float
    completed_flows: int
    delivered_bytes: int
    peak_live_flows: int
    final_live_flows: int
    max_rss_kb: int
    mice_fct_p99_ns: float | None
    mice_fct_mean_ns: float | None
    engine: str = "negotiator"
    core_used: str = ""
    """Which core ran; printed, but kept out of BENCH_scale.json."""

    @property
    def key(self) -> str:
        """Stable identifier used in BENCH_scale.json.

        Every knob that changes the workload participates, so baselines
        recorded at different loads or flow sizes never collide.  The
        negotiator engine keeps the historical unprefixed key so existing
        baselines stay comparable; other engines prefix their name.
        """
        prefix = (
            "heavy-poisson"
            if self.engine == "negotiator"
            else f"{self.engine}-heavy-poisson"
        )
        return (
            f"{prefix}/t{self.num_tors}p{self.ports_per_tor}"
            f"/f{self.num_flows}/l{self.load:g}/b{self.flow_bytes}"
        )

    def to_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "core_used"
        }


def run_scale_bench(
    num_flows: int = DEFAULT_FLOWS,
    num_tors: int = DEFAULT_TORS,
    ports_per_tor: int = DEFAULT_PORTS,
    *,
    load: float = DEFAULT_LOAD,
    flow_bytes: int = DEFAULT_FLOW_BYTES,
    seed: int = _BENCH_SEED,
    fast_forward: bool = True,
    engine: str = "negotiator",
    core: str | None = None,
) -> ScaleBenchResult:
    """Stream ``num_flows`` Poisson flows through the engine and time it.

    The run goes to completion (generous time cap: 4x the expected arrival
    span, which a stable load never approaches), so flows/sec covers the
    whole lifecycle — lazy generation, injection, scheduling, delivery,
    and eviction into the online accumulators.  ``engine`` selects the
    bounded-memory engine under test: ``negotiator`` (the default, on the
    parallel network), ``rotor`` (the RotorNet-style baseline on
    thin-clos, its reference fabric), or ``adaptive`` (the demand-aware
    engine, also on thin-clos).
    """
    if num_flows <= 0:
        raise ValueError("num_flows must be positive")
    if engine not in ENGINES:
        raise ValueError(unknown_name_message("engine", [engine], ENGINES))
    config = fabric_config(num_tors, ports_per_tor, fast_forward=fast_forward)
    if core is not None:
        config = replace(config, core=core)
    host_aggregate_gbps = config.host_aggregate_gbps
    distribution = FixedSize(flow_bytes)
    flows = heavy_poisson_stream(
        distribution,
        load,
        num_tors,
        host_aggregate_gbps,
        num_flows,
        random.Random(seed),
    )
    span_ns = heavy_poisson_span_ns(
        distribution, load, num_tors, host_aggregate_gbps, num_flows
    )
    if engine in ("adaptive", "rotor"):
        if num_tors % ports_per_tor:
            raise ValueError(
                f"the {engine} scale bench runs on the balanced thin-clos: "
                "num_tors must be a multiple of ports_per_tor"
            )
        topology = ThinClos(
            num_tors, ports_per_tor, num_tors // ports_per_tor
        )
        if engine == "rotor":
            from .sim.rotor import RotorSimulator

            sim = RotorSimulator(config, topology, flows, stream=True)
        else:
            from .sim.adaptive import AdaptiveSimulator

            sim = AdaptiveSimulator(config, topology, flows, stream=True)
    else:
        sim = make_negotiator(
            config, ParallelNetwork(num_tors, ports_per_tor), flows, stream=True
        )
    with Stopwatch() as watch:
        completed = sim.run_until_complete(max_ns=4.0 * span_ns)
    steps = sim.epoch if engine == "negotiator" else sim.slices
    tracker = sim.tracker
    summary = sim.summary()
    wall = watch.elapsed_s
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        # ru_maxrss is bytes on macOS, kilobytes on Linux.
        max_rss //= 1024
    return ScaleBenchResult(
        num_flows=num_flows,
        num_tors=num_tors,
        ports_per_tor=ports_per_tor,
        load=load,
        flow_bytes=flow_bytes,
        completed=completed,
        wall_s=wall,
        flows_per_sec=num_flows / wall if wall > 0 else 0.0,
        epochs=steps,
        epochs_per_sec=steps / wall if wall > 0 else 0.0,
        completed_flows=tracker.num_completed,
        delivered_bytes=tracker.delivered_bytes,
        peak_live_flows=tracker.peak_live_flows,
        final_live_flows=tracker.live_flows,
        max_rss_kb=max_rss,
        mice_fct_p99_ns=summary.mice_fct_p99_ns,
        mice_fct_mean_ns=summary.mice_fct_mean_ns,
        engine=engine,
        core_used=sim.core_used,
    )


def format_result(result: ScaleBenchResult) -> str:
    """Human-readable report of one scale run."""
    residency = result.peak_live_flows / result.num_flows
    lines = [
        f"streaming scale bench: {result.key} ({result.core_used} core)",
        f"  flows      : {result.num_flows:,} x {result.flow_bytes} B "
        f"at load {result.load:g} "
        f"({'completed' if result.completed else 'TIME CAP HIT'})",
        f"  throughput : {result.flows_per_sec:,.0f} flows/s, "
        f"{result.epochs_per_sec:,.0f} epochs/s "
        f"({result.epochs:,} epochs in {result.wall_s:.2f} s)",
        f"  residency  : peak {result.peak_live_flows:,} flows in flight "
        f"({residency:.2%} of the trace), {result.final_live_flows} at end",
        f"  peak RSS   : {result.max_rss_kb / 1024:,.0f} MB",
    ]
    if result.mice_fct_p99_ns is not None:
        lines.append(
            f"  mice FCT   : p99 {result.mice_fct_p99_ns / 1e3:,.1f} us, "
            f"mean {result.mice_fct_mean_ns / 1e3:,.1f} us (streaming "
            "reservoir)"
        )
    return "\n".join(lines)
