"""Core selection for the NegotiaToR engine (DESIGN.md section 15).

``SimConfig.core`` (or the ``REPRO_CORE`` environment variable) chooses
between the scalar reference engine and the vectorized core.  The
vectorized core supports the common configuration only — the parallel
network or thin-clos with the base scheduler and no per-epoch recorders
— so this factory checks eligibility and falls back to the scalar engine
outside that envelope.

The default ``"auto"`` settles the core per run in :func:`resolve_core`
from what the code can observe: envelope eligibility, ``num_tors``, and
the arrival density of a bounded prefix of the flow sequence.  It never
warns.  An explicit ``"vectorized"`` (config field or env var) that
falls outside the envelope emits one :class:`RuntimeWarning` naming the
first envelope condition that failed.  Both cores are bit-identical on a
fixed seed; the choice is a performance decision, never a semantic one.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterable

from ..topology.parallel import ParallelNetwork
from ..topology.thinclos import ThinClos
from .config import EpochTiming, SimConfig
from .flows import Flow
from .network import NegotiaToRSimulator
from .vectorized import VectorizedNegotiaToRSimulator

AUTO_MIN_TORS = 64
"""Smallest fabric on which ``"auto"`` considers the vectorized core.

Below it the vectorized core's fixed per-epoch numpy cost outweighs any
saving; see the crossover table in DESIGN.md section 15."""

AUTO_MIN_PAIRS_PER_TOR = 0.15
"""Arrival density, per ToR, at and above which ``"auto"`` picks the
vectorized core: distinct (src, dst) pairs arriving per epoch over the
flow prefix, divided by ``num_tors``.  The measured break-even lies
between about 0.06 and 0.2 on 64x8 and 128x8 fabrics (DESIGN.md
section 15)."""

AUTO_PREFIX_FLOWS = 4096
"""Flows ``"auto"`` reads (or, when streaming, peeks) to measure density."""


def vectorized_core_ineligibility(
    config: SimConfig,
    topology,
    *,
    scheduler=None,
    match_recorder=None,
    bandwidth_recorder=None,
    record_pair_bandwidth: bool = False,
) -> str | None:
    """Why the vectorized core cannot run this configuration (None: it can).

    The envelope: parallel network or thin-clos, base scheduler (no
    variant hooks), no match-ratio or bandwidth recorders, and no
    receiver buffers.
    Link failures, streaming sources, and telemetry tracers are all
    supported inside the envelope.  Returns the first failed condition
    as a human-readable phrase, which the factory's fallback warning
    quotes verbatim.
    """
    if not isinstance(topology, (ParallelNetwork, ThinClos)):
        return (
            f"topology {topology.name!r} is neither the parallel network "
            "nor thin-clos"
        )
    if scheduler is not None:
        return "a scheduler variant is attached"
    if match_recorder is not None:
        return "a match-ratio recorder is attached"
    if bandwidth_recorder is not None:
        return "a bandwidth recorder is attached"
    if record_pair_bandwidth:
        return "per-pair bandwidth recording is enabled"
    if config.receiver_buffer_bytes is not None:
        return "receiver buffers are configured"
    return None


def vectorized_core_eligible(
    config: SimConfig,
    topology,
    *,
    scheduler=None,
    match_recorder=None,
    bandwidth_recorder=None,
    record_pair_bandwidth: bool = False,
) -> bool:
    """Whether the vectorized core can run this exact configuration."""
    return (
        vectorized_core_ineligibility(
            config,
            topology,
            scheduler=scheduler,
            match_recorder=match_recorder,
            bandwidth_recorder=bandwidth_recorder,
            record_pair_bandwidth=record_pair_bandwidth,
        )
        is None
    )


def arrival_density(
    flows: Iterable[Flow], epoch_ns: float, *, stream: bool = False
) -> tuple[float, Iterable[Flow]]:
    """Distinct (src, dst) pairs arriving per epoch over a flow prefix.

    Reads the first :data:`AUTO_PREFIX_FLOWS` flows of the sequence; the
    prefix's arrival span, floored at one epoch, is the denominator, so a
    synchronous burst counts all its pairs as one epoch's arrivals.
    Returns the density and the flows to run: a materialized sequence
    comes back as a list, and a streaming iterator comes back with the
    peeked prefix chained in front of the unread rest.
    """
    if stream:
        rest = iter(flows)
        prefix = list(itertools.islice(rest, AUTO_PREFIX_FLOWS))
        flows = itertools.chain(prefix, rest)
    else:
        if not isinstance(flows, list):
            flows = list(flows)
        prefix = flows[:AUTO_PREFIX_FLOWS]
    if not prefix:
        return 0.0, flows
    pairs = len({(f.src, f.dst) for f in prefix})
    arrivals = [f.arrival_ns for f in prefix]
    epochs = max(1.0, (max(arrivals) - min(arrivals)) / epoch_ns)
    return pairs / epochs, flows


def resolve_core(
    config: SimConfig,
    topology,
    flows: Iterable[Flow],
    *,
    stream: bool = False,
    ineligible: str | None = None,
) -> tuple[str, Iterable[Flow]]:
    """Settle ``config.resolved_core`` into ``"scalar"`` or ``"vectorized"``.

    An explicit core is returned as requested.  ``"auto"`` picks the
    vectorized core only when the configuration is eligible
    (``ineligible`` is None), the fabric has at least
    :data:`AUTO_MIN_TORS` ToRs, and :func:`arrival_density` reaches
    :data:`AUTO_MIN_PAIRS_PER_TOR` pairs per epoch per ToR.  Returns the
    core and the flows to hand the engine (see :func:`arrival_density`
    for why they may be a new object).  The thresholds hold for the
    NegotiaToR engine only; the baselines do not call this (their
    measured crossover runs the other way, DESIGN.md section 15).
    """
    core = config.resolved_core
    if core != "auto":
        return core, flows
    if ineligible is not None or config.num_tors < AUTO_MIN_TORS:
        return "scalar", flows
    epoch_ns = EpochTiming.derive(
        config.epoch, config.uplink_gbps, topology.predefined_slots
    ).epoch_ns
    density, flows = arrival_density(flows, epoch_ns, stream=stream)
    if density >= AUTO_MIN_PAIRS_PER_TOR * config.num_tors:
        return "vectorized", flows
    return "scalar", flows


def make_negotiator(
    config: SimConfig,
    topology,
    flows: Iterable[Flow],
    *,
    scheduler=None,
    failure_model=None,
    failure_plan=None,
    match_recorder=None,
    bandwidth_recorder=None,
    record_pair_bandwidth: bool = False,
    stream: bool = False,
    tracer=None,
):
    """Build the NegotiaToR engine the resolved core calls for.

    Returns a :class:`VectorizedNegotiaToRSimulator` when
    :func:`resolve_core` settles on ``"vectorized"`` and the
    configuration is inside the vectorized envelope; the scalar
    :class:`NegotiaToRSimulator` otherwise.  Falling back from an
    explicit vectorized request warns (see the module docstring); the
    result's actual core is always reported by its ``core_used``
    property.
    """
    reason = vectorized_core_ineligibility(
        config,
        topology,
        scheduler=scheduler,
        match_recorder=match_recorder,
        bandwidth_recorder=bandwidth_recorder,
        record_pair_bandwidth=record_pair_bandwidth,
    )
    core, flows = resolve_core(
        config, topology, flows, stream=stream, ineligible=reason
    )
    if core == "vectorized":
        if reason is None:
            return VectorizedNegotiaToRSimulator(
                config,
                topology,
                flows,
                failure_model=failure_model,
                failure_plan=failure_plan,
                stream=stream,
                tracer=tracer,
            )
        warnings.warn(
            "vectorized core was requested but this configuration is "
            f"outside its envelope ({reason}); running the scalar "
            "reference engine instead",
            RuntimeWarning,
            stacklevel=2,
        )
    return NegotiaToRSimulator(
        config,
        topology,
        flows,
        scheduler=scheduler,
        failure_model=failure_model,
        failure_plan=failure_plan,
        match_recorder=match_recorder,
        bandwidth_recorder=bandwidth_recorder,
        record_pair_bandwidth=record_pair_bandwidth,
        stream=stream,
        tracer=tracer,
    )
