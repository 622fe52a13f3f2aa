"""Flow arrival generators and the paper's load model (section 4.1).

The network load is defined as ``L = F / (R * N * tau)`` where ``F`` is the
mean flow size, ``R`` the per-ToR host-aggregate bandwidth, ``N`` the number
of ToRs, and ``tau`` the network-wide mean flow inter-arrival time.  Flows
arrive as a Poisson process with sources and destinations chosen uniformly at
random.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator

from ..sim.flows import Flow


def network_arrival_rate_per_ns(
    load: float, mean_flow_bytes: float, num_tors: int, host_aggregate_gbps: float
) -> float:
    """Network-wide Poisson flow arrival rate (flows per ns) for a load.

    Inverting the load model: ``1/tau = L * R * N / F`` with F in bits.
    Gbps conveniently equals bits-per-ns, so no unit juggling is needed.
    """
    if not 0 < load < math.inf:
        raise ValueError("load must be positive and finite")
    if mean_flow_bytes <= 0:
        raise ValueError("mean flow size must be positive")
    return load * host_aggregate_gbps * num_tors / (mean_flow_bytes * 8.0)


def uniform_pair(num_tors: int, rng: random.Random) -> tuple[int, int]:
    """A uniformly random ordered pair of distinct ToRs."""
    src = rng.randrange(num_tors)
    dst = rng.randrange(num_tors - 1)
    if dst >= src:
        dst += 1
    return src, dst


def poisson_workload(
    size_dist,
    load: float,
    num_tors: int,
    host_aggregate_gbps: float,
    duration_ns: float,
    rng: random.Random,
    tag: str = "",
    fids: Iterator[int] | None = None,
) -> list[Flow]:
    """Poisson arrivals over ``duration_ns`` at a target network load.

    ``size_dist`` is anything with ``sample(rng)`` and ``mean()`` —
    an :class:`~repro.workloads.distributions.EmpiricalCDF` or ``FixedSize``.
    The materialized form of
    :func:`~repro.workloads.streams.poisson_flow_stream`.
    """
    # Imported here: the streams module imports this one.
    from .streams import poisson_flow_stream

    return list(
        poisson_flow_stream(
            size_dist,
            load,
            num_tors,
            host_aggregate_gbps,
            duration_ns,
            rng,
            tag=tag,
            fids=fids,
        )
    )


def single_pair_stream(
    src: int,
    dst: int,
    total_bytes: int,
    start_ns: float = 0.0,
    chunk_bytes: int | None = None,
    fids: Iterator[int] | None = None,
    tag: str = "stream",
) -> list[Flow]:
    """A continuous byte stream between one ToR pair (Fig 19's workload).

    The stream is one large flow by default; pass ``chunk_bytes`` to split it
    into back-to-back flows arriving together.
    """
    if total_bytes <= 0:
        raise ValueError("stream must carry bytes")
    if fids is None:
        fids = itertools.count()
    if chunk_bytes is None:
        return [
            Flow(
                fid=next(fids),
                src=src,
                dst=dst,
                size_bytes=total_bytes,
                arrival_ns=start_ns,
                tag=tag,
            )
        ]
    flows = []
    remaining = total_bytes
    while remaining > 0:
        size = min(chunk_bytes, remaining)
        flows.append(
            Flow(
                fid=next(fids),
                src=src,
                dst=dst,
                size_bytes=size,
                arrival_ns=start_ns,
                tag=tag,
            )
        )
        remaining -= size
    return flows


def merge_workloads(*workloads: list[Flow]) -> list[Flow]:
    """Merge several arrival-ordered workloads into one flow list.

    A lazy heap merge keyed on ``(arrival_ns, fid)`` — no full re-sort —
    so equal-arrival flows from different workloads land in deterministic
    fid order regardless of argument order.  This ordering feeds spec
    hashes and golden digests, so it is part of the reproducibility
    contract.  Inputs must already be sorted by that key (every generator
    in this package is); unsorted input raises rather than silently
    misordering.  Flow ids must be unique across the inputs (share one
    ``fids`` counter between generators to guarantee that).
    """
    from .streams import merge_workload_streams

    merged = list(merge_workload_streams(*workloads))
    fids = {flow.fid for flow in merged}
    if len(fids) != len(merged):
        raise ValueError("flow ids collide across merged workloads")
    return merged
