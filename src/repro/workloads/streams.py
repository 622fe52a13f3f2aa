"""Generator-based workload streams: lazy traffic for million-flow runs.

The materialized generators in :mod:`repro.workloads.generators` build the
whole flow list up front — fine for the paper's figures, fatal for the
ROADMAP's "heavy traffic from millions of users" regime where the trace
alone would dwarf memory.  This module is the lazy counterpart (DESIGN.md
section 11):

* :func:`poisson_flow_stream` yields Poisson arrivals one at a time in
  arrival order until a duration ends;
  :func:`~repro.workloads.generators.poisson_workload` is its materialized
  form.
* :func:`heavy_poisson_stream` sizes the trace by a target **flow count**
  instead of a duration — the shape of a sustained heavy-load benchmark,
  where the question is "how fast can the engine chew through N flows", not
  "what happens in T nanoseconds".  Both are thin wrappers over one private
  arrival loop.
* :func:`merge_workload_streams` lazily merges arrival-ordered streams with
  a heap, keyed on ``(arrival_ns, fid)`` so equal-arrival flows interleave
  in deterministic fid order whatever the stream boundaries were.

Every stream yields flows with non-decreasing arrival times, which is what
the engines' ``stream=True`` mode requires.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterable, Iterator

from ..sim.flows import Flow
from .generators import network_arrival_rate_per_ns


def _arrival_key(flow: Flow) -> tuple[float, int]:
    return (flow.arrival_ns, flow.fid)


def _checked_order(stream: Iterable[Flow]) -> Iterator[Flow]:
    """Pass flows through, raising if the (arrival, fid) key ever drops."""
    last: tuple[float, int] | None = None
    for flow in stream:
        key = (flow.arrival_ns, flow.fid)
        if last is not None and key < last:
            raise ValueError(
                f"flow {flow.fid} (arrival {flow.arrival_ns} ns) is out of "
                f"order after (arrival {last[0]} ns, fid {last[1]}); merge "
                "inputs must be sorted by (arrival_ns, fid)"
            )
        last = key
        yield flow


def merge_workload_streams(*streams: Iterable[Flow]) -> Iterator[Flow]:
    """Lazily merge arrival-ordered flow streams into one ordered stream.

    A ``heapq.merge`` keyed on ``(arrival_ns, fid)``: memory is O(number of
    streams), never O(flows), and equal-arrival flows from different streams
    come out in fid order — a deterministic tiebreak that does not depend on
    how the workload was split into streams.  Each input must itself be
    sorted by that key (every generator in this package is, because fids
    increase in generation order); a violation raises mid-stream naming the
    offending flow.  Flow-id uniqueness across streams is the caller's
    contract (share one ``fids`` counter), exactly as for
    :func:`~repro.workloads.generators.merge_workloads`.
    """
    return heapq.merge(
        *(_checked_order(s) for s in streams), key=_arrival_key
    )


def _poisson_arrivals(
    size_dist,
    load: float,
    num_tors: int,
    host_aggregate_gbps: float,
    rng,
    tag: str,
    fids: Iterator[int] | None,
    *,
    duration_ns: float | None = None,
    num_flows: int | None = None,
) -> Iterator[Flow]:
    """The one Poisson arrival loop, bounded by a duration, a count, or both.

    Per flow it draws the inter-arrival gap, then the (src, dst) pair,
    then the size.  The count is checked before the gap is drawn and the
    duration right after, so a duration-bounded stream ends having drawn
    the one gap that overshoots and a count-bounded one draws nothing
    past its last flow.

    The gap and the pair are ``rng.expovariate(rate)`` and
    :func:`~repro.workloads.generators.uniform_pair` without their call
    layers: the same ``random()`` and ``getrandbits()`` calls, in the
    same order, with the same arithmetic.
    """
    if duration_ns is not None and not 0 < duration_ns < math.inf:
        raise ValueError("duration must be positive and finite")
    if num_flows is not None and num_flows <= 0:
        raise ValueError("flow count must be positive")
    if num_tors < 2:
        raise ValueError("a flow needs two distinct ToRs")
    rate = network_arrival_rate_per_ns(
        load, size_dist.mean(), num_tors, host_aggregate_gbps
    )
    if fids is None:
        fids = itertools.count()
    uniform = rng.random
    getrandbits = rng.getrandbits
    sample = size_dist.sample
    log = math.log
    # randrange(n) draws bit_length(n) bits until the value is below n.
    src_bits = num_tors.bit_length()
    peers = num_tors - 1
    dst_bits = peers.bit_length()
    t = 0.0
    emitted = 0
    while num_flows is None or emitted < num_flows:
        t += -log(1.0 - uniform()) / rate
        if duration_ns is not None and t >= duration_ns:
            return
        src = getrandbits(src_bits)
        while src >= num_tors:
            src = getrandbits(src_bits)
        dst = getrandbits(dst_bits)
        while dst >= peers:
            dst = getrandbits(dst_bits)
        if dst >= src:
            dst += 1
        yield Flow(next(fids), src, dst, sample(rng), t, tag)
        emitted += 1


def poisson_flow_stream(
    size_dist,
    load: float,
    num_tors: int,
    host_aggregate_gbps: float,
    duration_ns: float,
    rng,
    tag: str = "",
    fids: Iterator[int] | None = None,
) -> Iterator[Flow]:
    """Lazy Poisson arrivals over ``duration_ns`` at a target network load.

    :func:`~repro.workloads.generators.poisson_workload` is
    ``list(poisson_flow_stream(...))``.  A duration that is not positive
    and finite raises on the first ``next()``.
    """
    return _poisson_arrivals(
        size_dist,
        load,
        num_tors,
        host_aggregate_gbps,
        rng,
        tag,
        fids,
        duration_ns=duration_ns,
    )


def heavy_poisson_stream(
    size_dist,
    load: float,
    num_tors: int,
    host_aggregate_gbps: float,
    num_flows: int,
    rng,
    tag: str = "",
    fids: Iterator[int] | None = None,
) -> Iterator[Flow]:
    """Lazy Poisson arrivals sized by a target flow count, not a duration.

    The heavy-load benchmark workload: arrivals keep coming at the load's
    rate until exactly ``num_flows`` flows have been emitted.  The draws
    are :func:`poisson_flow_stream`'s, so a duration-bounded stream at the
    same seed is a prefix of this one.  A count that is not positive
    raises on the first ``next()``.
    """
    return _poisson_arrivals(
        size_dist,
        load,
        num_tors,
        host_aggregate_gbps,
        rng,
        tag,
        fids,
        num_flows=num_flows,
    )


def heavy_poisson_span_ns(
    size_dist,
    load: float,
    num_tors: int,
    host_aggregate_gbps: float,
    num_flows: int,
) -> float:
    """Expected arrival span of a :func:`heavy_poisson_stream` trace.

    ``num_flows / rate`` — what a caller should budget (plus drain margin)
    when running the stream to completion.
    """
    rate = network_arrival_rate_per_ns(
        load, size_dist.mean(), num_tors, host_aggregate_gbps
    )
    return num_flows / rate
