"""Design-space variants of NegotiaToR Matching (section 3.5, appendix A.2).

The paper argues its minimalist choices — no iteration, binary requests,
stateless scheduling — by building the more complex alternatives and showing
they do not pay for themselves.  This module implements those alternatives:

* :class:`IterativeScheduler` — k-round request/grant/accept (A.2.1); each
  extra iteration adds three epochs of scheduling delay, and the accumulated
  matching is applied atomically after the last round.
* :class:`DataSizeScheduler` — goodput-oriented informative requests carrying
  the aggregated per-destination queue size; destinations grant the largest
  backlog first (A.2.3).
* :class:`HolDelayScheduler` — FCT-oriented informative requests carrying a
  weighted head-of-line waiting delay, alpha = 0.001 on the lowest band
  (A.2.3).
* :class:`StatefulScheduler` — destinations keep per-source demand matrices
  updated by new-data reports, tentative decrements on grant, and reverts on
  reject (A.2.4).
* :class:`ProjecToRScheduler` — per-port requests with waiting-delay
  priority, transplanting ProjecToR's scheduler onto the same fabric (A.2.5).

All variants plug into :class:`~repro.sim.network.NegotiaToRSimulator` via
the ``scheduler`` argument, replacing the default
:class:`~repro.core.pipeline.PipelinedScheduler`.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from ..topology.base import FlatTopology
from ..topology.parallel import ParallelNetwork
from .matching import (
    NegotiaToRMatcher, PairMatch, PortPredicate, _all_ports_usable, _by_source, count_ports,
)
from .pipeline import GrantDelivery, GrantsBySrc, PipelinedScheduler, RequestsByDst

# ---------------------------------------------------------------------------
# informative requests (A.2.3)
# ---------------------------------------------------------------------------


class ValuePriorityMatcher(NegotiaToRMatcher):
    """A matcher whose GRANT prefers the request with the largest payload.

    Ties (and absent payloads) fall back to ring order, and the rings still
    advance so the fallback stays fair.  ACCEPT keeps the plain round-robin
    rings: the paper's informative-request variants only alter how
    destinations prioritize, not how sources break ties.
    """

    def _ranked(self, requests: Mapping[int, object], eligible: set[int], ring):
        order = {src: i for i, src in enumerate(ring.ordered_candidates(eligible))}
        return sorted(
            eligible,
            key=lambda src: (-self._priority(requests[src]), order[src]),
        )

    @staticmethod
    def _priority(payload: object) -> float:
        return float(payload) if payload is not None else 0.0

    def _grant_parallel(self, dst, requests, rx_usable, tx_usable):
        rx_usable = rx_usable or _all_ports_usable
        tx_usable = tx_usable or _all_ports_usable
        ring = self._grant_rings[dst]
        ports = [p for p in range(self._ports) if rx_usable(dst, p)]
        candidates = {src for src in requests if src != dst}
        if not ports or not candidates:
            return []
        assigned = []
        for index, port in enumerate(ports):
            eligible = {s for s in candidates if tx_usable(s, port)}
            if not eligible:
                continue
            ranked = self._ranked(requests, eligible, ring)
            # Deal ports down the ranked list so one huge requester does not
            # monopolize every port when backlogs are comparable.
            src = ranked[index % len(ranked)]
            ring.advance_past(src)
            assigned.append((port, src))
        return _by_source(assigned)

    def _grant_thinclos(self, dst, requests, rx_usable, tx_usable):
        rx_usable = rx_usable or _all_ports_usable
        tx_usable = tx_usable or _all_ports_usable
        assigned = []
        for port in range(self._ports):
            if not rx_usable(dst, port):
                continue
            ring = self._grant_rings[dst][port]
            eligible = {
                src
                for src in requests
                if src in ring.members and tx_usable(src, port)
            }
            if not eligible:
                continue
            src = self._ranked(requests, eligible, ring)[0]
            ring.advance_past(src)
            assigned.append((port, src))
        return _by_source(assigned)


class DataSizeScheduler(PipelinedScheduler):
    """Goodput-oriented informative requests: payload = queued bytes."""

    def request_payload(self, src, dst, queue, now_ns):
        return float(queue.pending_bytes)


class HolDelayScheduler(PipelinedScheduler):
    """FCT-oriented informative requests: payload = weighted HoL delay.

    The paper weights the lowest-priority band by a small alpha (0.001 at its
    best setting) so elephant waiting times cannot mask mice waiting times:
    ``HoL = (1 - alpha) * mean(HoL of higher bands) + alpha * HoL(lowest)``.
    """

    def __init__(self, matcher: NegotiaToRMatcher, alpha: float = 0.001) -> None:
        super().__init__(matcher)
        if not 0 <= alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        self.alpha = alpha

    def request_payload(self, src, dst, queue, now_ns):
        bands = queue.num_bands
        if bands == 1:
            return queue.head_wait_ns(0, now_ns)
        upper = [queue.head_wait_ns(b, now_ns) for b in range(bands - 1)]
        lowest = queue.head_wait_ns(bands - 1, now_ns)
        return (1 - self.alpha) * sum(upper) / len(upper) + self.alpha * lowest


# ---------------------------------------------------------------------------
# stateful scheduling (A.2.4)
# ---------------------------------------------------------------------------


class StatefulScheduler(PipelinedScheduler):
    """Destination-side demand matrices prevent over-scheduling (A.2.4).

    Sources report *newly arrived* bytes in their requests; each destination
    accumulates them into a per-source matrix.  A request is only granted
    while the matrix shows pending data, and every grant tentatively reserves
    up to one scheduled phase of it.  The accept message piggybacked in the
    next epoch confirms the reservation; a rejected (or lost) grant reverts
    it.
    """

    def __init__(
        self, matcher: NegotiaToRMatcher, phase_capacity_bytes: int
    ) -> None:
        super().__init__(matcher)
        if phase_capacity_bytes <= 0:
            raise ValueError("phase capacity must be positive")
        self._capacity = phase_capacity_bytes
        self._matrix: dict[tuple[int, int], float] = {}
        self._reported: dict[tuple[int, int], int] = {}
        self._tentative: dict[tuple[int, int, int], float] = {}

    @property
    def is_idle(self) -> bool:
        """Idle additionally requires no tentative reservation in flight.

        An unresolved reservation is reverted (a matrix write) on the next
        ``advance``, so skipping epochs while one exists would not be a
        no-op.  The demand matrices themselves are persistent state and do
        not change across empty epochs.
        """
        return super().is_idle and not self._tentative

    def demand_estimate(self, dst: int, src: int) -> float:
        """The destination's current estimate of the source's backlog."""
        return self._matrix.get((dst, src), 0.0)

    def request_payload(self, src, dst, queue, now_ns):
        key = (src, dst)
        total = queue.total_enqueued_bytes
        new_bytes = total - self._reported.get(key, 0)
        self._reported[key] = total
        return float(new_bytes)

    def advance(
        self,
        delivered_requests: RequestsByDst,
        deliver_grants: GrantDelivery,
        rx_usable: PortPredicate | None = None,
        tx_usable: PortPredicate | None = None,
    ) -> tuple[list[PairMatch], int, int]:
        # Grant only the pairs whose matrix still shows demand.
        granted_view = {
            dst: {
                src: payload
                for src, payload in srcs.items()
                if self._matrix.get((dst, src), 0.0) > 0
            }
            for dst, srcs in self._awaiting_grant.items()
        }
        granted_view = {d: s for d, s in granted_view.items() if s}
        grants_by_src, num_grants = self._matcher.grant_step(
            granted_view, rx_usable, tx_usable
        )
        new_tentative: dict[tuple[int, int, int], float] = {}
        for src, grants in grants_by_src.items():
            for dst, ports in grants:
                key = (dst, src)
                for port in ports:
                    reserve = min(self._matrix.get(key, 0.0), float(self._capacity))
                    self._matrix[key] = self._matrix.get(key, 0.0) - reserve
                    new_tentative[(src, port, dst)] = reserve
        surviving_grants = deliver_grants(grants_by_src) if grants_by_src else {}

        matches = self._matcher.accept_step(self._awaiting_accept, tx_usable)

        # Resolve last epoch's reservations: accepted stand, rejected revert.
        accepted = {(src, port, dst) for src, dst, ports in matches for port in ports}
        for key, reserve in self._tentative.items():
            if key not in accepted:
                src, _port, dst = key
                self._matrix[(dst, src)] = (
                    self._matrix.get((dst, src), 0.0) + reserve
                )
        self._tentative = new_tentative

        grants_answered = self._grants_issued_last_epoch
        self._awaiting_grant = dict(delivered_requests)
        self._awaiting_accept = surviving_grants
        self._grants_issued_last_epoch = num_grants

        # Requests delivered this epoch update the matrices for next epoch.
        for dst, srcs in delivered_requests.items():
            for src, payload in srcs.items():
                if payload:
                    key = (dst, src)
                    self._matrix[key] = self._matrix.get(key, 0.0) + payload
        return matches, grants_answered, count_ports(matches)


# ---------------------------------------------------------------------------
# ProjecToR-style scheduling (A.2.5)
# ---------------------------------------------------------------------------


class ProjecToRMatcher(NegotiaToRMatcher):
    """Per-port, waiting-delay-prioritized matching (appendix A.2.5).

    Requests arrive as ``(tx_port, waiting_delay_ns)`` payloads: the source
    has already committed a specific port to the data bundle.  A destination
    grants each RX port to the waiting-delay maximum among the requests that
    chose that port, and a source accepts its per-port delay maximum.
    """

    def _grant_for_port(self, requests, port, tx_usable, member_filter=None):
        best_src, best_delay = None, -1.0
        for src, payload in requests.items():
            if payload is None:
                continue
            req_port, delay = payload
            if req_port != port or not tx_usable(src, port):
                continue
            if member_filter is not None and src not in member_filter:
                continue
            if delay > best_delay:
                best_src, best_delay = src, delay
        return best_src

    def _grant_ports(self, dst, requests, rx_usable, tx_usable):
        rx_usable = rx_usable or _all_ports_usable
        tx_usable = tx_usable or _all_ports_usable
        assigned = []
        for port in range(self._ports):
            if not rx_usable(dst, port):
                continue
            # On thin-clos only the sources the port hears may win it.
            members = (
                None
                if self._shared_grant_ring
                else set(self._grant_rings[dst][port].members)
            )
            src = self._grant_for_port(requests, port, tx_usable, members)
            if src is not None:
                assigned.append((port, src))
        return _by_source(assigned)

    _grant_parallel = _grant_thinclos = _grant_ports


class ProjecToRScheduler(PipelinedScheduler):
    """Pipeline wrapper choosing ports and delays for ProjecToR requests.

    On the parallel network the source rotates its port choice per pair and
    epoch (bundles are pinned to ports when the request is emitted); on
    thin-clos the topology dictates the port.  The waiting delay is the HoL
    age of the pair's queue, as ProjecToR logs per-bundle waiting times.
    """

    def __init__(self, matcher: NegotiaToRMatcher) -> None:
        super().__init__(matcher)
        self._parallel = isinstance(matcher.topology, ParallelNetwork)
        self._ports = matcher.topology.ports_per_tor
        self._rotation: dict[tuple[int, int], int] = {}
        self._topology = matcher.topology

    def request_payload(self, src, dst, queue, now_ns):
        if self._parallel:
            key = (src, dst)
            port = self._rotation.get(key, (src + dst) % self._ports)
            self._rotation[key] = (port + 1) % self._ports
        else:
            port = self._topology.data_port(src, dst)
        oldest = max(
            queue.head_wait_ns(band, now_ns) for band in range(queue.num_bands)
        )
        return (port, oldest)


# ---------------------------------------------------------------------------
# iterative matching (A.2.1)
# ---------------------------------------------------------------------------


class _IterativeProcess:
    """One scheduling process refined over k iterations."""

    __slots__ = ("start_epoch", "requests", "matches", "locked_tx", "locked_rx")

    def __init__(self, start_epoch: int, requests: RequestsByDst) -> None:
        self.start_epoch = start_epoch
        self.requests = requests
        # Each matched pair's ports over all rounds, in first-match order.
        self.matches: dict[tuple[int, int], list[int]] = {}
        self.locked_tx: set[tuple[int, int]] = set()
        self.locked_rx: set[tuple[int, int]] = set()


class IterativeScheduler:
    """k-iteration NegotiaToR Matching (appendix A.2.1).

    Iteration ``i`` of the process started at epoch ``p`` runs its REQUEST at
    epoch ``p + 3(i-1)``, GRANT one epoch later and ACCEPT another epoch
    later; ports matched by earlier iterations are locked and re-offered
    demand can only land on unmatched ports.  The accumulated matching is
    applied atomically when the last iteration accepts, at epoch
    ``p + 3(k-1) + 2`` — which is exactly the paper's "one more iteration
    adds three epochs of scheduling delay".  With ``iterations=1`` this
    degenerates to the standard pipeline.

    Message-loss filtering applies to first-round requests (the engine
    filters them) and to all grant rounds (via ``deliver_grants``);
    re-request rounds are treated as reliable, which only matters in
    failure experiments the paper does not combine with iteration.
    """

    def __init__(self, matcher: NegotiaToRMatcher, iterations: int) -> None:
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self._matcher = matcher
        self.iterations = iterations
        self._epoch = 0
        self._processes: dict[int, _IterativeProcess] = {}
        self._grants_in_flight: dict[int, GrantsBySrc] = {}
        self._grants_issued: dict[int, int] = {}

    @property
    def matcher(self) -> NegotiaToRMatcher:
        """The ring-state holder this scheduler drives."""
        return self._matcher

    def request_payload(self, src, dst, queue, now_ns):
        """Requests stay binary in the iterative variant."""
        return None

    def observe_sent(self, src, dst, num_bytes):
        """No demand bookkeeping."""

    @property
    def is_idle(self) -> bool:
        """Whether no scheduling process or grant is in flight.

        The internal epoch counter is self-contained (stages are computed
        relative to each process's start epoch), so the engine skipping
        epochs while idle cannot desynchronize it.
        """
        return (
            not self._processes
            and not self._grants_in_flight
            and all(count == 0 for count in self._grants_issued.values())
        )

    def advance(
        self,
        delivered_requests: RequestsByDst,
        deliver_grants: GrantDelivery,
        rx_usable: PortPredicate | None = None,
        tx_usable: PortPredicate | None = None,
    ) -> tuple[list[PairMatch], int, int]:
        rx_usable = rx_usable or _all_ports_usable
        tx_usable = tx_usable or _all_ports_usable
        epoch = self._epoch
        self._epoch += 1
        if delivered_requests:
            self._processes[epoch] = _IterativeProcess(epoch, delivered_requests)

        grants_to_send: dict[int, GrantsBySrc] = {}
        finalized: list[PairMatch] = []
        accepts = 0
        grants_answered = self._grants_issued.pop(epoch - 1, 0)

        for start in list(self._processes):
            process = self._processes[start]
            stage = epoch - start
            iteration, phase = divmod(stage, 3)
            if phase == 1 and iteration < self.iterations:
                grants = self._grant_round(process, rx_usable, tx_usable)
                if grants:
                    grants_to_send[start] = grants
            elif phase == 2 and iteration < self.iterations:
                round_matches = self._accept_round(process, start, tx_usable)
                accepts += count_ports(round_matches)
                if iteration == self.iterations - 1:
                    matched = process.matches.items()
                    finalized.extend((src, dst, ports) for (src, dst), ports in matched)
                    del self._processes[start]

        issued = 0
        for start, grants in grants_to_send.items():
            issued += sum(len(ports) for gs in grants.values() for _, ports in gs)
            surviving = deliver_grants(grants)
            self._grants_in_flight[start] = surviving
        self._grants_issued[epoch] = issued
        return finalized, grants_answered, accepts

    def _grant_round(self, process, rx_usable, tx_usable):
        def rx_free(tor, port):
            return (tor, port) not in process.locked_rx and rx_usable(tor, port)

        def tx_free(tor, port):
            return (tor, port) not in process.locked_tx and tx_usable(tor, port)

        live_requests = {
            dst: {
                src: payload
                for src, payload in srcs.items()
                if any(
                    tx_free(src, p) for p in range(self._matcher.topology.ports_per_tor)
                )
            }
            for dst, srcs in process.requests.items()
        }
        live_requests = {d: s for d, s in live_requests.items() if s}
        grants_by_src, _ = self._matcher.grant_step(
            live_requests, rx_free, tx_free
        )
        return grants_by_src

    def _accept_round(self, process, start, tx_usable):
        grants = self._grants_in_flight.pop(start, {})
        if not grants:
            return []

        def tx_free(tor, port):
            return (tor, port) not in process.locked_tx and tx_usable(tor, port)

        matches = self._matcher.accept_step(grants, tx_free)
        for src, dst, ports in matches:
            # A pair matched in several rounds drains all its ports at once.
            process.matches.setdefault((src, dst), []).extend(ports)
            for port in ports:
                process.locked_tx.add((src, port))
                process.locked_rx.add((dst, port))
        return matches

    def reset(self) -> None:
        """Drop all in-flight processes."""
        self._processes.clear()
        self._grants_in_flight.clear()
        self._grants_issued.clear()


def scheduling_delay_epochs(iterations: int) -> int:
    """Nominal scheduling delay of the iterative variant, in epochs."""
    if iterations < 1:
        raise ValueError("need at least one iteration")
    return 2 + 3 * (iterations - 1)


# ---------------------------------------------------------------------------
# factory helpers
# ---------------------------------------------------------------------------


SCHEDULERS = (
    "base", "iterative", "data-size", "hol-delay", "stateful", "projector",
)
"""Every scheduler variant name :func:`make_scheduler` builds."""


def make_scheduler(
    name: str,
    topology: FlatTopology,
    rng: random.Random,
    *,
    iterations: int = 3,
    alpha: float = 0.001,
    phase_capacity_bytes: int = 30 * 1115,
):
    """Build a scheduler variant by name (one of :data:`SCHEDULERS`)."""
    if name == "base":
        return PipelinedScheduler(NegotiaToRMatcher(topology, rng))
    if name == "iterative":
        return IterativeScheduler(
            NegotiaToRMatcher(topology, rng), iterations=iterations
        )
    if name == "data-size":
        return DataSizeScheduler(ValuePriorityMatcher(topology, rng))
    if name == "hol-delay":
        return HolDelayScheduler(ValuePriorityMatcher(topology, rng), alpha=alpha)
    if name == "stateful":
        return StatefulScheduler(
            NegotiaToRMatcher(topology, rng),
            phase_capacity_bytes=phase_capacity_bytes,
        )
    if name == "projector":
        return ProjecToRScheduler(ProjecToRMatcher(topology, rng))
    raise ValueError(f"unknown scheduler variant {name!r}")
