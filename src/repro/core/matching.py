"""NegotiaToR Matching: distributed REQUEST / GRANT / ACCEPT (section 3.2).

The algorithm computes a conflict-free port-level matching from *binary*
per-pair demand, with no iteration:

* **REQUEST** — a source ToR sends one ToR-level request to every destination
  whose per-destination queue holds enough pending data (the engine computes
  the request sets; this module consumes them).
* **GRANT** — each destination allocates its RX ports to the received
  requests using round-robin rings: one shared ring on the parallel network
  (any port hears any source), one ring per port on thin-clos (a port hears
  only its W-ToR group).  A granted port binds the *same* port index on the
  source side, because AWGR ``k`` joins everyone's port ``k``.  A grant is
  one destination's decision for one source: ``(dst, ports)``.
* **ACCEPT** — a source may receive grants from several destinations for the
  same TX port; a per-port round-robin ring picks one, yielding the final
  matching as per-pair groups ``(src, dst, ports)``.

Because each step only eliminates conflicts on one side, the result is a
partial matching: every (ToR, port) appears at most once on the transmit side
and at most once on the receive side.

The class keeps all ToRs' ring state; each call site (the simulator) feeds it
the message sets that actually survived the in-band control plane, so link
failures naturally translate into missing requests or grants.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from ..topology.base import FlatTopology
from ..topology.parallel import ParallelNetwork
from .rings import RoundRobinRing

PortPredicate = Callable[[int, int], bool]


def _all_ports_usable(tor: int, port: int) -> bool:
    return True


def _normalize_predicate(predicate: PortPredicate | None) -> PortPredicate | None:
    """Map the all-usable sentinel to None so hot paths can skip it.

    ``None`` means "every port is usable": the GRANT/ACCEPT hot paths treat
    it as permission to skip per-(tor, port) predicate calls and candidate
    filtering entirely, which is the common case (no detected failures, no
    receiver-buffer pressure).
    """
    if predicate is _all_ports_usable:
        return None
    return predicate


class Match(NamedTuple):
    """A scheduled one-hop connection: src transmits to dst on port ``port``."""

    src: int
    port: int
    dst: int


Grant = tuple[int, Sequence[int]]
"""One destination's grant to a source: ``(dst, ports)``, ports rising."""

PairMatch = tuple[int, int, Sequence[int]]
"""The ports one pair was matched on this epoch: ``(src, dst, ports)``."""


def per_port_matches(groups: Iterable[PairMatch]) -> list[Match]:
    """The per-port :class:`Match` view of per-pair match groups."""
    return [Match(src, port, dst) for src, dst, ports in groups for port in ports]


def count_ports(groups: Iterable[PairMatch]) -> int:
    """Per-port matches (accepted grants) in a list of match groups."""
    return sum(len(ports) for _src, _dst, ports in groups)


@dataclass
class MatchingResult:
    """Outcome of one epoch's GRANT + ACCEPT steps."""

    groups: list[PairMatch] = field(default_factory=list)
    num_grants: int = 0

    @property
    def matches(self) -> list[Match]:
        """The accepted matching, one :class:`Match` per port."""
        return per_port_matches(self.groups)

    @property
    def num_accepts(self) -> int:
        """Accepted grants (equals the number of per-port matches)."""
        return count_ports(self.groups)

    @property
    def match_ratio(self) -> float:
        """Accepts / grants for this epoch (Fig 14's metric)."""
        if self.num_grants == 0:
            raise ValueError("no grants were issued")
        return self.num_accepts / self.num_grants


def _by_source(assigned: Iterable[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """Port-ordered ``(port, src)`` picks as ``(src, ports)`` grants."""
    groups: dict[int, list[int]] = {}
    for port, src in assigned:
        groups.setdefault(src, []).append(port)
    return list(groups.items())


class NegotiaToRMatcher:
    """All-ToR ring state plus the GRANT and ACCEPT procedures."""

    def __init__(self, topology: FlatTopology, rng: random.Random) -> None:
        self._topology = topology
        self._num_tors = topology.num_tors
        self._ports = topology.ports_per_tor
        self._shared_grant_ring = isinstance(topology, ParallelNetwork)
        if self._shared_grant_ring:
            # Fig 3b: one GRANT ring per destination ToR, shared by its ports.
            self._grant_rings: list = [
                RoundRobinRing(
                    [t for t in range(self._num_tors) if t != tor], rng=rng
                )
                for tor in range(self._num_tors)
            ]
        else:
            # Fig 3c: one GRANT ring per (destination ToR, RX port).
            self._grant_rings = [
                [
                    RoundRobinRing(topology.reachable_srcs(tor, port), rng=rng)
                    for port in range(self._ports)
                ]
                for tor in range(self._num_tors)
            ]
        self._accept_rings = [
            [
                RoundRobinRing(topology.reachable_dsts(tor, port), rng=rng)
                for port in range(self._ports)
            ]
            for tor in range(self._num_tors)
        ]
        self._all_ports = tuple(range(self._ports))
        # Per-port ACCEPT scratch buckets, reused across sources and epochs
        # so the hot path allocates no per-destination containers.
        self._accept_buckets: list[list[int]] = [[] for _ in range(self._ports)]

    @property
    def topology(self) -> FlatTopology:
        """The fabric this matcher schedules."""
        return self._topology

    @property
    def uses_shared_grant_ring(self) -> bool:
        """True on the parallel network (per-ToR ring), False on thin-clos."""
        return self._shared_grant_ring

    # ------------------------------------------------------------------
    # GRANT
    # ------------------------------------------------------------------

    def grant_step(
        self,
        requests_by_dst: Mapping[int, Mapping[int, object]],
        rx_usable: PortPredicate | None = None,
        tx_usable: PortPredicate | None = None,
    ) -> tuple[dict[int, list[Grant]], int]:
        """Allocate every destination's RX ports to its received requests.

        ``requests_by_dst[dst]`` maps requesting sources to request payloads
        (ignored here — requests are binary; variants interpret them).
        ``rx_usable`` and ``tx_usable`` exclude ports with *detected* link
        failures on the receive and transmit side respectively; ``None``
        (the common, failure-free case) means every port is usable and lets
        the GRANT step skip all per-port predicate calls.

        Returns (each source's grants, one per granting destination, as
        ``src -> [(dst, ports), ...]``; the number of ports granted).
        """
        rx_usable = _normalize_predicate(rx_usable)
        tx_usable = _normalize_predicate(tx_usable)
        grants_by_src: dict[int, list[Grant]] = {}
        num_grants = 0
        grant = (
            self._grant_parallel if self._shared_grant_ring else self._grant_thinclos
        )
        for dst, requests in requests_by_dst.items():
            if not requests:
                continue
            for src, ports in grant(dst, requests, rx_usable, tx_usable):
                entry = grants_by_src.get(src)
                if entry is None:
                    grants_by_src[src] = [(dst, ports)]
                else:
                    entry.append((dst, ports))
                num_grants += len(ports)
        return grants_by_src, num_grants

    def _grant_parallel(
        self,
        dst: int,
        requests: Mapping[int, object],
        rx_usable: PortPredicate | None,
        tx_usable: PortPredicate | None,
    ) -> list[tuple[int, Sequence[int]]]:
        ring = self._grant_rings[dst]
        if rx_usable is None:
            ports: Sequence[int] = self._all_ports
        else:
            ports = [p for p in range(self._ports) if rx_usable(dst, p)]
            if not ports:
                return []
        # The engine never routes a ToR's request to itself; only filter the
        # self-request out when a direct run_epoch() caller included one.
        candidates: Collection[int] = requests
        if dst in requests:
            candidates = [src for src in requests if src != dst]
            if not candidates:
                return []
        if tx_usable is None or not any(
            not tx_usable(src, port) for src in candidates for port in ports
        ):
            return ring.deal(candidates, ports)
        # A source with a failed egress port must not be granted that port:
        # fall back to per-port picks over per-port candidate sets.
        assigned = []
        for port in ports:
            eligible = {src for src in candidates if tx_usable(src, port)}
            src = ring.pick(eligible)
            if src is not None:
                assigned.append((port, src))
        return _by_source(assigned)

    def _grant_thinclos(
        self,
        dst: int,
        requests: Mapping[int, object],
        rx_usable: PortPredicate | None,
        tx_usable: PortPredicate | None,
    ) -> list[tuple[int, Sequence[int]]]:
        assigned = []
        rings = self._grant_rings[dst]
        for port in range(self._ports):
            if rx_usable is not None and not rx_usable(dst, port):
                continue
            ring = rings[port]
            if tx_usable is None:
                # The ring scan itself intersects with the request set
                # (peek tests membership): no candidate set is needed.
                src = ring.pick(requests)
            else:
                eligible = {
                    src
                    for src in requests
                    if src in ring.members and tx_usable(src, port)
                }
                src = ring.pick(eligible)
            if src is not None:
                assigned.append((port, src))
        return _by_source(assigned)

    # ------------------------------------------------------------------
    # ACCEPT
    # ------------------------------------------------------------------

    def accept_step(
        self,
        grants_by_src: Mapping[int, list[Grant]],
        tx_usable: PortPredicate | None = None,
    ) -> list[PairMatch]:
        """Resolve source-side conflicts: one accepted grant per TX port,
        picked by the port's ring; returns ``(src, dst, ports)`` groups, by
        source, and within a source by each pair's first port."""
        tx_usable = _normalize_predicate(tx_usable)
        groups: list[PairMatch] = []
        buckets = self._accept_buckets
        for src, grants in grants_by_src.items():
            rings = self._accept_rings[src]
            last = -1
            for _dst, ports in grants:
                if ports[0] <= last:
                    break
                last = ports[-1]
            else:
                # Ports rise across the grants (a single grant, or
                # destinations dealt disjoint ranges): each port holds one
                # grant and grant order is port order, so no grouping.
                for dst, ports in grants:
                    kept = [
                        p
                        for p in ports
                        if (tx_usable is None or tx_usable(src, p))
                        and rings[p].pick_one(dst) is not None
                    ]
                    if kept:
                        groups.append((src, dst, kept))
                continue
            used = []
            for dst, ports in grants:
                for port in ports:
                    bucket = buckets[port]
                    if not bucket:
                        used.append(port)
                    bucket.append(dst)
            used.sort()
            by_dst: dict[int, list[int]] = {}
            for port in used:
                bucket = buckets[port]
                if tx_usable is None or tx_usable(src, port):
                    if len(bucket) == 1:
                        dst = rings[port].pick_one(bucket[0])
                    else:
                        dst = rings[port].pick(bucket)
                    if dst is not None:
                        by_dst.setdefault(dst, []).append(port)
                bucket.clear()
            groups.extend((src, dst, kept) for dst, kept in by_dst.items())
        return groups

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def run_epoch(
        self,
        requests_by_dst: Mapping[int, Mapping[int, object]],
        rx_usable: PortPredicate | None = None,
        tx_usable: PortPredicate | None = None,
    ) -> MatchingResult:
        """GRANT + ACCEPT back to back (no pipelining, no message loss).

        Useful for unit tests and for the matching-efficiency experiments
        that study the algorithm in isolation.
        """
        grants_by_src, num_grants = self.grant_step(
            requests_by_dst, rx_usable, tx_usable
        )
        groups = self.accept_step(grants_by_src, tx_usable)
        return MatchingResult(groups=groups, num_grants=num_grants)


def validate_matching(matches: list[Match], topology: FlatTopology) -> None:
    """Assert the structural invariants of a NegotiaToR matching.

    Raises ValueError when two matches share a (src, port) or (dst, port),
    or when a match violates the topology's reachability.
    """
    tx_seen: set[tuple[int, int]] = set()
    rx_seen: set[tuple[int, int]] = set()
    for match in matches:
        tx = (match.src, match.port)
        rx = (match.dst, match.port)
        if tx in tx_seen:
            raise ValueError(f"transmit side conflict at {tx}")
        if rx in rx_seen:
            raise ValueError(f"receive side conflict at {rx}")
        tx_seen.add(tx)
        rx_seen.add(rx)
        required = topology.data_port(match.src, match.dst)
        if required is not None and required != match.port:
            raise ValueError(
                f"match {match} uses port {match.port} but topology only "
                f"connects the pair via port {required}"
            )
