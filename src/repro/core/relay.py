"""Traffic-aware selective relay on thin-clos (section 3.5, appendix A.2.2).

The thin-clos topology connects each ordered pair through a single
port-to-port path, so a pair's direct bandwidth is capped at one port.  The
paper explores relaying *elephant* data through lightly-loaded intermediate
ToRs to put idle links to work, and concludes the gain does not justify the
complexity — this module exists to reproduce that conclusion (Table 3).

The three-step protocol (Fig 16):

1. Before requesting, a source with more than ``relay_threshold_bytes`` of
   lowest-band (elephant) data for some destination selects intermediate
   candidates — excluding any whose shared source link already carries
   high-volume direct traffic — and sends them relay requests.
2. An intermediate grants a relay request when its own queue toward the final
   destination is short and it has granted less than one scheduled phase of
   relay bytes this epoch (buffer/congestion control).
3. The source accepts grants onto ports left idle by the accepted matching;
   direct traffic always has priority.  The relayed bytes join the
   intermediate's ordinary per-destination queue (lowest band), so the
   intermediate's own NegotiaToR Matching forwards them — a second one-hop
   transmission.

Relay requests/grants ride the same predefined phase as the scheduling
messages, pipelined over two epochs like the main REQUEST -> GRANT flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.config import KB
from ..sim.network import NegotiaToRSimulator
from ..topology.thinclos import ThinClos


@dataclass(frozen=True)
class RelayPolicy:
    """Tuning knobs of the selective relay (appendix A.2.2 settings)."""

    relay_threshold_bytes: int = 60 * KB
    high_volume_bytes: int = 30 * KB
    max_candidates: int = 2
    grant_budget_phases: float = 1.0

    def __post_init__(self) -> None:
        if self.relay_threshold_bytes <= 0:
            raise ValueError("relay threshold must be positive")
        if self.high_volume_bytes <= 0:
            raise ValueError("high-volume threshold must be positive")
        if self.max_candidates < 1:
            raise ValueError("need at least one candidate")
        if self.grant_budget_phases <= 0:
            raise ValueError("grant budget must be positive")


class SelectiveRelaySimulator(NegotiaToRSimulator):
    """NegotiaToR with traffic-aware selective relay enabled (thin-clos)."""

    def __init__(self, *args, relay_policy: RelayPolicy | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.topology, ThinClos):
            raise ValueError(
                "selective relay targets the connection-limited thin-clos "
                "topology (appendix A.2.2)"
            )
        self.policy = relay_policy or RelayPolicy()
        # (src, dst, intermediate, volume) requests awaiting grant.
        self._relay_requests: list[tuple[int, int, int, int]] = []
        # (src, port, intermediate, dst, granted_bytes) awaiting execution.
        self._relay_grants: list[tuple[int, int, int, int, int]] = []
        self._candidate_rotation = 0

    def is_idle(self) -> bool:
        """Block idle fast-forward while relay messages are in flight."""
        return (
            super().is_idle()
            and not self._relay_requests
            and not self._relay_grants
        )

    # ------------------------------------------------------------------
    # the three-step relay pipeline
    # ------------------------------------------------------------------

    def _plan_relay(self, epoch, start_ns, matches):
        assignments = self._accept_relay_grants()
        self._grant_relay_requests()
        self._emit_relay_requests()
        if self._tracer is not None:
            self._tracer.count("relay_grants", len(self._relay_grants))
            self._tracer.count("relay_requests", len(self._relay_requests))
        return assignments

    def _emit_relay_requests(self) -> None:
        """Step 1: sources nominate intermediates for elephant backlogs."""
        topology: ThinClos = self.topology  # type: ignore[assignment]
        policy = self.policy
        lowest = self.config.num_priority_bands - 1
        requests = []
        for src, dst in list(self._active_pairs):
            queue = self._queues[src][dst]
            if queue.band_bytes(lowest) < policy.relay_threshold_bytes:
                continue
            candidates = []
            self._candidate_rotation += 1
            for offset in range(self._candidate_rotation,
                                self._candidate_rotation + topology.num_tors):
                intermediate = offset % topology.num_tors
                if intermediate in (src, dst):
                    continue
                first_hop_port = topology.data_port(src, intermediate)
                if self._port_has_high_volume_direct(
                    src, first_hop_port, exclude_dst=dst
                ):
                    continue
                candidates.append(intermediate)
                if len(candidates) >= policy.max_candidates:
                    break
            volume = min(
                queue.band_bytes(lowest),
                self.timing.scheduled_slots * self.timing.data_payload_bytes,
            )
            for intermediate in candidates:
                requests.append((src, dst, intermediate, volume))
        self._relay_requests = requests

    def _grant_relay_requests(self) -> None:
        """Step 2: intermediates admit relay volume within their budget."""
        topology: ThinClos = self.topology  # type: ignore[assignment]
        policy = self.policy
        budget = int(
            policy.grant_budget_phases
            * self.timing.scheduled_slots
            * self.timing.data_payload_bytes
        )
        granted_by_intermediate: dict[int, int] = {}
        granted_rx_ports: set[tuple[int, int]] = set()
        grants = []
        for src, dst, intermediate, volume in self._relay_requests:
            first_hop_port = topology.data_port(src, intermediate)
            if (intermediate, first_hop_port) in granted_rx_ports:
                continue
            used = granted_by_intermediate.get(intermediate, 0)
            if used >= budget:
                continue
            # The intermediate's own second-hop link must not already carry
            # high-volume direct traffic toward the final destination.
            second_hop_port = topology.data_port(intermediate, dst)
            if self._port_has_high_volume_direct(
                intermediate, second_hop_port, exclude_dst=None
            ):
                continue
            allowed = min(volume, budget - used)
            if allowed <= 0:
                continue
            granted_by_intermediate[intermediate] = used + allowed
            granted_rx_ports.add((intermediate, first_hop_port))
            grants.append((src, first_hop_port, intermediate, dst, allowed))
        self._relay_requests = []
        self._relay_grants = grants

    def _accept_relay_grants(self):
        """Step 3: sources claim grants; execution defers to the engine,
        which gives direct traffic priority on every port."""
        assignments = []
        claimed_tx: set[tuple[int, int]] = set()
        lowest = self.config.num_priority_bands - 1
        for src, port, intermediate, dst, allowed in self._relay_grants:
            if (src, port) in claimed_tx:
                continue
            queue = self._queues[src][dst]
            if queue.band_bytes(lowest) == 0:
                continue
            claimed_tx.add((src, port))
            assignments.append((src, port, intermediate, dst, allowed))
        self._relay_grants = []
        return assignments

    # ------------------------------------------------------------------
    # local traffic inspection
    # ------------------------------------------------------------------

    def _port_has_high_volume_direct(
        self, tor: int, port: int, exclude_dst: int | None
    ) -> bool:
        """Whether a ToR's TX port carries high-volume direct traffic.

        Thin-clos maps each destination group to one port, so this scans the
        W destinations reachable through ``port``.
        """
        topology: ThinClos = self.topology  # type: ignore[assignment]
        threshold = self.policy.high_volume_bytes
        for dst in topology.reachable_dsts(tor, port):
            if dst == exclude_dst:
                continue
            if (tor, dst) in self._active_pairs and self._queues[tor][
                dst
            ].pending_bytes >= threshold:
                return True
        return False
