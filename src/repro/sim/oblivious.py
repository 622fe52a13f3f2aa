"""The traffic-oblivious baseline: round-robin rotor + Valiant load balancing.

This is the paper's state-of-the-art comparison point, implemented after
Sirius (Ballani et al., SIGCOMM'20) on the same simulator substrate
(section 4.1):

* The fabric reconfigures **every** timeslot following the same predefined
  round-robin schedule NegotiaToR uses in its predefined phase, so all ToR
  pairs connect once per rotation cycle regardless of traffic.
* Traffic adapts to the network via **VLB**: every cell of a fresh flow is
  assigned a uniformly random intermediate ToR when it arrives and staged in
  a per-intermediate queue; it leaves when the rotor connects the source to
  that intermediate, and completes its second hop when the intermediate's
  rotor reaches the final destination.  A cell whose random intermediate
  *is* its destination has a zero-length second hop.  The random assignment
  is what uniforms the traffic to all-to-all — and also what makes incasts
  collide at intermediates (Fig 7a's growth with degree).
* Relay (second-hop) cells have strict priority over fresh cells —
  intermediate buffers stay bounded, the usual rotor-network discipline.
* PIAS priorities apply at sources only: the multi-level feedback queue
  cannot classify relayed data at intermediates (section 4.1), which is
  exactly why elephants block mice mid-path and mice FCT suffers.

Every slot carries one cell per port.  A slot is ``guard + tx(data packet)``
long — the rotor pays a guardband on *every* slot, versus NegotiaToR's
predefined phase only.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from time import perf_counter

from ..topology.base import FlatTopology
from .config import SimConfig, transmit_ns
from .flows import Flow
from .kernel import CircuitKernel, StepKernel
from .metrics import BandwidthRecorder


class ObliviousSimulator(CircuitKernel):
    """Slot-driven rotor + VLB simulator over a finite set of flows.

    The kernel's first-hop queues are the VLB stage queues, one per
    (source, intermediate).  ``stream=True`` consumes ``flows`` lazily
    from an arrival-ordered iterator with a bounded-memory tracker,
    mirroring :class:`~repro.sim.network.NegotiaToRSimulator`'s
    streaming mode.
    """

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        bandwidth_recorder: BandwidthRecorder | None = None,
        stream: bool = False,
        tracer=None,
    ) -> None:
        packet_bytes = (
            config.epoch.data_header_bytes + config.epoch.data_payload_bytes
        )
        self.slot_ns = config.epoch.guard_ns + transmit_ns(
            packet_bytes, config.uplink_gbps
        )
        # Idle slots are fast-forwarded (DESIGN.md section 7): oblivious
        # fabrics never fail a link and draw randomness only at injection,
        # so a slot with nothing staged or relayed changes no state.
        super().__init__(
            config,
            topology,
            flows,
            step_ns=self.slot_ns,
            bandwidth_recorder=bandwidth_recorder,
            stream=stream,
            tracer=tracer,
        )
        self._rng = random.Random(config.seed + 0x0B11)
        n = config.num_tors
        # Each source's candidate VLB intermediates: every other ToR.
        self._others = [[t for t in range(n) if t != src] for src in range(n)]
        # Observational telemetry hooks (DESIGN.md section 14).  A tracer
        # times the two per-link sends in place, attributing second-hop
        # relay service to "relay" and first-hop staged service to
        # "drain", so the slot loop is the same with and without one.
        if tracer is not None:
            self._send_relay = tracer.timed(
                self._send_relay, "relay", "relay_cells"
            )
            self._send_staged = tracer.timed(
                self._send_staged, "drain", "direct_cells"
            )

    # ------------------------------------------------------------------
    # kernel bindings (sim/kernel.py, DESIGN.md section 7)
    # ------------------------------------------------------------------

    fast_forwarded_slots = StepKernel.fast_forwarded_steps
    step_counter = "slots"
    run = StepKernel.run
    run_until_complete = StepKernel.run_until_complete
    summary = StepKernel.summary

    # ------------------------------------------------------------------
    # one slot
    # ------------------------------------------------------------------

    def step_slot(self) -> None:
        """Simulate one rotor timeslot across all ToRs and ports."""
        slot = self._step
        start_ns = self.now_ns
        tracer = self._tracer
        if tracer is not None:
            t_inject = perf_counter()
        self._inject_arrivals(start_ns)
        if tracer is not None:
            tracer.add_span("inject", perf_counter() - t_inject)

        links = self.topology.predefined_links(
            slot % self.cycle_slots, slot // self.cycle_slots
        )
        deliver_ns = start_ns + self.slot_ns + self.config.propagation_ns
        # Active sets: a ToR with no staged and no relayed bytes cannot
        # send on any port, so skipping it leaves every queue, counter and
        # delivery unchanged.
        direct_pending = self._direct_pending
        relay_pending = self._relay_pending

        for tor in range(self.config.num_tors):
            if not direct_pending[tor] and not relay_pending[tor]:
                continue
            for _port, peer in links[tor]:
                if not self._send_relay(tor, peer, start_ns, deliver_ns):
                    self._send_staged(tor, peer, start_ns, deliver_ns)
        self._end_step()

    step = step_slot

    # ------------------------------------------------------------------
    # VLB spreading
    # ------------------------------------------------------------------

    def _band_chunks(self, size_bytes: int):
        """Split a flow's bytes into (band, bytes) per the PIAS thresholds."""
        chunks = []
        offset = 0
        for band, limit in enumerate(self._band_limits):
            span = min(size_bytes, limit) - offset
            if span > 0:
                chunks.append((band, span))
                offset += span
            if offset >= size_bytes:
                break
        tail = size_bytes - offset
        if tail > 0:
            chunks.append((len(self._band_limits), tail))
        return chunks

    def _enqueue(self, flow: Flow) -> None:
        """Assign the flow's cells to uniformly random intermediates.

        Each payload-sized cell draws an intermediate; consecutive cells of
        one band are sprayed without replacement (round-robin-like), and a
        band bigger than one cell per intermediate is split evenly across
        all of them.
        """
        src = flow.src
        others = self._others[src]
        payload = self.payload_bytes
        for band, nbytes in self._band_chunks(flow.size_bytes):
            cells = math.ceil(nbytes / payload)
            if cells >= len(others):
                base = nbytes // len(others)
                remainder = nbytes - base * len(others)
                for index, intermediate in enumerate(others):
                    size = base + (1 if index < remainder else 0)
                    if size > 0:
                        self._stage_bytes(src, intermediate, flow, size, band)
            else:
                picks = self._rng.sample(others, cells)
                remaining = nbytes
                for intermediate in picks:
                    size = min(payload, remaining)
                    self._stage_bytes(src, intermediate, flow, size, band)
                    remaining -= size
        self._direct_pending[src] += flow.size_bytes

    def _stage_bytes(self, src, intermediate, flow, size, band):
        self._direct_queue(src, intermediate).enqueue_bytes(
            flow, size, band=band, eligible_ns=flow.arrival_ns
        )

    # ------------------------------------------------------------------
    # per-slot transmissions
    # ------------------------------------------------------------------

    def _send_relay(
        self, tor: int, peer: int, now_ns: float, deliver_ns: float
    ) -> bool:
        """Second hop: forward one buffered relay cell destined to ``peer``."""
        queue = self._relay[tor].get(peer)
        if queue is None:
            return False
        cell = queue.drain_single_packet(self.payload_bytes, now_ns)
        if cell is None:
            return False
        flow, num_bytes = cell
        self._relay_pending[tor] -= num_bytes
        self._deliver(flow, num_bytes, deliver_ns)
        return True

    def _send_staged(
        self, tor: int, peer: int, now_ns: float, deliver_ns: float
    ) -> bool:
        """First hop: send a staged cell whose assigned intermediate is ``peer``."""
        queue = self._direct[tor].get(peer)
        if queue is None:
            return False
        cell = queue.drain_single_packet(self.payload_bytes, now_ns)
        if cell is None:
            return False
        flow, num_bytes = cell
        self._direct_pending[tor] -= num_bytes
        if flow.dst == peer:
            # The random intermediate is the destination: zero-length
            # second hop, the cell is delivered.
            self._deliver(flow, num_bytes, deliver_ns)
        else:
            self._hand_over(flow, num_bytes, peer, deliver_ns, deliver_ns)
        return True
