"""The RotorNet-style rotor baseline: long-slice round-robin + RotorLB relay.

This is the *other* classic traffic-oblivious design the paper positions
itself against (RotorNet, SIGCOMM'17; Opera, NSDI'20): a fabric that cycles
a fixed round-robin schedule of Birkhoff–von-Neumann permutation matchings
with **no negotiation phase at all**.  It differs from the Sirius-flavored
:class:`~repro.sim.oblivious.ObliviousSimulator` on two axes:

* **Timing** — the rotor holds each matching for a long *slice*
  (``RotorConfig.packets_per_slice`` data packets per port) and pays a
  ``reconfiguration_delay_ns`` guard on every rotation, instead of
  reconfiguring after every single packet.  Slice length and duty cycle are
  the rotor's defining trade-off: long slices amortize reconfiguration but
  make a source wait up to a whole cycle for its destination.
* **Traffic steering** — instead of spraying every cell over a uniformly
  random intermediate up front, the rotor runs the RotorLB discipline: when
  (tor, port) is connected to ``peer`` it serves, in strict order,

  1. buffered **relay** bytes destined to ``peer`` (second Valiant hop —
     strict priority keeps intermediate buffers bounded),
  2. its own **direct** backlog for ``peer`` (PIAS bands apply at sources,
     exactly as in the other engines), and
  3. with leftover slice capacity and ``vlb_relay`` enabled, **indirect**
     offload: lowest-band backlog for *other* destinations is handed to
     ``peer``, which acts as the Valiant intermediate and delivers it when
     its own rotor reaches the final destination.  Only lowest-band
     (elephant) bytes relay — mice keep their direct one-hop path, the
     same discipline as the selective relay (appendix A.2.2) — and relayed
     data loses its PIAS class at the intermediate, which is exactly the
     mice-behind-elephants pathology the paper ascribes to rotor fabrics.

The engine reuses the shared substrate end to end: segment queues
(:class:`~repro.sim.queues.PiasDestQueue`), the failure model and event
plans (:mod:`repro.sim.failures` — a transmission is lost when its
(tor, port) link is down at the slice it rides), the bandwidth recorder,
and both flow-source modes (``stream=True`` pairs a lazy arrival-ordered
iterator with the bounded-memory tracker, DESIGN.md section 11).

The schedule itself comes from the topology's predefined round-robin
rotation: within one cycle of ``predefined_slots`` matchings every ordered
ToR pair is connected exactly once per port-cycle, so each round-robin
cycle offers every source all N-1 destinations exactly once (the invariant
tests/test_rotor_engine.py pins, with and without link failures).
"""

from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter

from ..topology.base import FlatTopology
from .config import RotorConfig, SimConfig, transmit_ns
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow
from .kernel import StepKernel
from .metrics import BandwidthRecorder
from .queues import PiasDestQueue


class RotorSimulator(StepKernel):
    """Slice-driven rotor fabric over a finite set of flows.

    ``stream=True`` consumes ``flows`` lazily from an arrival-ordered
    iterator with a bounded-memory tracker, mirroring the other engines'
    streaming mode.
    """

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        rotor: RotorConfig | None = None,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
        bandwidth_recorder: BandwidthRecorder | None = None,
        stream: bool = False,
        tracer=None,
    ) -> None:
        if topology.num_tors != config.num_tors:
            raise ValueError("topology and config disagree on num_tors")
        if topology.ports_per_tor != config.ports_per_tor:
            raise ValueError("topology and config disagree on ports_per_tor")
        self.config = config
        self.topology = topology
        self.rotor = rotor or RotorConfig()

        packet_bytes = (
            config.epoch.data_header_bytes + config.epoch.data_payload_bytes
        )
        self._tx_ns = transmit_ns(packet_bytes, config.uplink_gbps)
        self.slice_ns = self.rotor.slice_ns(config.epoch, config.uplink_gbps)
        self.payload_bytes = config.epoch.data_payload_bytes
        self.cycle_slots = topology.predefined_slots
        # Idle slices are fast-forwarded while the fabric is empty and
        # failure detection is in steady state (DESIGN.md section 7).
        super().__init__(
            config,
            flows,
            step_ns=self.slice_ns,
            stream=stream,
            fast_forward=config.idle_fast_forward,
            failure_model=failure_model,
            failure_plan=failure_plan,
        )

        n = config.num_tors
        if config.priority_queue_enabled:
            self._band_limits = tuple(config.pias_thresholds)
        else:
            self._band_limits = ()
        # Per (source, destination) direct queues with PIAS bands: bytes
        # wait here until the rotor connects the pair (or, with VLB, until
        # leftover capacity offloads lowest-band bytes through a detour).
        self._direct: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._direct_pending = [0] * n
        # Per (intermediate, final destination) relay queues, single band.
        self._relay: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._relay_pending = [0] * n
        self.bandwidth = bandwidth_recorder
        # Observational telemetry hooks (DESIGN.md section 14).  A tracer
        # times the three RotorLB stages in place — relay (second hop),
        # drain (direct) and offload (VLB) — so the slice loop is the same
        # with and without one.
        self._tracer = tracer
        if tracer is not None:
            self._serve_relay = tracer.timed(
                self._serve_relay, "relay", "relay_packets"
            )
            self._serve_direct = tracer.timed(
                self._serve_direct, "drain", "direct_packets"
            )
            self._offload_indirect = tracer.timed(
                self._offload_indirect, "offload"
            )

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------

    slices = StepKernel.steps
    fast_forwarded_slices = StepKernel.fast_forwarded_steps

    @property
    def total_queued_bytes(self) -> int:
        """Bytes waiting at sources plus bytes in flight at intermediates."""
        return sum(self._direct_pending) + sum(self._relay_pending)

    def direct_bytes_at(self, tor: int) -> int:
        """Bytes currently queued for direct transmission at one ToR."""
        return self._direct_pending[tor]

    def relay_bytes_at(self, tor: int) -> int:
        """Bytes currently buffered at one intermediate ToR."""
        return self._relay_pending[tor]

    # ------------------------------------------------------------------
    # kernel bindings (sim/kernel.py, DESIGN.md section 7)
    # ------------------------------------------------------------------

    step_counter = "slices"
    run = StepKernel.run
    run_until_complete = StepKernel.run_until_complete
    summary = StepKernel.summary

    def is_idle(self) -> bool:
        """The fabric holds no direct or relay bytes."""
        return not any(self._direct_pending) and not any(self._relay_pending)

    # ------------------------------------------------------------------
    # one slice
    # ------------------------------------------------------------------

    def step_slice(self) -> None:
        """Simulate one rotor slice across all ToRs and ports."""
        slice_index = self._step
        start_ns = self.now_ns
        tracer = self._tracer
        if tracer is not None:
            t_inject = perf_counter()
        self._apply_failures(start_ns)
        self._inject_arrivals(start_ns)
        if tracer is not None:
            tracer.add_span("inject", perf_counter() - t_inject)

        links = self.topology.predefined_links(
            slice_index % self.cycle_slots, slice_index // self.cycle_slots
        )
        failures = self.failures
        check = failures.any_failed
        budget = self.rotor.packets_per_slice
        # Active sets: a ToR with no direct and no relay backlog provably
        # sends nothing this slice, so it is skipped without touching its
        # (empty) queues.
        direct_pending = self._direct_pending
        relay_pending = self._relay_pending

        for tor in range(self.config.num_tors):
            if not direct_pending[tor] and not relay_pending[tor]:
                continue
            for port, peer in links[tor]:
                if check and not failures.transmission_ok(
                    tor, port, peer, port
                ):
                    continue
                used = self._serve_relay(tor, peer, start_ns, 0, budget)
                used += self._serve_direct(tor, peer, start_ns, used, budget)
                if self.rotor.vlb_relay and used < budget:
                    self._offload_indirect(tor, peer, start_ns, used, budget)
        self.tracker.flush_completions()
        self._step += 1
        if tracer is not None:
            tracer.count("slices")
            if tracer.gauge_due(int(self.now_ns)):
                tracer.sample(
                    int(self.now_ns),
                    queued_bytes=self.total_queued_bytes,
                    relay_bytes=sum(self._relay_pending),
                )

    step = step_slice

    # ------------------------------------------------------------------
    # slice timing
    # ------------------------------------------------------------------

    def _packet_start_ns(self, slice_start_ns: float, k: int) -> float:
        """Start of the k-th packet opportunity inside one slice."""
        return (
            slice_start_ns
            + self.rotor.reconfiguration_delay_ns
            + k * self._tx_ns
        )

    def _packet_deliver_ns(self, slice_start_ns: float, k: int) -> float:
        """Arrival time of the k-th packet at the receiving ToR."""
        return (
            self._packet_start_ns(slice_start_ns, k)
            + self._tx_ns
            + self.config.propagation_ns
        )

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------

    def _enqueue(self, flow: Flow) -> None:
        queue = self._direct[flow.src].get(flow.dst)
        if queue is None:
            queue = PiasDestQueue(
                self._band_limits, enabled=bool(self._band_limits)
            )
            self._direct[flow.src][flow.dst] = queue
        queue.enqueue_flow(flow)
        self._direct_pending[flow.src] += flow.size_bytes

    # ------------------------------------------------------------------
    # the three RotorLB service steps
    # ------------------------------------------------------------------

    def _transmit(
        self,
        queue: PiasDestQueue,
        peer: int,
        start_ns: float,
        offset: int,
        budget: int,
        *,
        band: int | None = None,
    ) -> tuple[int, int]:
        """Drain one queue toward the connected peer; (slots used, bytes).

        ``band=None`` drains in PIAS order (direct queues); an explicit
        band restricts the drain to it *and* stops at an ineligible head
        instead of idling slots away — which is what the relay step needs:
        a relay chunk handed over this very slice is eligible only from
        the next slice boundary, and burning the budget waiting for it
        would starve the pair's direct backlog.
        """
        sent = 0

        def deliver(flow: Flow, num_bytes: int, last_slot: int) -> None:
            nonlocal sent
            sent += num_bytes
            deliver_ns = self._packet_deliver_ns(start_ns, offset + last_slot)
            self.tracker.deliver(flow, num_bytes, deliver_ns)
            if self.bandwidth is not None:
                self.bandwidth.record(("rx", peer), num_bytes, deliver_ns)

        def slot_start(k: int) -> float:
            return self._packet_start_ns(start_ns, offset + k)

        if band is None:
            used = queue.drain_slots(
                num_slots=budget - offset,
                payload_bytes=self.payload_bytes,
                slot_start_ns=slot_start,
                deliver=deliver,
            )
        else:
            used = queue.drain_band_slots(
                band=band,
                num_slots=budget - offset,
                payload_bytes=self.payload_bytes,
                slot_start_ns=slot_start,
                deliver=deliver,
            )
        return used, sent

    def _serve_relay(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> int:
        """Second Valiant hop: drain buffered relay bytes destined to peer."""
        queue = self._relay[tor].get(peer)
        if queue is None or queue.is_empty:
            return 0
        used, sent = self._transmit(
            queue, peer, start_ns, offset, budget, band=0
        )
        self._relay_pending[tor] -= sent
        return used

    def _serve_direct(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> int:
        """Direct one-hop transmissions to the connected peer, PIAS order."""
        if offset >= budget:
            return 0
        queue = self._direct[tor].get(peer)
        if queue is None or queue.is_empty:
            return 0
        used, sent = self._transmit(queue, peer, start_ns, offset, budget)
        self._direct_pending[tor] -= sent
        return used

    def _offload_indirect(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> None:
        """First Valiant hop: hand leftover capacity's worth of lowest-band
        backlog for other destinations to ``peer`` as the intermediate.

        Destinations are walked in a fixed ring order from ``peer`` so the
        engine stays deterministic without any randomness; direct traffic
        for ``peer`` itself was already served and never detours.
        """
        n = self.config.num_tors
        queues = self._direct[tor]
        lowest_band = len(self._band_limits)
        for step in range(1, n):
            if offset >= budget:
                return
            dst = (peer + step) % n
            if dst == tor or dst == peer:
                continue
            queue = queues.get(dst)
            if queue is None or queue.is_empty:
                continue
            moved = 0
            relay_queue = self._relay[peer].get(dst)

            def hand_over(flow: Flow, num_bytes: int, last_slot: int) -> None:
                nonlocal moved, relay_queue
                moved += num_bytes
                arrival_ns = self._packet_deliver_ns(
                    start_ns, offset + last_slot
                )
                if relay_queue is None:
                    relay_queue = PiasDestQueue(thresholds=(), enabled=False)
                    self._relay[peer][dst] = relay_queue
                # Store-and-forward: a relayed chunk becomes forwardable at
                # the next slice boundary at the earliest, so the outcome
                # never depends on the order ToRs are iterated in.
                relay_queue.enqueue_bytes(
                    flow,
                    num_bytes,
                    band=0,
                    eligible_ns=max(arrival_ns, start_ns + self.slice_ns),
                )
                if self.bandwidth is not None:
                    self.bandwidth.record(
                        ("relay", peer), num_bytes, arrival_ns
                    )

            used = queue.drain_band_slots(
                band=lowest_band,
                num_slots=budget - offset,
                payload_bytes=self.payload_bytes,
                slot_start_ns=lambda k: self._packet_start_ns(
                    start_ns, offset + k
                ),
                deliver=hand_over,
            )
            # The bytes changed ToRs but stayed in the fabric: they move
            # from the source's direct backlog to the peer's relay buffer.
            self._direct_pending[tor] -= moved
            self._relay_pending[peer] += moved
            offset += used
