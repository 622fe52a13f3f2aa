"""The NegotiaToR network simulator (sections 3.3 and 3.4).

An epoch-driven engine: every epoch it

1. applies scheduled failure/repair events and advances failure detection,
2. injects flow arrivals into per-destination PIAS queues,
3. computes this epoch's REQUESTs from queue occupancy (binary demand with
   the 3-piggyback-packet threshold of section 3.4.1),
4. delivers scheduling messages across the predefined phase — a message is
   lost when the (slot, port) link its pair rides this epoch is down — and
   advances the 3-epoch GRANT/ACCEPT pipeline,
5. serves one piggybacked packet per ToR pair in the predefined phase (the
   scheduling-delay bypass of section 3.4.1), and
6. drains per-destination queues over the scheduled phase according to the
   accepted matching, one packet per (port, timeslot).

All transmissions are one-hop; conflict-freedom is guaranteed by the matching
(validated in tests) and the predefined-phase permutation schedule.

Two hot-path mechanisms keep large sweeps tractable (DESIGN.md sections 6-7):
queue backlog and request-readiness are maintained as running counters
updated on enqueue/drain rather than re-summed per epoch, and the kernel's
run loops (:mod:`repro.sim.kernel`) fast-forward over epochs in which
provably nothing can happen.  Both are exact: a fixed seed produces
bit-identical results with them on or off.

Traffic enters through the kernel's flow source (DESIGN.md section 11):
the default materialized source holds the whole workload sorted in memory,
while ``stream=True`` pulls arrivals lazily from an arrival-ordered
iterator and pairs with a bounded-memory tracker, so million-flow traces
run at O(flows in flight) residency.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from time import perf_counter

from ..core.matching import (
    Match, NegotiaToRMatcher, PairMatch, count_ports, per_port_matches,
)
from ..core.pipeline import GrantsBySrc, PipelinedScheduler
from ..topology.base import FlatTopology
from .buffers import ReceiverBuffer
from .config import EpochTiming, SimConfig
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow
from .kernel import StepKernel
from .metrics import BandwidthRecorder, MatchRatioRecorder
from .queues import PiasDestQueue


def _every_grant_arrives(grants_by_src: GrantsBySrc) -> GrantsBySrc:
    """Grant delivery while no link is down: nothing is lost."""
    return grants_by_src


class NegotiaToRSimulator(StepKernel):
    """Simulates a NegotiaToR fabric over a finite set of flows."""

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        scheduler: PipelinedScheduler | None = None,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
        match_recorder: MatchRatioRecorder | None = None,
        bandwidth_recorder: BandwidthRecorder | None = None,
        record_pair_bandwidth: bool = False,
        stream: bool = False,
        tracer=None,
    ) -> None:
        if topology.num_tors != config.num_tors:
            raise ValueError("topology and config disagree on num_tors")
        if topology.ports_per_tor != config.ports_per_tor:
            raise ValueError("topology and config disagree on ports_per_tor")
        self.config = config
        self.topology = topology
        self.timing = EpochTiming.derive(
            config.epoch, config.uplink_gbps, topology.predefined_slots
        )
        super().__init__(
            config,
            flows,
            step_ns=self.timing.epoch_ns,
            stream=stream,
            fast_forward=config.idle_fast_forward,
            epoch_clock=True,
            failure_model=failure_model,
            failure_plan=failure_plan,
        )
        # Per-slot start/end offsets from epoch start, fixed for the whole
        # run; the predefined-phase loop adds the epoch start per pair
        # (keeping the original operand grouping, so times stay bit-exact)
        # instead of calling the timing methods per pair per epoch.
        self._predef_slot_starts = tuple(
            self.timing.predefined_slot_start(s)
            for s in range(self.timing.predefined_slots)
        )
        self._predef_slot_ends = tuple(
            self.timing.predefined_slot_end(s)
            for s in range(self.timing.predefined_slots)
        )
        self._rng = random.Random(config.seed)
        if scheduler is None:
            scheduler = PipelinedScheduler(
                NegotiaToRMatcher(topology, self._rng)
            )
        self.scheduler = scheduler
        self.match_recorder = match_recorder
        self.bandwidth = bandwidth_recorder
        self._record_pairs = record_pair_bandwidth
        # Telemetry (DESIGN.md section 14): purely observational — spans,
        # counters, and cadenced gauges.  Every hook sits behind one
        # ``is not None`` check so the traced and untraced engines step
        # through identical simulation state.
        self._tracer = tracer

        n = config.num_tors
        # Per-(src, dst) PIAS queues, created on a pair's first enqueue
        # (:meth:`_queue_for`), so a sparse workload never pays for the
        # n^2 - n pair space.  They are kept once created: the stateful
        # variant reads each queue's monotonic enqueue counter.
        self._queues: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._new_queue = PiasDestQueue.maker(
            config.pias_thresholds, config.priority_queue_enabled
        )
        self._active_pairs: set[tuple[int, int]] = set()
        # Incremental accounting (DESIGN.md section 6): total backlog and the
        # set of pairs above the REQUEST threshold are updated at every
        # enqueue/drain instead of being re-derived from the queues.
        self._queued_bytes = 0
        self._request_threshold = config.epoch.request_threshold_bytes
        self._request_ready: set[tuple[int, int]] = set()
        # Base-scheduler requests are always binary (payload None): skip the
        # per-pair request_payload hook unless a variant overrides it.
        self._binary_requests = (
            type(self.scheduler).request_payload
            is PipelinedScheduler.request_payload
        )
        if config.receiver_buffer_bytes is not None:
            # Section 3.6.5: destinations stop granting when their host-side
            # receive buffer is nearly full.
            self._rx_buffers = [
                ReceiverBuffer(
                    config.receiver_buffer_bytes, config.host_aggregate_gbps
                )
                for _ in range(n)
            ]
        else:
            self._rx_buffers = None

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------

    epoch = StepKernel.steps
    fast_forwarded_epochs = StepKernel.fast_forwarded_steps

    def queue(self, src: int, dst: int) -> PiasDestQueue:
        """The per-destination queue of an ordered pair (for inspection)."""
        if src == dst:
            raise ValueError("no queue from a ToR to itself")
        return self._queue_for(src, dst)

    def _queue_for(self, src: int, dst: int) -> PiasDestQueue:
        """The pair's queue, created empty on first use."""
        row = self._queues[src]
        queue = row.get(dst)
        if queue is None:
            queue = row[dst] = self._new_queue()
        return queue

    @property
    def total_queued_bytes(self) -> int:
        """Bytes currently waiting in all per-destination queues."""
        return self._queued_bytes

    # ------------------------------------------------------------------
    # kernel bindings (sim/kernel.py, DESIGN.md section 7)
    # ------------------------------------------------------------------

    step_counter = "epochs"
    run = StepKernel.run
    run_until_complete = StepKernel.run_until_complete
    summary = StepKernel.summary

    def is_idle(self) -> bool:
        """No queued data and a drained scheduling pipeline.

        Schedulers without an ``is_idle`` property are never skipped.
        """
        return not self._active_pairs and getattr(
            self.scheduler, "is_idle", False
        )

    # ------------------------------------------------------------------
    # one epoch
    # ------------------------------------------------------------------

    def step_epoch(self) -> list[Match]:
        """Simulate one epoch; returns the matching it used, one Match per port."""
        return per_port_matches(self.step())

    def step(self) -> list[PairMatch]:
        """Simulate one full epoch; returns the matching it used as
        ``(src, dst, ports)`` groups, which the run loops discard."""
        epoch = self._step
        start_ns = self.now_ns
        timing = self.timing
        tracer = self._tracer
        if tracer is not None:
            t_phase = perf_counter()

        self._apply_failures(start_ns)
        failures = self.failures

        # Arrivals before the epoch are visible to the REQUEST decision.
        self._inject_arrivals(start_ns)
        fresh_requests = self._compute_requests(start_ns)
        # Scheduling messages are lost only on a link that is actually down.
        failed = failures.any_failed
        matches, grants_answered, accepts = self.scheduler.advance(
            (
                self._deliver_requests(fresh_requests, epoch)
                if failed
                else fresh_requests
            ),
            deliver_grants=(
                (lambda grants: self._deliver_grants(grants, epoch))
                if failed
                else _every_grant_arrives
            ),
            rx_usable=(
                self._rx_usable(start_ns)
                if self._rx_buffers is not None or failures.any_detected
                else None
            ),
            tx_usable=(
                failures.detected_egress_ok if failures.any_detected else None
            ),
        )
        if self.match_recorder is not None and grants_answered > 0:
            self.match_recorder.record(epoch, grants_answered, accepts)

        # Arrivals inside the epoch become eligible at their arrival time.
        self._inject_arrivals(start_ns + self._step_ns)

        if tracer is not None:
            now = perf_counter()
            tracer.add_span("matching", now - t_phase)
            t_phase = now
            tracer.count("epochs")
            tracer.count(
                "requests",
                int(sum(len(dsts) for dsts in fresh_requests.values())),
            )
            tracer.count("grants", int(grants_answered))
            tracer.count("accepts", int(accepts))
            tracer.count("matches", count_ports(matches))
            delivered = self.tracker.delivered_bytes

        if timing.piggyback_enabled:
            self._run_predefined_phase(epoch, start_ns)
            if tracer is not None:
                now = perf_counter()
                tracer.add_span("piggyback", now - t_phase)
                t_phase = now
                tracer.count(
                    "piggyback_bytes", self.tracker.delivered_bytes - delivered
                )
                delivered = self.tracker.delivered_bytes
        relay_assignments = self._plan_relay(epoch, start_ns, matches)
        if tracer is not None:
            now = perf_counter()
            tracer.add_span("relay", now - t_phase)
            t_phase = now
        self._run_scheduled_phase(matches, start_ns)
        if tracer is not None:
            now = perf_counter()
            tracer.add_span("drain", now - t_phase)
            t_phase = now
            tracer.count(
                "scheduled_bytes", self.tracker.delivered_bytes - delivered
            )
        if relay_assignments:
            self._run_relay_transmissions(relay_assignments, matches, start_ns)
            if tracer is not None:
                tracer.add_span("relay", perf_counter() - t_phase)

        self.tracker.flush_completions()
        self._step += 1
        if tracer is not None and tracer.gauge_due(int(self.now_ns)):
            tracer.sample(
                int(self.now_ns),
                queued_bytes=self._queued_bytes,
                active_pairs=len(self._active_pairs),
            )
        return matches

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _enqueue(self, flow: Flow) -> None:
        pair = (flow.src, flow.dst)
        queue = self._queue_for(flow.src, flow.dst)
        queue.enqueue_flow(flow)
        self._active_pairs.add(pair)
        self._queued_bytes += flow.size_bytes
        if queue.pending_bytes > self._request_threshold:
            self._request_ready.add(pair)

    def _compute_requests(self, now_ns: float) -> dict[int, dict[int, object]]:
        """REQUEST step: binary demand above the piggyback threshold.

        ``_request_ready`` holds exactly the pairs whose pending bytes
        exceed the threshold (maintained incrementally at every
        enqueue/drain), so no per-pair byte check happens here.  Requests
        are returned keyed by destination — the shape GRANT consumes — and
        the payload hook is skipped entirely for the base scheduler, whose
        requests are always binary (None).
        """
        requests: dict[int, dict[int, object]] = {}
        if self._binary_requests:
            for src, dst in self._request_ready:
                entry = requests.get(dst)
                if entry is None:
                    requests[dst] = {src: None}
                else:
                    entry[src] = None
            return requests
        payload_of = self.scheduler.request_payload
        queues = self._queues
        for src, dst in self._request_ready:
            payload = payload_of(src, dst, queues[src][dst], now_ns)
            entry = requests.get(dst)
            if entry is None:
                requests[dst] = {src: payload}
            else:
                entry[src] = payload
        return requests

    def _deliver_requests(
        self, requests_by_dst: dict[int, dict[int, object]], epoch: int
    ) -> dict[int, dict[int, object]]:
        """Route REQUESTs through this epoch's predefined phase.

        A request from src to dst rides the (slot, port) link of their
        predefined meeting; it is lost when that link is actually down.
        Called only while some link is down.
        """
        failures = self.failures
        delivered: dict[int, dict[int, object]] = {}
        topology = self.topology
        for dst, srcs in requests_by_dst.items():
            for src, payload in srcs.items():
                _slot, port = topology.predefined_assignment(src, dst, epoch)
                if not failures.transmission_ok(src, port, dst, port):
                    continue
                delivered.setdefault(dst, {})[src] = payload
        return delivered

    def _deliver_grants(self, grants_by_src: GrantsBySrc, epoch: int) -> GrantsBySrc:
        """Route GRANTs (dst -> src messages) through the predefined phase.

        A grant's ports share one message, so it arrives or is lost whole.
        Called only while some link is down.
        """
        delivered: GrantsBySrc = {}
        failures = self.failures
        topology = self.topology
        for src, grants in grants_by_src.items():
            kept = []
            for grant in grants:
                _slot, msg_port = topology.predefined_assignment(grant[0], src, epoch)
                if failures.transmission_ok(grant[0], msg_port, src, msg_port):
                    kept.append(grant)
            if kept:
                delivered[src] = kept
        return delivered

    def _run_predefined_phase(self, epoch: int, start_ns: float) -> None:
        """Serve one piggybacked packet per pair with pending data.

        This is the engine's hottest loop — one iteration per active pair
        per epoch — so the (slot, port) assignment comes from the
        topology's memoized per-epoch table and all slot times are
        precomputed once per epoch.
        """
        timing = self.timing
        payload = timing.piggyback_payload_bytes
        propagation = self.config.propagation_ns
        failures = self.failures
        check = failures.any_failed
        assign = self.topology.assignment_for_epoch(epoch)
        tracker = self.tracker
        queues = self._queues
        threshold = self._request_threshold
        ready = self._request_ready
        record = self._rx_buffers is not None or self.bandwidth is not None
        slot_starts = self._predef_slot_starts
        slot_ends = self._predef_slot_ends
        piggybacked = 0
        emptied = []
        for pair in self._active_pairs:
            src, dst = pair
            slot, port = assign(src, dst)
            if check and not failures.transmission_ok(src, port, dst, port):
                continue
            queue = queues[src][dst]
            served = queue.drain_single_packet(payload, start_ns + slot_starts[slot])
            if served is None:
                continue
            flow, num_bytes = served
            deliver_ns = start_ns + slot_ends[slot] + propagation
            tracker.deliver(flow, num_bytes, deliver_ns)
            piggybacked += num_bytes
            if record:
                self._record_bandwidth(src, dst, num_bytes, deliver_ns)
            pending = queue.pending_bytes
            if pending == 0:
                emptied.append(pair)
            if pending <= threshold:
                ready.discard(pair)
        self._queued_bytes -= piggybacked
        for pair in emptied:
            self._active_pairs.discard(pair)

    def _run_scheduled_phase(self, matches: list[PairMatch], start_ns: float) -> None:
        """Drain queues along the accepted matching, one packet per slot.

        A pair may be matched on several ports (parallel network): its
        queue is drained over the union of the ports' slots, filling all
        ports of a timeslot before moving to the next (in-order delivery,
        section 3.6.5).
        """
        timing = self.timing
        payload = timing.data_payload_bytes
        propagation = self.config.propagation_ns
        failures = self.failures
        check = failures.any_failed
        tracker = self.tracker
        scheduler = self.scheduler
        record = self._rx_buffers is not None or self.bandwidth is not None
        slot_ns = timing.scheduled_slot_ns
        phase_start = start_ns + timing.predefined_ns
        for src, dst, ports in matches:
            if check:
                ports = [
                    p for p in ports if failures.transmission_ok(src, p, dst, p)
                ]
                if not ports:
                    continue
            queue = self._queues[src][dst]
            if queue.is_empty:
                continue
            lanes = len(ports)
            chunks, _used = queue.drain_slots(
                timing.scheduled_slots * lanes, payload, phase_start, slot_ns, lanes
            )
            sent = 0
            for flow, num_bytes, last_slot in chunks:
                sent += num_bytes
                deliver_ns = (
                    phase_start + (last_slot // lanes + 1) * slot_ns + propagation
                )
                tracker.deliver(flow, num_bytes, deliver_ns)
                if record:
                    self._record_bandwidth(src, dst, num_bytes, deliver_ns)
            if sent:
                scheduler.observe_sent(src, dst, sent)
                self._queued_bytes -= sent
            pending = queue.pending_bytes
            if pending == 0:
                self._active_pairs.discard((src, dst))
            if pending <= self._request_threshold:
                self._request_ready.discard((src, dst))

    def _rx_usable(self, now_ns: float):
        """GRANT-side admission: detected failures plus buffer headroom.

        Called only when receiver buffers are modelled or a failure is
        detected; with neither, every port is usable and ``step_epoch``
        passes None so the matcher skips per-port predicate calls.
        """
        buffers = self._rx_buffers
        constrained = self.failures.any_detected
        detected_ok = self.failures.detected_ingress_ok if constrained else None
        if buffers is None:
            return detected_ok
        phase_bytes = self.timing.scheduled_slots * self.timing.data_payload_bytes
        if detected_ok is None:

            def usable(tor: int, port: int) -> bool:
                return buffers[tor].has_room(phase_bytes, now_ns)

        else:

            def usable(tor: int, port: int) -> bool:
                return detected_ok(tor, port) and buffers[tor].has_room(
                    phase_bytes, now_ns
                )

        return usable

    # ------------------------------------------------------------------
    # selective relay extension points (appendix A.2.2)
    # ------------------------------------------------------------------

    def _plan_relay(self, epoch: int, start_ns: float, matches: list[PairMatch]):
        """Hook for the traffic-aware selective relay; the base engine never
        relays (all data is one-hop, section 3.5)."""
        return []

    def _run_relay_transmissions(
        self, assignments, matches: list[PairMatch], start_ns: float
    ) -> None:
        """Execute planned first-hop relay transmissions on leftover links.

        An assignment is ``(src, port, intermediate, dst, max_bytes)``: the
        source forwards lowest-band data for ``dst`` to ``intermediate``
        through an otherwise idle port pair.  Assignments are dropped when
        the port pair turns out to be occupied by the accepted matching —
        direct traffic always has priority (appendix A.2.2, step 3).
        """
        timing = self.timing
        payload = timing.data_payload_bytes
        propagation = self.config.propagation_ns
        phase_start = start_ns + timing.predefined_ns
        slot_ns = timing.scheduled_slot_ns
        busy_tx = {(src, port) for src, _dst, ports in matches for port in ports}
        busy_rx = {(dst, port) for _src, dst, ports in matches for port in ports}
        failures = self.failures
        check = failures.any_failed
        lowest_band = self.config.num_priority_bands - 1

        for src, port, intermediate, dst, max_bytes in assignments:
            if (src, port) in busy_tx or (intermediate, port) in busy_rx:
                continue
            if check and not failures.transmission_ok(
                src, port, intermediate, port
            ):
                continue
            busy_tx.add((src, port))
            busy_rx.add((intermediate, port))
            queue = self._queues[src][dst]
            relay_queue = self._queue_for(intermediate, dst)
            slots = min(
                timing.scheduled_slots,
                max(1, max_bytes // payload),
            )
            chunks, _used = queue.drain_band_slots(
                lowest_band, slots, payload, phase_start, slot_ns
            )
            moved = 0
            for flow, num_bytes, last_slot in chunks:
                moved += num_bytes
                arrival_ns = (
                    phase_start + (last_slot + 1) * slot_ns + propagation
                )
                relay_queue.enqueue_bytes(
                    flow, num_bytes, band=lowest_band, eligible_ns=arrival_ns
                )
                if self.bandwidth is not None:
                    self.bandwidth.record(
                        ("relay", intermediate), num_bytes, arrival_ns
                    )
            if moved:
                # The bytes changed queues but stayed in the fabric, so the
                # total backlog counter is untouched; only the per-pair
                # demand flags move.
                inter_pair = (intermediate, dst)
                self._active_pairs.add(inter_pair)
                if relay_queue.pending_bytes > self._request_threshold:
                    self._request_ready.add(inter_pair)
                pending = queue.pending_bytes
                if pending == 0:
                    self._active_pairs.discard((src, dst))
                if pending <= self._request_threshold:
                    self._request_ready.discard((src, dst))

    def _record_bandwidth(
        self, src: int, dst: int, num_bytes: int, time_ns: float
    ) -> None:
        if self._rx_buffers is not None:
            self._rx_buffers[dst].add(num_bytes, time_ns)
        recorder = self.bandwidth
        if recorder is None:
            return
        recorder.record(("rx", dst), num_bytes, time_ns)
        if self._record_pairs:
            recorder.record(("pair", src, dst), num_bytes, time_ns)
