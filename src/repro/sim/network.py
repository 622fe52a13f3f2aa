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
updated on enqueue/drain rather than re-summed per epoch, and the run loops
fast-forward over epochs in which provably nothing can happen.  Both are
exact: a fixed seed produces bit-identical results with them on or off.

Traffic enters through a flow source (DESIGN.md section 11): the default
materialized source holds the whole workload sorted in memory, while
``stream=True`` pulls arrivals lazily from an arrival-ordered iterator and
pairs with a bounded-memory tracker, so million-flow traces run at
O(flows in flight) residency.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from time import perf_counter

from ..core.matching import Match, NegotiaToRMatcher
from ..core.pipeline import PipelinedScheduler
from ..topology.base import FlatTopology
from .buffers import ReceiverBuffer
from .config import EpochTiming, SimConfig
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow, FlowTracker
from .metrics import BandwidthRecorder, MatchRatioRecorder, RunSummary
from .observability import EpochStats, EpochStatsRecorder
from .queues import PiasDestQueue
from .source import MaterializedFlowSource, StreamingFlowSource


class NegotiaToRSimulator:
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
        self._epoch_ns = self.timing.epoch_ns
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
        self.failures = failure_model or LinkFailureModel(
            config.num_tors, config.ports_per_tor
        )
        self._failure_events = (
            failure_plan.sorted_events() if failure_plan is not None else []
        )
        self._next_failure_event = 0
        self.match_recorder = match_recorder
        self.bandwidth = bandwidth_recorder
        self._record_pairs = record_pair_bandwidth
        # Telemetry (DESIGN.md section 14): purely observational — spans,
        # counters, and cadenced gauges.  Every hook sits behind one
        # ``is not None`` check so the traced and untraced engines step
        # through identical simulation state.
        self._tracer = tracer

        # Streaming mode (DESIGN.md section 11): arrivals are pulled from an
        # iterator on demand and the tracker folds completions into online
        # accumulators instead of retaining Flow objects, so memory stays
        # O(flows in flight) however long the trace is.
        self._stream = stream
        if stream:
            self.tracker = FlowTracker(
                config.num_tors,
                retain_flows=False,
                mice_threshold_bytes=config.mice_threshold_bytes,
                reservoir_seed=config.seed,
            )
            self._source = StreamingFlowSource(flows)
        else:
            self.tracker = FlowTracker(config.num_tors)
            self._source = MaterializedFlowSource(flows)
            self.tracker.register_all(self._source.flows)

        n = config.num_tors
        # Per-(src, dst) PIAS queues, created on a pair's first enqueue
        # (:meth:`_queue_for`), so a sparse workload never pays for the
        # n^2 - n pair space.  They are kept once created: the stateful
        # variant reads each queue's monotonic enqueue counter.
        self._queues: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._active_pairs: set[tuple[int, int]] = set()
        # Incremental accounting (DESIGN.md section 6): total backlog and the
        # set of pairs above the REQUEST threshold are updated at every
        # enqueue/drain instead of being re-derived from the queues.
        self._queued_bytes = 0
        self._request_threshold = config.epoch.request_threshold_bytes
        self._request_ready: set[tuple[int, int]] = set()
        self._ff_enabled = config.idle_fast_forward
        self._epochs_fast_forwarded = 0
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
        self._stats: EpochStatsRecorder | None = None
        self._phase_bytes = [0, 0]  # piggybacked, scheduled (per epoch)
        self._epoch = 0

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Index of the next epoch to simulate."""
        return self._epoch

    @property
    def now_ns(self) -> float:
        """Start time of the next epoch."""
        return self._epoch * self._epoch_ns

    @property
    def core_used(self) -> str:
        """Which engine core this instance runs."""
        return "scalar"

    def attach_stats_recorder(self, recorder: EpochStatsRecorder) -> None:
        """Record per-epoch scheduler statistics into ``recorder``."""
        self._stats = recorder

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
            queue = row[dst] = PiasDestQueue(
                self.config.pias_thresholds, self.config.priority_queue_enabled
            )
        return queue

    @property
    def total_queued_bytes(self) -> int:
        """Bytes currently waiting in all per-destination queues."""
        return self._queued_bytes

    @property
    def fast_forwarded_epochs(self) -> int:
        """Idle epochs the run loops skipped without stepping them."""
        return self._epochs_fast_forwarded

    # ------------------------------------------------------------------
    # run loops
    # ------------------------------------------------------------------

    def run(self, duration_ns: float) -> None:
        """Simulate whole epochs until ``duration_ns`` is covered.

        Loop control is an exact *integer* epoch budget: the float duration
        is converted once (via :meth:`_epoch_ceil`, which is exact against
        the engine's own ``epoch * epoch_ns`` arithmetic) and the loop
        compares integer epoch counters, so hour-long horizons cannot
        accumulate float drift in the stepping decision.
        """
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        target_epoch = self._epoch_ceil(duration_ns)
        while self._epoch < target_epoch:
            self._maybe_fast_forward(duration_ns)
            if self._epoch >= target_epoch:
                break
            self.step_epoch()

    def run_until_complete(self, max_ns: float) -> bool:
        """Simulate until every flow completes (or ``max_ns``).

        Returns True when all flows completed.  In streaming mode the
        source must also be exhausted — flows the engine has not pulled yet
        are still outstanding work.  Like :meth:`run`, the cutoff is held
        as an integer epoch budget.
        """
        if max_ns <= 0:
            raise ValueError("max_ns must be positive")
        limit_epoch = self._epoch_ceil(max_ns)
        while (
            self._source.next_arrival_ns is not None
            or not self.tracker.all_complete
        ):
            if self._epoch >= limit_epoch:
                return False
            self._maybe_fast_forward(max_ns)
            if self._epoch >= limit_epoch:
                return False
            self.step_epoch()
        return True

    # ------------------------------------------------------------------
    # idle-epoch fast-forward (DESIGN.md section 7)
    # ------------------------------------------------------------------

    def _maybe_fast_forward(self, limit_ns: float) -> None:
        """Jump ``_epoch`` over epochs in which provably nothing happens.

        Requires the engine to be fully idle: no queued data, a drained
        scheduling pipeline, failure detection in steady state, and no
        subclass-held in-flight state.  The jump lands on the earliest epoch
        that an arrival, a failure/repair event, or the run limit can touch,
        so every skipped epoch would have been an exact no-op.
        """
        if (
            not self._ff_enabled
            or self._active_pairs
            or self._stats is not None
            or not self.failures.is_quiescent
            or not getattr(self.scheduler, "is_idle", False)
            or not self._subclass_state_idle()
        ):
            return
        target = self._next_interesting_epoch(self._epoch_ceil(limit_ns))
        if target > self._epoch:
            self._epochs_fast_forwarded += target - self._epoch
            self._epoch = target

    def _subclass_state_idle(self) -> bool:
        """Hook for engine subclasses holding their own in-flight state.

        Fast-forward is only legal when this returns True; the selective
        relay overrides it while relay requests or grants are pending.
        """
        return True

    def _epoch_ceil(self, time_ns: float) -> int:
        """Smallest epoch index whose start time is at or after ``time_ns``.

        The while-loops absorb float rounding in the division so the result
        is exact against the engine's own ``epoch * epoch_ns`` arithmetic.
        """
        epoch_ns = self.timing.epoch_ns
        epoch = math.ceil(time_ns / epoch_ns)
        while epoch > 0 and (epoch - 1) * epoch_ns >= time_ns:
            epoch -= 1
        while epoch * epoch_ns < time_ns:
            epoch += 1
        return epoch

    def _next_interesting_epoch(self, limit_epoch: int) -> int:
        """First epoch at which a pending arrival or failure event matters.

        A skipped epoch must not even *enqueue* an arrival: engine
        subclasses (the selective relay) act on newly active pairs right
        after the mid-epoch injection, so the jump stops at the first epoch
        whose injection bound (its end time) reaches the next arrival — see
        DESIGN.md section 7.  A failure event fires at the first epoch
        whose start is at or after its timestamp.
        """
        epoch_ns = self.timing.epoch_ns
        target = limit_epoch
        arrival = self._source.next_arrival_ns
        if arrival is not None:
            # Keep every epoch whose injection bound reaches the arrival.
            # The bound must be the exact float expression step_epoch uses —
            # (epoch * epoch_ns) + epoch_ns — because for non-dyadic epoch
            # lengths it can differ by 1 ulp from (epoch + 1) * epoch_ns,
            # and a mismatch would skip an epoch the stepped run injects in.
            epoch = int(arrival // epoch_ns)
            while epoch > 0 and (epoch - 1) * epoch_ns + epoch_ns >= arrival:
                epoch -= 1
            target = min(target, epoch)
        events = self._failure_events
        if self._next_failure_event < len(events):
            target = min(
                target, self._epoch_ceil(events[self._next_failure_event].time_ns)
            )
        return max(target, self._epoch)

    # ------------------------------------------------------------------
    # one epoch
    # ------------------------------------------------------------------

    def step_epoch(self) -> list[Match]:
        """Simulate one full epoch; returns the matching it used."""
        epoch = self._epoch
        start_ns = self.now_ns
        timing = self.timing
        tracer = self._tracer
        if tracer is not None:
            t_phase = perf_counter()

        self._apply_failure_events(start_ns)
        self.failures.tick_epoch()

        # Arrivals before the epoch are visible to the REQUEST decision.
        self._inject_arrivals(start_ns)
        fresh_requests = self._compute_requests(start_ns)
        delivered_requests = self._deliver_requests(fresh_requests, epoch)

        matches, grants_answered, accepts = self.scheduler.advance(
            delivered_requests,
            deliver_grants=lambda grants: self._deliver_grants(grants, epoch),
            rx_usable=self._rx_usable(start_ns),
            tx_usable=(
                self.failures.detected_egress_ok
                if self.failures.any_detected
                else None
            ),
        )
        if self.match_recorder is not None and grants_answered > 0:
            self.match_recorder.record(epoch, grants_answered, accepts)

        # Arrivals inside the epoch become eligible at their arrival time.
        self._inject_arrivals(start_ns + timing.epoch_ns)

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
            tracer.count("matches", len(matches))

        self._phase_bytes = [0, 0]
        if timing.piggyback_enabled:
            self._run_predefined_phase(epoch, start_ns)
            if tracer is not None:
                now = perf_counter()
                tracer.add_span("piggyback", now - t_phase)
                t_phase = now
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
        if relay_assignments:
            self._run_relay_transmissions(relay_assignments, matches, start_ns)
            if tracer is not None:
                tracer.add_span("relay", perf_counter() - t_phase)

        if self._stats is not None:
            self._stats.record(
                EpochStats(
                    epoch=epoch,
                    active_pairs=len(self._active_pairs),
                    requests_sent=sum(
                        len(dsts) for dsts in fresh_requests.values()
                    ),
                    matches=len(matches),
                    matched_pairs=len({(m.src, m.dst) for m in matches}),
                    queued_bytes=self.total_queued_bytes,
                    piggybacked_bytes=self._phase_bytes[0],
                    scheduled_bytes=self._phase_bytes[1],
                )
            )
        self.tracker.flush_completions()
        self._epoch += 1
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

    def _apply_failure_events(self, now_ns: float) -> None:
        events = self._failure_events
        while (
            self._next_failure_event < len(events)
            and events[self._next_failure_event].time_ns <= now_ns
        ):
            self.failures.apply(events[self._next_failure_event])
            self._next_failure_event += 1

    def _inject_arrivals(self, before_ns: float) -> None:
        # Inclusive bound: a flow arriving exactly at an epoch boundary is
        # visible to that epoch's REQUEST decision.
        source = self._source
        arrival = source.next_arrival_ns
        if arrival is None or arrival > before_ns:
            return
        threshold = self._request_threshold
        # Streaming flows are only known to the tracker once they enter the
        # fabric; materialized flows were all registered at construction.
        register = self.tracker.register if self._stream else None
        while arrival is not None and arrival <= before_ns:
            flow = source.pop()
            if register is not None:
                register(flow)
            queue = self._queue_for(flow.src, flow.dst)
            queue.enqueue_flow(flow)
            pair = (flow.src, flow.dst)
            self._active_pairs.add(pair)
            self._queued_bytes += flow.size_bytes
            if queue.pending_bytes > threshold:
                self._request_ready.add(pair)
            arrival = source.next_arrival_ns

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
        With no actual failure the requests pass through untouched.
        """
        failures = self.failures
        if not failures.any_failed:
            return requests_by_dst
        delivered: dict[int, dict[int, object]] = {}
        topology = self.topology
        for dst, srcs in requests_by_dst.items():
            for src, payload in srcs.items():
                _slot, port = topology.predefined_assignment(src, dst, epoch)
                if not failures.transmission_ok(src, port, dst, port):
                    continue
                delivered.setdefault(dst, {})[src] = payload
        return delivered

    def _deliver_grants(
        self, grants_by_src: dict[int, list[tuple[int, int]]], epoch: int
    ) -> dict[int, list[tuple[int, int]]]:
        """Route GRANTs (dst -> src messages) through the predefined phase."""
        if not self.failures.any_failed:
            return grants_by_src
        delivered: dict[int, list[tuple[int, int]]] = {}
        failures = self.failures
        topology = self.topology
        for src, grants in grants_by_src.items():
            kept = []
            for dst, port in grants:
                _slot, msg_port = topology.predefined_assignment(dst, src, epoch)
                if failures.transmission_ok(dst, msg_port, src, msg_port):
                    kept.append((dst, port))
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
        self._phase_bytes[0] += piggybacked
        self._queued_bytes -= piggybacked
        for pair in emptied:
            self._active_pairs.discard(pair)

    def _run_scheduled_phase(self, matches: list[Match], start_ns: float) -> None:
        """Drain queues along the accepted matching, one packet per slot."""
        timing = self.timing
        payload = timing.data_payload_bytes
        propagation = self.config.propagation_ns
        failures = self.failures
        check = failures.any_failed
        tracker = self.tracker
        scheduler = self.scheduler

        # A pair may be matched on several ports (parallel network): its
        # queue is drained over the union of the ports' slots, filling all
        # ports of a timeslot before moving to the next (in-order delivery,
        # section 3.6.5).
        ports_by_pair: dict[tuple[int, int], list[int]] = {}
        for match in matches:
            ports_by_pair.setdefault((match.src, match.dst), []).append(match.port)

        slot_ns = timing.scheduled_slot_ns
        phase_start = start_ns + timing.predefined_ns
        for (src, dst), ports in ports_by_pair.items():
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
            sent = 0

            def deliver(flow: Flow, num_bytes: int, last_virtual_slot: int) -> None:
                nonlocal sent
                sent += num_bytes
                slot_index = last_virtual_slot // lanes
                deliver_ns = phase_start + (slot_index + 1) * slot_ns + propagation
                tracker.deliver(flow, num_bytes, deliver_ns)
                self._record_bandwidth(src, dst, num_bytes, deliver_ns)

            queue.drain_slots(
                num_slots=timing.scheduled_slots * lanes,
                payload_bytes=payload,
                slot_start_ns=lambda v: phase_start + (v // lanes) * slot_ns,
                deliver=deliver,
            )
            if sent:
                scheduler.observe_sent(src, dst, sent)
                self._phase_bytes[1] += sent
                self._queued_bytes -= sent
            pending = queue.pending_bytes
            if pending == 0:
                self._active_pairs.discard((src, dst))
            if pending <= self._request_threshold:
                self._request_ready.discard((src, dst))

    def _rx_usable(self, now_ns: float):
        """GRANT-side admission: detected failures plus buffer headroom.

        Returns None — "every port usable" — in the common unconstrained
        case so the matcher can skip per-port predicate calls entirely.
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

    def _plan_relay(self, epoch: int, start_ns: float, matches: list[Match]):
        """Hook for the traffic-aware selective relay; the base engine never
        relays (all data is one-hop, section 3.5)."""
        return []

    def _run_relay_transmissions(
        self, assignments, matches: list[Match], start_ns: float
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
        busy_tx = {(m.src, m.port) for m in matches}
        busy_rx = {(m.dst, m.port) for m in matches}
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
            moved = 0

            def hand_over(flow: Flow, num_bytes: int, last_slot: int) -> None:
                nonlocal moved
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

            queue.drain_band_slots(
                band=lowest_band,
                num_slots=slots,
                payload_bytes=payload,
                slot_start_ns=lambda v: phase_start + v * slot_ns,
                deliver=hand_over,
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

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self, duration_ns: float | None = None) -> RunSummary:
        """Headline metrics over ``duration_ns`` (default: simulated time).

        Works in both tracker modes: ``num_flows`` counts the flows that
        entered the fabric (equal to the trace size once the run has
        covered every arrival) in *both* modes, so a streaming re-run of a
        materialized workload matches field by field, and in streaming mode
        the mice FCT stats come from the online accumulators (see
        :meth:`FlowTracker.mice_fct_summary`).
        """
        duration = duration_ns if duration_ns is not None else self.now_ns
        mice_p99, mice_mean = self.tracker.mice_fct_summary(
            self.config.mice_threshold_bytes
        )
        return RunSummary(
            duration_ns=duration,
            epoch_ns=self.timing.epoch_ns,
            num_flows=self._source.popped,
            num_completed=self.tracker.num_completed,
            goodput_normalized=self.tracker.goodput_normalized(
                duration, self.config.host_aggregate_gbps
            ),
            goodput_gbps=self.tracker.goodput_gbps(duration),
            mice_fct_p99_ns=mice_p99,
            mice_fct_mean_ns=mice_mean,
        )
