"""The engine kernel: one step clock and run loop for every simulator.

All five engines advance simulated time in whole *steps* — the two
NegotiaToR cores in epochs, the oblivious engine in slots, the rotor and
adaptive engines in slices — and share everything around the step
itself, which :class:`StepKernel` owns once:

* the integer step index and ``now_ns = step * step_ns`` (a step's times
  are a pure function of its index, DESIGN.md section 2);
* exact time-to-step conversion (:meth:`StepKernel._first_step`);
* ``run`` and ``run_until_complete`` over integer step budgets;
* idle fast-forward with a single jump-target rule (DESIGN.md section 7);
* the failure model and the failure-event cursor;
* the flow source and :class:`~repro.sim.flows.FlowTracker` for
  materialized and streaming runs (DESIGN.md section 11);
* ``summary`` and ``core_used``.

An engine subclasses the kernel, calls :meth:`StepKernel.__init__` once
its step length is known, and plugs in through:

* ``step()`` — simulate one step; it must advance ``_step`` by exactly
  one, and the run loops discard what it returns;
* ``_enqueue(flow)`` — put one arriving flow into the engine's queues;
* ``is_idle()`` — the engine's own fast-forward preconditions;
* ``step_counter`` — the tracer counter one step ticks once, which the
  kernel also ticks for every skipped step;
* ``on_skip(n)`` — any further bookkeeping for ``n`` steps about to be
  skipped;
* ``epoch_clock`` — whether arrivals are injected through the step's
  end (the negotiator epochs) or only up to its start (the slot
  engines), which also decides whether summaries report an epoch length.

The three circuit baselines (oblivious, rotor, adaptive) subclass
:class:`CircuitKernel`, which adds the queues, delivery paths and step
tail they share.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ..topology.base import FlatTopology
from ..topology.thinclos import ThinClos
from .config import SimConfig, transmit_ns
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow, FlowTracker
from .metrics import BandwidthRecorder, RunSummary
from .queues import PiasDestQueue
from .source import MaterializedFlowSource, StreamingFlowSource


class StepKernel:
    """Step clock, run loops, idle fast-forward, flow source and tracker."""

    step_counter: str
    # The engine's EngineTracer, if one is attached.
    _tracer = None

    def __init__(
        self,
        config: SimConfig,
        flows: Iterable[Flow],
        *,
        step_ns: float,
        stream: bool,
        fast_forward: bool,
        vectorized: bool = False,
        epoch_clock: bool = False,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
    ) -> None:
        """Start the clock at step 0.

        ``fast_forward`` is whether the run loops may skip idle steps,
        ``vectorized`` what :attr:`core_used` reports (only the vectorized
        negotiator sets it), and ``epoch_clock`` marks the negotiator
        cores (see the module docstring).
        ``failure_model`` defaults to a fabric whose links all work.
        """
        self._step = 0
        self._step_ns = step_ns
        # Arrivals at or before ``step * step_ns + _inject_lead_ns`` enter
        # during the step: an epoch injects a second time at its end.
        self._inject_lead_ns = step_ns if epoch_clock else 0.0
        self._epoch_clock = epoch_clock
        self._vectorized = vectorized
        self._ff_enabled = fast_forward
        self._fast_forwarded = 0

        self.failures = failure_model or LinkFailureModel(
            config.num_tors, config.ports_per_tor
        )
        self._failure_events = (
            failure_plan.sorted_events() if failure_plan is not None else []
        )
        self._next_failure_event = 0

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

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def is_idle(self) -> bool:
        """Whether the engine holds no state a skipped step could touch.

        Consulted only with fast-forward enabled and failure detection
        quiescent; the default never lets a step be skipped.
        """
        return False

    def on_skip(self, n: int) -> None:
        """Account for ``n`` idle steps about to be skipped.

        Called with the clock still on the first skipped step, so an
        engine keeps counter totals equal to a stepped run's.  An idle
        step ticks ``step_counter`` and nothing else; an engine whose
        idle steps count more extends this.
        """
        if self._tracer is not None:
            self._tracer.count(self.step_counter, n)

    # ------------------------------------------------------------------
    # clock accessors
    # ------------------------------------------------------------------

    @property
    def steps(self) -> int:
        """Index of the next step: steps simulated or skipped so far."""
        return self._step

    @property
    def fast_forwarded_steps(self) -> int:
        """Idle steps the run loops skipped without stepping them."""
        return self._fast_forwarded

    @property
    def now_ns(self) -> float:
        """Start time of the next step."""
        return self._step * self._step_ns

    @property
    def core_used(self) -> str:
        """Which engine core this instance runs."""
        return "vectorized" if self._vectorized else "scalar"

    # ------------------------------------------------------------------
    # run loops
    # ------------------------------------------------------------------

    def run(self, duration_ns: float) -> None:
        """Simulate whole steps until ``duration_ns`` is covered.

        Loop control is an exact *integer* step budget: the float duration
        is converted once (via :meth:`_first_step`, exact against the
        engine's own ``step * step_ns`` arithmetic) and the loop compares
        integer step counters, so hour-long horizons cannot accumulate
        float drift in the stepping decision.
        """
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        target = self._first_step(duration_ns)
        while self._step < target:
            if (
                self._ff_enabled
                and self.failures.is_quiescent
                and self.is_idle()
            ):
                self._fast_forward(target)
                if self._step >= target:
                    break
            self.step()

    def run_until_complete(self, max_ns: float) -> bool:
        """Simulate until every flow completes (or ``max_ns``).

        Returns True when all flows completed.  In streaming mode the
        source must also be exhausted — flows the engine has not pulled yet
        are still outstanding work.  Like :meth:`run`, the cutoff is held
        as an integer step budget.
        """
        if max_ns <= 0:
            raise ValueError("max_ns must be positive")
        limit = self._first_step(max_ns)
        source = self._source
        tracker = self.tracker
        while source.next_arrival_ns is not None or not tracker.all_complete:
            if self._step >= limit:
                return False
            if (
                self._ff_enabled
                and self.failures.is_quiescent
                and self.is_idle()
            ):
                self._fast_forward(limit)
                if self._step >= limit:
                    return False
            self.step()
        return True

    # ------------------------------------------------------------------
    # time-to-step conversion and idle fast-forward (DESIGN.md section 7)
    # ------------------------------------------------------------------

    def _first_step(self, time_ns: float, lead_ns: float = 0.0) -> int:
        """Smallest step ``s >= 0`` with ``s * step_ns + lead_ns >= time_ns``.

        The while-loops absorb float rounding in the division so the result
        is exact against the engine's own arithmetic: ``s * step_ns`` is a
        step's start, and ``(s * step_ns) + step_ns`` an epoch's mid-epoch
        injection bound — the same expression, operand grouping included,
        that ``step_epoch`` evaluates, because for non-dyadic epoch lengths
        it can differ by 1 ulp from ``(s + 1) * step_ns``.
        """
        step_ns = self._step_ns
        step = max(0, math.ceil((time_ns - lead_ns) / step_ns))
        while step > 0 and (step - 1) * step_ns + lead_ns >= time_ns:
            step -= 1
        while step * step_ns + lead_ns < time_ns:
            step += 1
        return step

    def _fast_forward(self, limit: int) -> None:
        """Jump the clock over steps in which provably nothing happens.

        The caller has established that the engine is idle.  The jump
        lands on the earliest of: the first step whose injection bound
        reaches the next arrival (a skipped step must not even *enqueue*
        it — the selective relay acts on newly active pairs right after
        injection), the first step whose start reaches the next failure or
        repair event, and ``limit``.  Every skipped step would have been
        an exact no-op.
        """
        target = limit
        arrival = self._source.next_arrival_ns
        if arrival is not None:
            target = min(
                target, self._first_step(arrival, self._inject_lead_ns)
            )
        events = self._failure_events
        if self._next_failure_event < len(events):
            event = events[self._next_failure_event]
            target = min(target, self._first_step(event.time_ns))
        if target > self._step:
            skipped = target - self._step
            self.on_skip(skipped)
            self._fast_forwarded += skipped
            self._step = target

    # ------------------------------------------------------------------
    # helpers for the step functions
    # ------------------------------------------------------------------

    def _apply_failures(self, start_ns: float) -> None:
        """Apply every failure/repair event due by the step's start, then
        advance failure detection by one step."""
        events = self._failure_events
        while (
            self._next_failure_event < len(events)
            and events[self._next_failure_event].time_ns <= start_ns
        ):
            self.failures.apply(events[self._next_failure_event])
            self._next_failure_event += 1
        self.failures.tick_epoch()

    def _inject_arrivals(self, before_ns: float) -> None:
        """Enqueue every flow arriving at or before ``before_ns``.

        The bound is inclusive: a flow arriving exactly at a step boundary
        is visible to that step.  Streaming flows are only known to the
        tracker once they enter the fabric; materialized flows were all
        registered at construction.
        """
        source = self._source
        arrival = source.next_arrival_ns
        if arrival is None or arrival > before_ns:
            return
        register = self.tracker.register if self._stream else None
        enqueue = self._enqueue
        while arrival is not None and arrival <= before_ns:
            flow = source.pop()
            if register is not None:
                register(flow)
            enqueue(flow)
            arrival = source.next_arrival_ns

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
        :meth:`FlowTracker.mice_fct_summary`).  Only the epoch engines
        report ``epoch_ns``.
        """
        duration = duration_ns if duration_ns is not None else self.now_ns
        tracker = self.tracker
        mice_p99, mice_mean = tracker.mice_fct_summary(
            self.config.mice_threshold_bytes
        )
        return RunSummary(
            duration_ns=duration,
            epoch_ns=self._step_ns if self._epoch_clock else None,
            num_flows=self._source.popped,
            num_completed=tracker.num_completed,
            goodput_normalized=tracker.goodput_normalized(
                duration, self.config.host_aggregate_gbps
            ),
            goodput_gbps=tracker.goodput_gbps(duration),
            mice_fct_p99_ns=mice_p99,
            mice_fct_mean_ns=mice_mean,
        )


class CircuitKernel(StepKernel):
    """What the oblivious, rotor and adaptive baselines share.

    Each step the three engines ride circuits of the thin-clos fabric
    and differ only in what a connected (ToR, peer) link serves; this
    class owns everything around that policy:

    * the fabric checks and packet constants: ``_tx_ns`` per data
      packet, ``payload_bytes`` per cell, ``cycle_slots`` per rotation
      of the predefined schedule, and the PIAS band limits;
    * per-(ToR, peer) first-hop queues with PIAS bands (``_direct``) and
      per-(intermediate, destination) single-band relay queues
      (``_relay``), each with a per-ToR byte counter;
    * the one-hop ``_enqueue``, ``_deliver`` at the destination and
      ``_hand_over`` to an intermediate;
    * packet timing inside a step: packet ``k`` starts ``lead_ns + k *
      _tx_ns`` after the step does (the lead is the rotor's
      reconfiguration delay, 0 on the adaptive engine; the oblivious
      engine times its one-cell slot whole), ``_transmit`` drains a
      queue over such packets, and ``_serve_direct`` is its call on a
      first-hop queue;
    * the step tail, :meth:`_end_step`.
    """

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        *,
        step_ns: float,
        lead_ns: float = 0.0,
        bandwidth_recorder: BandwidthRecorder | None = None,
        stream: bool = False,
        tracer=None,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
    ) -> None:
        if not isinstance(topology, ThinClos):
            raise ValueError(
                "the circuit baselines follow thin-clos's AWGR schedule; "
                f"got {type(topology).__name__}"
            )
        if topology.num_tors != config.num_tors:
            raise ValueError("topology and config disagree on num_tors")
        if topology.ports_per_tor != config.ports_per_tor:
            raise ValueError("topology and config disagree on ports_per_tor")
        self.config = config
        self.topology = topology
        super().__init__(
            config,
            flows,
            step_ns=step_ns,
            stream=stream,
            fast_forward=config.idle_fast_forward,
            failure_model=failure_model,
            failure_plan=failure_plan,
        )
        epoch = config.epoch
        self._tx_ns = transmit_ns(
            epoch.data_header_bytes + epoch.data_payload_bytes,
            config.uplink_gbps,
        )
        self._lead_ns = lead_ns
        self.payload_bytes = epoch.data_payload_bytes
        self.cycle_slots = topology.predefined_slots
        if config.priority_queue_enabled:
            self._band_limits = tuple(config.pias_thresholds)
        else:
            self._band_limits = ()
        n = config.num_tors
        self._direct: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._direct_pending = [0] * n
        self._new_direct = PiasDestQueue.maker(self._band_limits, bool(self._band_limits))
        self._relay: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._relay_pending = [0] * n
        self._new_relay = PiasDestQueue.maker((), False)
        self.bandwidth = bandwidth_recorder
        self._tracer = tracer

    # ------------------------------------------------------------------
    # queues
    # ------------------------------------------------------------------

    @property
    def total_queued_bytes(self) -> int:
        """Bytes waiting at sources plus bytes in flight at intermediates."""
        return sum(self._direct_pending) + sum(self._relay_pending)

    def direct_bytes_at(self, tor: int) -> int:
        """Bytes currently waiting for their first hop at one ToR."""
        return self._direct_pending[tor]

    def relay_bytes_at(self, tor: int) -> int:
        """Bytes currently buffered at one intermediate ToR."""
        return self._relay_pending[tor]

    def is_idle(self) -> bool:
        """The fabric holds no direct or relay bytes."""
        return not any(self._direct_pending) and not any(self._relay_pending)

    def _direct_queue(self, tor: int, peer: int) -> PiasDestQueue:
        """The (tor, peer) first-hop queue, made on first use."""
        queue = self._direct[tor].get(peer)
        if queue is None:
            queue = self._direct[tor][peer] = self._new_direct()
        return queue

    def _enqueue(self, flow: Flow) -> None:
        """Queue an arriving flow for the one hop to its destination."""
        self._direct_queue(flow.src, flow.dst).enqueue_flow(flow)
        self._direct_pending[flow.src] += flow.size_bytes

    def _deliver(self, flow: Flow, num_bytes: int, deliver_ns: float) -> None:
        """Credit bytes that reached their destination ToR."""
        self.tracker.deliver(flow, num_bytes, deliver_ns)
        if self.bandwidth is not None:
            self.bandwidth.record(("rx", flow.dst), num_bytes, deliver_ns)

    def _hand_over(
        self,
        flow: Flow,
        num_bytes: int,
        via: int,
        arrival_ns: float,
        eligible_ns: float,
    ) -> None:
        """Buffer first-hop bytes at intermediate ``via`` for the second.

        The caller has taken them off its first-hop counter.  Relayed
        bytes lose their PIAS class: the relay queue has one band.
        """
        queue = self._relay[via].get(flow.dst)
        if queue is None:
            queue = self._relay[via][flow.dst] = self._new_relay()
        queue.enqueue_bytes(flow, num_bytes, band=0, eligible_ns=eligible_ns)
        self._relay_pending[via] += num_bytes
        if self.bandwidth is not None:
            self.bandwidth.record(("relay", via), num_bytes, arrival_ns)

    # ------------------------------------------------------------------
    # packets inside a step
    # ------------------------------------------------------------------

    def _packet_start_ns(self, start_ns: float, k: int) -> float:
        """Start of the k-th packet opportunity of the step at ``start_ns``."""
        return start_ns + self._lead_ns + k * self._tx_ns

    def _packet_deliver_ns(self, start_ns: float, k: int) -> float:
        """Arrival time of the k-th packet at the receiving ToR."""
        return (
            self._packet_start_ns(start_ns, k)
            + self._tx_ns
            + self.config.propagation_ns
        )

    def _transmit(
        self,
        queue: PiasDestQueue,
        start_ns: float,
        offset: int,
        budget: int,
        *,
        band: int | None = None,
        via: int | None = None,
    ) -> tuple[int, int]:
        """Send from one queue over packets ``offset`` to ``budget - 1``
        of the step at ``start_ns``; returns (packets used, bytes sent).

        ``band=None`` drains in PIAS order (direct queues); an explicit
        band restricts the drain to it *and* stops at an ineligible head
        instead of idling packets away — which is what the relay step
        needs: a relay chunk handed over this very step is eligible only
        from the next step boundary, and burning the budget waiting for
        it would starve the pair's direct backlog.  The bytes are
        delivered, or with ``via`` handed over to that intermediate.
        """
        # The grid's slot k + offset starts where _packet_start_ns says,
        # operand grouping included.
        base_ns = start_ns + self._lead_ns
        if band is None:
            chunks, used = queue.drain_slots(
                budget - offset,
                self.payload_bytes,
                base_ns,
                self._tx_ns,
                first=offset,
            )
        else:
            chunks, used = queue.drain_band_slots(
                band,
                budget - offset,
                self.payload_bytes,
                base_ns,
                self._tx_ns,
                first=offset,
            )
        sent = 0
        for flow, num_bytes, last_slot in chunks:
            sent += num_bytes
            arrival_ns = self._packet_deliver_ns(start_ns, offset + last_slot)
            if via is None:
                self._deliver(flow, num_bytes, arrival_ns)
            else:
                # Store-and-forward: a relayed chunk becomes forwardable at
                # the next step boundary at the earliest, so the outcome
                # never depends on the order ToRs are iterated in.
                self._hand_over(
                    flow,
                    num_bytes,
                    via,
                    arrival_ns,
                    max(arrival_ns, start_ns + self._step_ns),
                )
        return used, sent

    def _serve_direct(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> int:
        """Direct one-hop transmissions to the connected peer, PIAS order;
        returns the packets used."""
        if offset >= budget:
            return 0
        queue = self._direct[tor].get(peer)
        if queue is None or queue.is_empty:
            return 0
        used, sent = self._transmit(queue, start_ns, offset, budget)
        self._direct_pending[tor] -= sent
        return used

    # ------------------------------------------------------------------
    # the step tail
    # ------------------------------------------------------------------

    def _gauges(self) -> dict[str, int]:
        """The gauges the tracer samples at its cadence."""
        return {
            "queued_bytes": self.total_queued_bytes,
            "relay_bytes": sum(self._relay_pending),
        }

    def _end_step(self) -> None:
        """Close a step: fold completions, advance the clock, count the
        step and sample the gauges when due."""
        self.tracker.flush_completions()
        self._step += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.count(self.step_counter)
            now_ns = int(self.now_ns)
            if tracer.gauge_due(now_ns):
                tracer.sample(now_ns, **self._gauges())
