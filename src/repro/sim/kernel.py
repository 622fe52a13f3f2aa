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
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .config import SimConfig
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow, FlowTracker
from .metrics import RunSummary
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
