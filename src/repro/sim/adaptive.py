"""The demand-aware adaptive baseline: EWMA demand estimation + matching.

This is the fourth corner of the reconfigurable-DCN design space the repo
compares NegotiaToR against (after the Sirius-flavored per-slot oblivious
fabric and the RotorNet-style rotor): a D3-class system that *watches* the
traffic matrix and reconfigures toward it, in the spirit of demand-aware
designs such as D3 and integrated static+rotor+on-demand topologies.
Where the rotor cycles a fixed schedule blind to demand, the adaptive
fabric:

* **Estimates demand** — every flow arrival adds its bytes to a
  per-(src, dst) observation window; at each recompute boundary (every
  ``AdaptiveConfig.recompute_slices`` slices) the window folds into an
  EWMA-estimated traffic matrix (``ewma_alpha`` weight on the new window)
  and resets, so the estimate tracks shifting hotspots while smoothing
  over burst noise.
* **Schedules toward the heavy entries** — the estimated matrix feeds a
  greedy max-weight matching over the port planes: entries are visited
  heaviest-first (ties broken by (src, dst) for determinism) and claim a
  circuit on their pair's plane when both endpoints are free there.
  Thin-clos pins each ordered pair to one plane
  (:meth:`~repro.topology.base.FlatTopology.data_port`), so every
  circuit the matching emits is physically realizable.  A pair that
  stays hot keeps its circuit across recomputes and pays nothing; only
  ports whose assignment *changed* go dark for
  ``reconfiguration_delay_ns`` — the demand-aware engine's defining
  advantage over the rotor, whose every slice pays the delay.
* **Covers the residual demand** — each cycle, ``residual_ports`` of the
  port planes take a turn on the topology's round-robin rotation (the
  same predefined schedule the rotor rides, paying the same per-slice
  reconfiguration penalty), and the duty rotates across planes from
  cycle to cycle: plane ``p`` is on rotation duty in cycle ``c`` iff
  ``(p - c) % ports_per_tor < residual_ports``.  The planes' rotations
  jointly connect every ordered pair once per cycle, so every pair —
  including those that lose the matching and those pinned to a plane
  currently on rotation duty — is periodically connected and sparse
  demand is never starved.  A plane returning from rotation duty must
  re-establish its demand circuits and pays one reconfiguration delay
  from the cycle boundary.

All traffic is one-hop: demand-aware circuits serve their pair directly
and the residual rotation serves whatever backlog waits for the
connected peer, so the kernel's relay queues stay empty and
conservation is per-source-queue exact.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from time import perf_counter

from ..topology.base import FlatTopology
from .config import AdaptiveConfig, SimConfig
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow
from .kernel import CircuitKernel, StepKernel
from .metrics import BandwidthRecorder


class AdaptiveSimulator(CircuitKernel):
    """Slice-driven demand-aware fabric over a finite set of flows.

    ``stream=True`` consumes ``flows`` lazily from an arrival-ordered
    iterator with a bounded-memory tracker, mirroring the other engines'
    streaming mode.
    """

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        adaptive: AdaptiveConfig | None = None,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
        bandwidth_recorder: BandwidthRecorder | None = None,
        stream: bool = False,
        tracer=None,
    ) -> None:
        self.adaptive = adaptive or AdaptiveConfig()
        self.slice_ns = self.adaptive.slice_ns(config.epoch, config.uplink_gbps)
        super().__init__(
            config,
            topology,
            flows,
            step_ns=self.slice_ns,
            bandwidth_recorder=bandwidth_recorder,
            stream=stream,
            tracer=tracer,
            failure_model=failure_model,
            failure_plan=failure_plan,
        )
        if self.adaptive.residual_ports > config.ports_per_tor:
            raise ValueError(
                "residual_ports cannot exceed ports_per_tor "
                f"({self.adaptive.residual_ports} > {config.ports_per_tor})"
            )
        # Observational telemetry hooks (DESIGN.md section 14): a tracer
        # times direct service in place, so the slice loop is the same
        # with and without one.
        if tracer is not None:
            self._serve_direct = tracer.timed(self._serve_direct, "drain")

        n = config.num_tors
        # Demand estimation and the circuit schedule.
        self._est = [[0.0] * n for _ in range(n)]
        self._window = [[0] * n for _ in range(n)]
        self._window_bytes = 0
        # Whether any arrival has ever been observed: while False, every
        # recompute is provably the identity (zero window onto a zero
        # estimate yields an empty schedule), which is what licenses the
        # idle fast-forward below.
        self._demand_seen = False
        # schedule[tor][port] = peer of the plane's demand circuit (None:
        # idle).  Every physical plane carries a demand assignment; a
        # plane simply ignores it while taking its turn on rotation duty.
        ports = config.ports_per_tor
        self._schedule: list[list[int | None]] = [
            [None] * ports for _ in range(n)
        ]
        # Absolute time each port's demand circuit finishes reconfiguring.
        self._ready_ns = [[0.0] * ports for _ in range(n)]
        # Last cycle whose residual-duty roles have been applied; planes
        # returning from rotation duty re-establish their circuits.
        self._role_cycle = 0
        # Residual ports rotate every slice, so — like the rotor — they
        # pay the reconfiguration penalty at every slice start, expressed
        # here as lost packet opportunities.
        if self._tx_ns > 0 and self.adaptive.reconfiguration_delay_ns > 0:
            self._residual_offset = math.ceil(
                self.adaptive.reconfiguration_delay_ns / self._tx_ns
            )
        else:
            self._residual_offset = 0
        self._recomputes = 0
        self._reconfigured_ports = 0

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------

    slices = StepKernel.steps
    fast_forwarded_slices = StepKernel.fast_forwarded_steps

    @property
    def recomputes(self) -> int:
        """Schedule recomputations performed (or provably skipped idle)."""
        return self._recomputes

    @property
    def reconfigured_ports(self) -> int:
        """Demand-aware port assignments changed across all recomputes."""
        return self._reconfigured_ports

    def estimated_demand(self, src: int, dst: int) -> float:
        """Current EWMA-estimated demand of one ordered pair, in bytes."""
        return self._est[src][dst]

    def schedule_peer(self, tor: int, port: int) -> int | None:
        """Peer of the plane's demand circuit (None: idle).

        The circuit only serves while the plane is not taking its turn on
        rotation duty (see :meth:`residual_in_cycle`).
        """
        self.topology.check_port(port)
        return self._schedule[tor][port]

    def residual_in_cycle(self, port: int, cycle: int) -> bool:
        """Whether plane ``port`` is on rotation duty during ``cycle``.

        The duty rotates: plane ``p`` covers cycles where
        ``(p - cycle) % ports_per_tor < residual_ports``, so over
        ``ports_per_tor`` consecutive cycles every plane — and hence the
        union of all planes' predefined rotations, which connects every
        ordered pair — takes a turn.
        """
        ports = self.config.ports_per_tor
        return (port - cycle) % ports < self.adaptive.residual_ports

    # ------------------------------------------------------------------
    # kernel bindings (sim/kernel.py, DESIGN.md section 7)
    # ------------------------------------------------------------------

    step_counter = "slices"
    run = StepKernel.run
    run_until_complete = StepKernel.run_until_complete
    summary = StepKernel.summary

    def is_idle(self) -> bool:
        """An empty fabric that has never observed demand.

        Stricter than the rotor's condition: with no demand ever seen,
        every skipped recompute folds a zero window onto a zero estimate
        and leaves the (empty) schedule untouched, so skipping it is
        exact.  Once any arrival lands, the EWMA carries state between
        recomputes and slices are always stepped.
        """
        return not self._demand_seen and super().is_idle()

    def on_skip(self, n: int) -> None:
        # Each skipped recompute boundary would also have run one
        # identity recompute.
        super().on_skip(n)
        period = self.adaptive.recompute_slices
        first = self._step + (-self._step % period)
        recomputes = len(range(first, self._step + n, period))
        self._recomputes += recomputes
        if self._tracer is not None:
            self._tracer.count("recomputes", recomputes)

    # ------------------------------------------------------------------
    # one slice
    # ------------------------------------------------------------------

    def step_slice(self) -> None:
        """Simulate one slice across all ToRs and ports."""
        slice_index = self._step
        cycle = slice_index // self.cycle_slots
        start_ns = self.now_ns
        tracer = self._tracer
        if tracer is not None:
            t_inject = perf_counter()
        self._apply_failures(start_ns)
        self._inject_arrivals(start_ns)
        self._apply_role_transitions(cycle)
        if tracer is not None:
            now = perf_counter()
            tracer.add_span("inject", now - t_inject)
            t_match = now
        if slice_index % self.adaptive.recompute_slices == 0:
            reconfigured = self._recompute_schedule(start_ns)
            if tracer is not None:
                tracer.add_span("matching", perf_counter() - t_match)
                tracer.count("recomputes")
                tracer.count("reconfigured_ports", reconfigured)

        links = self.topology.predefined_links(
            slice_index % self.cycle_slots, cycle
        )
        on_duty = [
            self.residual_in_cycle(port, cycle)
            for port in range(self.config.ports_per_tor)
        ]
        budget = self.adaptive.packets_per_slice
        # Active sets: a ToR with no backlog sends nothing this slice.
        direct_pending = self._direct_pending

        for tor in range(self.config.num_tors):
            if not direct_pending[tor]:
                continue
            for port, peer, offset in self._live_ports(
                tor, links[tor], on_duty, start_ns, budget
            ):
                used = self._serve_direct(tor, peer, start_ns, offset, budget)
                if tracer is not None:
                    # The plane's duty names the counter, which the timed
                    # call cannot see.
                    tracer.count(
                        "residual_packets" if on_duty[port]
                        else "demand_packets",
                        used,
                    )
        self._end_step()

    def _gauges(self) -> dict[str, int]:
        return {
            "queued_bytes": self.total_queued_bytes,
            "active_circuits": sum(
                1 for row in self._schedule for peer in row if peer is not None
            ),
        }

    step = step_slice

    def _live_ports(
        self,
        tor: int,
        links: tuple[tuple[int, int], ...],
        on_duty: list[bool],
        start_ns: float,
        budget: int,
    ):
        """Yield (port, peer, first usable packet slot) of every port of
        ``tor`` that can carry data this slice, in port order.

        A plane on rotation duty follows the predefined rotation
        (``links``, the ToR's row of the slot's link table) and — like the
        rotor — pays the reconfiguration penalty at every slice start.
        Otherwise the plane serves its demand circuit, holding it until
        the next recompute and losing leading packet opportunities only
        while still reconfiguring.  Ports whose link is down are skipped.
        """
        schedule = self._schedule[tor]
        ready_ns = self._ready_ns[tor]
        failures = self.failures
        check = failures.any_failed
        # Walk the row alongside the ports: it is in port order and only
        # lacks the ports that are idle in the rotation.
        rotation = iter(links)
        link_port, rotation_peer = next(rotation, (None, None))
        for port, duty in enumerate(on_duty):
            if port == link_port:
                peer = rotation_peer
                link_port, rotation_peer = next(rotation, (None, None))
            else:
                peer = None
            if duty:
                offset = self._residual_offset
            else:
                peer = schedule[port]
                ready = ready_ns[port]
                offset = 0
                if peer is not None and ready > start_ns:
                    offset = math.ceil((ready - start_ns) / self._tx_ns)
            if peer is None or offset >= budget:
                continue
            if check and not failures.transmission_ok(tor, port, peer, port):
                continue
            yield port, peer, offset

    def _apply_role_transitions(self, cycle: int) -> None:
        """Re-establish circuits on planes returning from rotation duty.

        While a plane rotates it cannot hold its demand circuit, so when
        the duty moves on the circuit must be set up again: its ready
        time advances to one reconfiguration delay past the boundary of
        the cycle the plane rejoined demand service.  Idle assignments
        need nothing, which keeps this exact across fast-forwarded gaps
        (pre-demand the schedule is empty).
        """
        prev = self._role_cycle
        if cycle == prev:
            return
        self._role_cycle = cycle
        ports = self.config.ports_per_tor
        residual = self.adaptive.residual_ports
        if residual == 0 or residual >= ports:
            return
        span = cycle - prev
        cycle_start_ns = cycle * self.cycle_slots * self.slice_ns
        delay = self.adaptive.reconfiguration_delay_ns
        for port in range(ports):
            if self.residual_in_cycle(port, cycle):
                continue
            rotated = span >= ports or any(
                self.residual_in_cycle(port, c)
                for c in range(max(prev, cycle - ports), cycle)
            )
            if not rotated:
                continue
            ready = cycle_start_ns + delay
            for tor in range(self.config.num_tors):
                if (
                    self._schedule[tor][port] is not None
                    and self._ready_ns[tor][port] < ready
                ):
                    self._ready_ns[tor][port] = ready

    # ------------------------------------------------------------------
    # demand estimation and schedule recomputation
    # ------------------------------------------------------------------

    def _recompute_schedule(self, now_ns: float) -> int:
        """Fold the observation window and re-match; returns ports changed.

        The estimate update is ``est = (1 - alpha) * est + alpha * window``
        entry-wise, after which the window resets — between recomputes the
        schedule is frozen, so the engine's behavior is piecewise-static
        and exactly reproducible.  Matching is greedy max-weight over the
        port planes: heaviest estimated entries first (ties by
        (src, dst)), an entry claims the one plane thin-clos's
        :meth:`data_port` pins its pair to when both its endpoints are
        free there, so a pair holds at most one demand-aware circuit.
        Ports whose assignment changed (including newly lit and newly
        darkened ones) go dark for ``reconfiguration_delay_ns`` from
        ``now_ns``.
        """
        n = self.config.num_tors
        alpha = self.adaptive.ewma_alpha
        keep = 1.0 - alpha
        est = self._est
        window = self._window
        if self._window_bytes or self._demand_seen:
            for src in range(n):
                row_e = est[src]
                row_w = window[src]
                for dst in range(n):
                    row_e[dst] = keep * row_e[dst] + alpha * row_w[dst]
                    if row_w[dst]:
                        row_w[dst] = 0
        self._window_bytes = 0
        self._recomputes += 1

        entries: list[tuple[float, int, int]] = []
        for src in range(n):
            row = est[src]
            for dst in range(n):
                if row[dst] > 0.0:
                    entries.append((-row[dst], src, dst))
        entries.sort()

        changed = 0
        delay = self.adaptive.reconfiguration_delay_ns
        ports = self.config.ports_per_tor
        data_port = self.topology.data_port
        src_used = [[False] * n for _ in range(ports)]
        dst_used = [[False] * n for _ in range(ports)]
        assignment: list[list[int | None]] = [
            [None] * n for _ in range(ports)
        ]
        for _neg_weight, src, dst in entries:
            plane = data_port(src, dst)
            if src_used[plane][src] or dst_used[plane][dst]:
                continue
            src_used[plane][src] = True
            dst_used[plane][dst] = True
            assignment[plane][src] = dst
        for port in range(ports):
            plane_assignment = assignment[port]
            for tor in range(n):
                if plane_assignment[tor] != self._schedule[tor][port]:
                    self._schedule[tor][port] = plane_assignment[tor]
                    self._ready_ns[tor][port] = now_ns + delay
                    changed += 1
        self._reconfigured_ports += changed
        return changed

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------

    def _enqueue(self, flow: Flow) -> None:
        super()._enqueue(flow)
        # The demand observation the next recompute folds in.
        self._window[flow.src][flow.dst] += flow.size_bytes
        self._window_bytes += flow.size_bytes
        self._demand_seen = True
