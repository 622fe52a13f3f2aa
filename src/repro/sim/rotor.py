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

Under a failure plan (:mod:`repro.sim.failures`) a transmission is lost
when its (tor, port) link is down at the slice it rides.

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
from .config import RotorConfig, SimConfig
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow
from .kernel import CircuitKernel, StepKernel
from .metrics import BandwidthRecorder


class RotorSimulator(CircuitKernel):
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
        self.rotor = rotor or RotorConfig()
        self.slice_ns = self.rotor.slice_ns(config.epoch, config.uplink_gbps)
        # Idle slices are fast-forwarded while the fabric is empty and
        # failure detection is in steady state (DESIGN.md section 7).
        super().__init__(
            config,
            topology,
            flows,
            step_ns=self.slice_ns,
            lead_ns=self.rotor.reconfiguration_delay_ns,
            bandwidth_recorder=bandwidth_recorder,
            stream=stream,
            tracer=tracer,
            failure_model=failure_model,
            failure_plan=failure_plan,
        )
        # Observational telemetry hooks (DESIGN.md section 14).  A tracer
        # times the three RotorLB stages in place — relay (second hop),
        # drain (direct) and offload (VLB) — so the slice loop is the same
        # with and without one.
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
    # kernel bindings (sim/kernel.py, DESIGN.md section 7)
    # ------------------------------------------------------------------

    slices = StepKernel.steps
    fast_forwarded_slices = StepKernel.fast_forwarded_steps
    step_counter = "slices"
    run = StepKernel.run
    run_until_complete = StepKernel.run_until_complete
    summary = StepKernel.summary

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
        self._end_step()

    step = step_slice

    # ------------------------------------------------------------------
    # the RotorLB service steps the kernel does not own
    # ------------------------------------------------------------------

    def _serve_relay(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> int:
        """Second Valiant hop: drain buffered relay bytes destined to peer."""
        queue = self._relay[tor].get(peer)
        if queue is None or queue.is_empty:
            return 0
        used, sent = self._transmit(queue, start_ns, offset, budget, band=0)
        self._relay_pending[tor] -= sent
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
            used, moved = self._transmit(
                queue, start_ns, offset, budget, band=lowest_band, via=peer
            )
            # The bytes changed ToRs but stayed in the fabric: they moved
            # from the source's direct backlog to the peer's relay buffer.
            self._direct_pending[tor] -= moved
            offset += used
