"""The demand-aware adaptive baseline: estimation, matching, residual duty.

The engine's defining invariants (DESIGN.md section 16):

* **Demand tracking** — flow arrivals feed a per-(src, dst) observation
  window that folds into an EWMA estimate at each recompute; the greedy
  matching pins circuits on the heaviest feasible entries, so a persistent
  hot pair holds its circuit across recomputes and receives more direct
  service than under the rotor's blind rotation.
* **Feasibility** — every circuit the matching emits is physically
  realizable: on thin-clos an ordered pair is only ever assigned to its
  ``data_port`` plane.
* **Rotating residual duty** — ``residual_ports`` planes per cycle ride
  the predefined rotation and the duty rotates across planes, so over
  ``ports_per_tor`` cycles every plane (hence every ordered pair) gets
  round-robin coverage and no pair starves, whatever the matching does.
* **Reconfiguration penalty** — ports whose assignment changed go dark
  for ``reconfiguration_delay_ns``; unchanged circuits pay nothing.
* **Determinism** — identical construction yields bit-identical runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import MICRO, make_topology, sim_config
from repro.sim.adaptive import AdaptiveSimulator
from repro.sim.config import (
    AdaptiveConfig,
    EpochConfig,
    RotorConfig,
    transmit_ns,
)
from repro.sim.failures import (
    Direction,
    FailurePlan,
    LinkFailureModel,
    LinkRef,
)
from repro.sim.flows import Flow
from repro.sim.rotor import RotorSimulator

NUM_TORS = MICRO.num_tors
PORTS = MICRO.ports_per_tor


def _sim(flows, *, adaptive=None, pq=True, **kwargs):
    return AdaptiveSimulator(
        sim_config(MICRO, priority_queue_enabled=pq),
        make_topology(MICRO, "thinclos"),
        flows,
        adaptive=adaptive,
        **kwargs,
    )


def _all_pairs_flows(size_bytes: int) -> list[Flow]:
    flows = []
    fid = 0
    for src in range(NUM_TORS):
        for dst in range(NUM_TORS):
            if src != dst:
                flows.append(Flow(fid, src, dst, size_bytes, 0.0))
                fid += 1
    return flows


# ---------------------------------------------------------------------------
# adaptive config
# ---------------------------------------------------------------------------


class TestAdaptiveConfig:
    def test_defaults_validate(self):
        adaptive = AdaptiveConfig()
        assert adaptive.packets_per_slice > 0
        assert 0 < adaptive.ewma_alpha <= 1
        assert adaptive.recompute_slices > 0
        assert adaptive.residual_ports >= 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="packets_per_slice"):
            AdaptiveConfig(packets_per_slice=0)
        with pytest.raises(ValueError, match="reconfiguration_delay_ns"):
            AdaptiveConfig(reconfiguration_delay_ns=-1.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            AdaptiveConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            AdaptiveConfig(ewma_alpha=1.5)
        with pytest.raises(ValueError, match="recompute_slices"):
            AdaptiveConfig(recompute_slices=0)
        with pytest.raises(ValueError, match="residual_ports"):
            AdaptiveConfig(residual_ports=-1)

    def test_slice_timing(self):
        epoch = EpochConfig()
        adaptive = AdaptiveConfig(packets_per_slice=10)
        tx = transmit_ns(
            epoch.data_header_bytes + epoch.data_payload_bytes, 100.0
        )
        assert adaptive.slice_ns(epoch, 100.0) == 10 * tx

    def test_residual_ports_capped_by_fabric(self):
        with pytest.raises(ValueError, match="residual_ports"):
            _sim([], adaptive=AdaptiveConfig(residual_ports=PORTS + 1))


# ---------------------------------------------------------------------------
# rotating residual duty
# ---------------------------------------------------------------------------


class TestResidualDuty:
    def test_exactly_residual_ports_planes_on_duty_each_cycle(self):
        sim = _sim([], adaptive=AdaptiveConfig(residual_ports=1))
        for cycle in range(3 * PORTS):
            on_duty = [
                port
                for port in range(PORTS)
                if sim.residual_in_cycle(port, cycle)
            ]
            assert len(on_duty) == 1, (cycle, on_duty)

    def test_duty_rotates_over_every_plane(self):
        sim = _sim([], adaptive=AdaptiveConfig(residual_ports=1))
        for port in range(PORTS):
            cycles = [
                cycle
                for cycle in range(PORTS)
                if sim.residual_in_cycle(port, cycle)
            ]
            assert len(cycles) == 1, (port, cycles)

    def test_residual_ports_equal_to_fabric_means_always_on_duty(self):
        sim = _sim([], adaptive=AdaptiveConfig(residual_ports=PORTS))
        assert all(
            sim.residual_in_cycle(port, cycle)
            for port in range(PORTS)
            for cycle in range(3 * PORTS)
        )

    def test_no_pair_starves_on_thinclos(self):
        """The anti-starvation contract: with the default residual duty,
        every ordered pair — including intra-group pairs pinned to a plane
        the matching may never grant them — eventually completes."""
        flows = _all_pairs_flows(50_000)
        sim = _sim(flows)
        assert sim.run_until_complete(max_ns=100 * MICRO.duration_ns)
        assert sim.tracker.all_complete


# ---------------------------------------------------------------------------
# demand tracking and feasibility
# ---------------------------------------------------------------------------


class TestDemandTracking:
    def test_ewma_estimate_tracks_arrivals(self):
        adaptive = AdaptiveConfig(recompute_slices=1, ewma_alpha=0.25)
        flows = [Flow(0, 0, 1, 100_000, 0.0)]
        sim = _sim(flows, adaptive=adaptive)
        assert sim.estimated_demand(0, 1) == 0.0
        sim.step_slice()  # injects, then folds the window at the recompute
        assert sim.estimated_demand(0, 1) == pytest.approx(0.25 * 100_000)
        sim.step_slice()  # empty window decays the estimate
        assert sim.estimated_demand(0, 1) == pytest.approx(
            0.75 * 0.25 * 100_000
        )

    def test_matching_pins_hot_pair_to_its_data_port(self):
        """Feasibility: on thin-clos the circuit for a pair lands on the
        pair's single reachable plane, never anywhere else."""
        adaptive = AdaptiveConfig(recompute_slices=1)
        src, dst = 0, 1
        flows = [Flow(0, src, dst, 10_000_000, 0.0)]
        sim = _sim(flows, adaptive=adaptive)
        sim.step_slice()
        plane = sim.topology.data_port(src, dst)
        assert plane is not None
        assert sim.schedule_peer(src, plane) == dst
        for port in range(PORTS):
            if port != plane:
                assert sim.schedule_peer(src, port) != dst

    def test_hot_pair_keeps_circuit_across_recomputes(self):
        """A persistently heaviest pair pays the reconfiguration delay
        once: later recomputes leave its port untouched."""
        adaptive = AdaptiveConfig(recompute_slices=1)
        flows = [Flow(0, 0, 1, 10_000_000, 0.0)]
        sim = _sim(flows, adaptive=adaptive)
        for _ in range(8):
            sim.step_slice()
        assert sim.recomputes == 8
        # One port lit once for the (0, 1) circuit; nothing else changed.
        assert sim.reconfigured_ports == 1

    def test_skipped_lead_in_counts_its_identity_recomputes(self):
        """Fast-forward skips the idle slices before the first arrival;
        the engine still counts each recompute boundary among them."""
        runs = []
        for fast_forward in (True, False):
            sim = AdaptiveSimulator(
                sim_config(MICRO, idle_fast_forward=fast_forward),
                make_topology(MICRO, "thinclos"),
                [Flow(0, 0, 1, 50_000, 30_000.0)],
            )
            sim.run(MICRO.duration_ns)
            runs.append((sim.recomputes, sim.reconfigured_ports))
            assert (sim.fast_forwarded_slices > 0) == fast_forward
        assert runs[0] == runs[1]

    def test_hot_pair_gets_more_capacity_than_under_rotor(self):
        """The demand-tracking property this engine exists for: on a
        skewed matrix the hot pair sees more direct service than the
        rotor's one-slot-per-cycle rotation grants it."""
        size = 50_000_000
        horizon = MICRO.duration_ns

        def delivered(engine):
            flows = [Flow(0, 0, 1, size, 0.0)]
            if engine == "adaptive":
                sim = _sim(flows, pq=False)
            else:
                sim = RotorSimulator(
                    sim_config(MICRO, priority_queue_enabled=False),
                    make_topology(MICRO, "thinclos"),
                    flows,
                    rotor=RotorConfig(vlb_relay=False),
                )
            sim.run(horizon)
            return sim.tracker.delivered_bytes

        assert delivered("adaptive") > 2 * delivered("rotor")


# ---------------------------------------------------------------------------
# reconfiguration penalty
# ---------------------------------------------------------------------------


class TestReconfigurationPenalty:
    def test_fresh_circuit_loses_leading_packet_opportunities(self):
        """A port that just changed assignment goes dark for the delay;
        with the delay spanning half the slice, the first slice delivers
        about half of an undelayed slice's packets."""
        epoch = EpochConfig()
        tx = transmit_ns(
            epoch.data_header_bytes + epoch.data_payload_bytes,
            sim_config(MICRO).uplink_gbps,
        )
        budget = 16
        results = {}
        for delay in (0.0, (budget // 2) * tx):
            adaptive = AdaptiveConfig(
                recompute_slices=1,
                packets_per_slice=budget,
                reconfiguration_delay_ns=delay,
                residual_ports=0,
            )
            flows = [Flow(0, 0, 1, 10_000_000, 0.0)]
            sim = _sim(flows, adaptive=adaptive, pq=False)
            sim.step_slice()
            results[delay] = sim.tracker.delivered_bytes
        free, penalized = results.values()
        assert free == budget * sim.payload_bytes
        assert penalized == (budget - budget // 2) * sim.payload_bytes


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------


class TestFailures:
    def test_repair_restores_service(self):
        flows = [Flow(0, 0, 1, 500_000, 0.0)]
        port = make_topology(MICRO, "thinclos").data_port(0, 1)
        model = LinkFailureModel(NUM_TORS, PORTS)
        plan = FailurePlan()
        plan.add_failure(0.0, LinkRef(0, port, Direction.EGRESS))
        repair_ns = 20_000.0
        plan.add_repair(repair_ns, LinkRef(0, port, Direction.EGRESS))
        sim = _sim(flows, failure_model=model, failure_plan=plan)
        sim.run(repair_ns)
        assert sim.tracker.delivered_bytes == 0
        assert sim.run_until_complete(max_ns=100 * MICRO.duration_ns)
        assert sim.tracker.delivered_bytes == 500_000

    def test_completes_under_transient_failures(self):
        flows = _all_pairs_flows(50_000)
        model = LinkFailureModel(NUM_TORS, PORTS)
        plan = FailurePlan()
        plan.add_failure(0.0, LinkRef(0, 0, Direction.EGRESS))
        plan.add_failure(5_000.0, LinkRef(3, 1, Direction.INGRESS))
        plan.add_repair(60_000.0, LinkRef(0, 0, Direction.EGRESS))
        plan.add_repair(60_000.0, LinkRef(3, 1, Direction.INGRESS))
        sim = _sim(flows, failure_model=model, failure_plan=plan)
        assert sim.run_until_complete(max_ns=200 * MICRO.duration_ns)
        assert sim.tracker.all_complete


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_runs_are_bit_identical():
    def run():
        flows = _all_pairs_flows(100_000)
        sim = _sim(flows)
        sim.run(MICRO.duration_ns)
        return sim.summary(MICRO.duration_ns)

    first, second = run(), run()
    assert first == second
