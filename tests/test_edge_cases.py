"""Edge cases and cross-module behaviours not covered elsewhere."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EpochConfig,
    Flow,
    NegotiaToRSimulator,
    ParallelNetwork,
    SimConfig,
    ThinClos,
)
from repro.core.matching import NegotiaToRMatcher
from repro.core.variants import HolDelayScheduler, StatefulScheduler, ValuePriorityMatcher
from repro.sim.queues import PiasDestQueue
from repro.workloads.traces import hadoop


def make_flow(size, arrival=0.0, fid=0, src=0, dst=1):
    return Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=arrival)


class TestDrainBandSlots:
    """Direct tests for the band-restricted drain used by selective relay."""

    def test_only_requested_band_is_touched(self):
        queue = PiasDestQueue((1000, 10000))
        queue.enqueue_flow(make_flow(50_000))
        chunks, _used = queue.drain_band_slots(
            band=2, num_slots=5, payload_bytes=1115, base_ns=0.0, step_ns=1.0
        )
        assert sum(b for _f, b, _s in chunks) == 5 * 1115
        assert queue.band_bytes(0) == 1000  # untouched
        assert queue.band_bytes(1) == 9000  # untouched

    def test_respects_eligibility(self):
        queue = PiasDestQueue((1000, 10000))
        queue.enqueue_flow(make_flow(50_000, arrival=100.0))
        chunks, used = queue.drain_band_slots(
            band=2, num_slots=5, payload_bytes=1115,
            base_ns=0.0, step_ns=1.0,  # all slots before 100 ns
        )
        assert used == 0 and chunks == []

    def test_stops_when_band_empties(self):
        queue = PiasDestQueue((1000, 10000))
        queue.enqueue_flow(make_flow(12_000))  # band 2 holds 2000 B
        chunks, used = queue.drain_band_slots(
            band=2, num_slots=10, payload_bytes=1115, base_ns=0.0, step_ns=1.0
        )
        assert sum(b for _f, b, _s in chunks) == 2000
        assert used == math.ceil(2000 / 1115)

    @given(size=st.integers(10_001, 100_000), slots=st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_band_conservation(self, size, slots):
        queue = PiasDestQueue((1000, 10000))
        queue.enqueue_flow(make_flow(size))
        band2_before = queue.band_bytes(2)
        chunks, _used = queue.drain_band_slots(
            band=2, num_slots=slots, payload_bytes=1115, base_ns=0.0, step_ns=1.0
        )
        assert queue.band_bytes(2) + sum(b for _f, b, _s in chunks) == band2_before


class TestTruncatedCDF:
    def test_cap_above_max_is_identity(self):
        cdf = hadoop()
        assert cdf.truncated(10**9) is cdf

    def test_cap_below_min_rejected(self):
        with pytest.raises(ValueError):
            hadoop().truncated(10)

    def test_samples_respect_cap(self):
        capped = hadoop().truncated(50_000)
        rng = random.Random(0)
        assert all(capped.sample(rng) <= 50_000 for _ in range(500))

    def test_mass_is_preserved_up_to_the_cap(self):
        base = hadoop()
        capped = base.truncated(100_000)
        # Below the cap the CDFs agree at the shared anchors.
        assert capped.cdf(1000) == pytest.approx(base.cdf(1000))
        assert capped.cdf(100_000) == pytest.approx(1.0)

    def test_mean_shrinks_with_cap(self):
        base = hadoop()
        assert base.truncated(100_000).mean() < base.mean()

    @given(cap=st.integers(2000, 9_000_000))
    @settings(max_examples=50, deadline=None)
    def test_truncated_is_valid_distribution(self, cap):
        capped = hadoop().truncated(cap)
        assert capped.max_bytes <= cap
        # exp(log(cap)) may overshoot by an ulp; sampling rounds it away.
        assert capped.quantile(1.0) <= cap * (1 + 1e-9)
        assert capped.mean() > 0


class TestEngineWithoutPiggyback:
    def test_predefined_phase_carries_no_data(self):
        epoch = dataclasses.replace(EpochConfig(), piggyback_enabled=False)
        config = SimConfig(
            num_tors=8, ports_per_tor=2, uplink_gbps=100.0,
            host_aggregate_gbps=100.0, epoch=epoch,
        )
        sim = NegotiaToRSimulator(
            config, ParallelNetwork(8, 2), [make_flow(500)]
        )
        sim.step_epoch()
        sim.step_epoch()
        # Nothing delivered until the scheduled phase of epoch 2.
        assert sim.tracker.delivered_bytes == 0
        sim.step_epoch()
        assert sim.tracker.delivered_bytes == 500

    def test_zero_threshold_requests_fire_for_any_byte(self):
        epoch = dataclasses.replace(EpochConfig(), piggyback_enabled=False)
        assert epoch.request_threshold_bytes == 0


class TestVariantCorners:
    def test_hol_delay_single_band_uses_plain_wait(self):
        matcher = ValuePriorityMatcher(ParallelNetwork(8, 2), random.Random(0))
        scheduler = HolDelayScheduler(matcher, alpha=0.001)
        queue = PiasDestQueue((), enabled=False)
        queue.enqueue_flow(make_flow(500, arrival=100.0))
        assert scheduler.request_payload(0, 1, queue, 600.0) == pytest.approx(500.0)

    def test_stateful_revert_on_rejected_grant(self):
        """A grant that loses the ACCEPT race refunds its reservation."""
        topo = ParallelNetwork(4, 1)
        scheduler = StatefulScheduler(
            NegotiaToRMatcher(topo, random.Random(0)),
            phase_capacity_bytes=1000,
        )
        # Source 0 requests both destinations; with one port it can accept
        # only one grant per epoch, the other must be reverted.
        queue_a = PiasDestQueue((), enabled=False)
        queue_a.enqueue_flow(make_flow(5000, dst=1))
        queue_b = PiasDestQueue((), enabled=False)
        queue_b.enqueue_flow(make_flow(5000, dst=2))
        requests = {
            1: {0: scheduler.request_payload(0, 1, queue_a, 0.0)},
            2: {0: scheduler.request_payload(0, 2, queue_b, 0.0)},
        }
        scheduler.advance(requests, lambda g: g)
        scheduler.advance({}, lambda g: g)  # grants epoch (reserved twice)
        reserved = scheduler.demand_estimate(1, 0) + scheduler.demand_estimate(2, 0)
        assert reserved == pytest.approx(10_000 - 2 * 1000)
        matches, _, _ = scheduler.advance({}, lambda g: g)  # accept epoch
        assert len(matches) == 1
        # One reservation was refunded at the next advance.
        scheduler.advance({}, lambda g: g)
        total = scheduler.demand_estimate(1, 0) + scheduler.demand_estimate(2, 0)
        assert total == pytest.approx(10_000 - 2 * 1000 + 1000)

    def test_stateful_lost_grant_is_refunded_too(self):
        topo = ParallelNetwork(4, 1)
        scheduler = StatefulScheduler(
            NegotiaToRMatcher(topo, random.Random(0)),
            phase_capacity_bytes=1000,
        )
        queue = PiasDestQueue((), enabled=False)
        queue.enqueue_flow(make_flow(5000))
        requests = {1: {0: scheduler.request_payload(0, 1, queue, 0.0)}}
        scheduler.advance(requests, lambda g: g)
        scheduler.advance({}, lambda g: {})  # grant issued but lost
        assert scheduler.demand_estimate(1, 0) == pytest.approx(4000)
        scheduler.advance({}, lambda g: g)  # nothing accepted
        scheduler.advance({}, lambda g: g)  # refund lands
        assert scheduler.demand_estimate(1, 0) == pytest.approx(5000)


class TestMixedFailureAndBuffering:
    def test_failures_and_receiver_buffers_compose(self):
        """rx_usable composes detection with admission; the run stays sane."""
        from repro.sim.failures import Direction, FailurePlan, LinkRef

        config = SimConfig(
            num_tors=8, ports_per_tor=2, uplink_gbps=100.0,
            host_aggregate_gbps=100.0, receiver_buffer_bytes=200_000,
        )
        plan = FailurePlan()
        plan.add_failure(0.0, LinkRef(1, 0, Direction.INGRESS))
        flows = [
            make_flow(300_000, fid=0, src=2, dst=1),
            make_flow(300_000, fid=1, src=3, dst=1),
        ]
        sim = NegotiaToRSimulator(
            config, ParallelNetwork(8, 2), flows, failure_plan=plan
        )
        sim.run(2_000_000)
        injected = sum(f.size_bytes for f in flows)
        left = sum(f.remaining_bytes for f in flows)
        assert sim.tracker.delivered_bytes + left == injected
        assert sim.tracker.delivered_bytes > 0


class TestInOrderDelivery:
    """Section 3.6.5: per-pair byte delivery times are non-decreasing."""

    @pytest.mark.parametrize("topology_cls", ["parallel", "thinclos"])
    def test_pair_deliveries_are_time_ordered(self, topology_cls):
        config = SimConfig(
            num_tors=8, ports_per_tor=2, uplink_gbps=100.0,
            host_aggregate_gbps=100.0,
        )
        topo = (
            ParallelNetwork(8, 2) if topology_cls == "parallel"
            else ThinClos(8, 2, 4)
        )
        flows = [
            make_flow(40_000, fid=0),
            make_flow(5_000, fid=1, arrival=3000.0),
        ]
        sim = NegotiaToRSimulator(config, topo, flows)
        deliveries = []
        original = sim.tracker.deliver

        def spy(flow, num_bytes, time_ns):
            deliveries.append((flow.fid, time_ns))
            original(flow, num_bytes, time_ns)

        sim.tracker.deliver = spy
        sim.run_until_complete(max_ns=10_000_000)
        times = [t for _fid, t in deliveries]
        assert times == sorted(times)


class TestSeedDeterminism:
    def test_identical_seeds_identical_results(self):
        def run(seed):
            from repro.workloads.generators import poisson_workload

            config = SimConfig(
                num_tors=8, ports_per_tor=2, uplink_gbps=100.0,
                host_aggregate_gbps=100.0, seed=seed,
            )
            flows = poisson_workload(
                hadoop(), 0.7, 8, 100.0, 150_000, random.Random(seed)
            )
            sim = NegotiaToRSimulator(config, ParallelNetwork(8, 2), flows)
            sim.run(150_000)
            return (
                sim.tracker.delivered_bytes,
                len(sim.tracker.completed_flows),
            )

        assert run(5) == run(5)
        assert run(5) != run(6)  # and the seed actually matters
