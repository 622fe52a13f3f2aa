"""Tests for the NegotiaToR simulator engine (sections 3.3 and 3.4).

The small-fabric timings used here are exact: with 8 ToRs x 2 ports the
parallel network needs ceil(7/2) = 4 predefined slots, so an epoch is
4*60 + 30*90 = 2940 ns.  Propagation is 2000 ns.
"""

import dataclasses
import random

import pytest

from repro import (
    BandwidthRecorder,
    EpochConfig,
    Flow,
    MatchRatioRecorder,
    NegotiaToRSimulator,
    ParallelNetwork,
    SimConfig,
    ThinClos,
    epoch_config_without_piggyback,
    expected_match_ratio,
    poisson_workload,
)
from repro.workloads.traces import hadoop

EPOCH_NS = 4 * 60 + 30 * 90  # 2940


def tiny_config(**overrides):
    defaults = dict(
        num_tors=8, ports_per_tor=2, uplink_gbps=100.0, host_aggregate_gbps=100.0
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def make_sim(flows, topology=None, config=None, **kwargs):
    config = config or tiny_config()
    topology = topology or ParallelNetwork(config.num_tors, config.ports_per_tor)
    return NegotiaToRSimulator(config, topology, flows, **kwargs)


def flow(fid=0, src=0, dst=1, size=500, arrival=0.0, tag=""):
    return Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=arrival, tag=tag)


class TestConstruction:
    def test_topology_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NegotiaToRSimulator(tiny_config(), ParallelNetwork(16, 2), [])
        with pytest.raises(ValueError):
            NegotiaToRSimulator(tiny_config(), ParallelNetwork(8, 4), [])

    def test_epoch_timing_derived_from_topology(self):
        sim = make_sim([])
        assert sim.timing.predefined_slots == 4
        assert sim.timing.epoch_ns == pytest.approx(EPOCH_NS)

    def test_queue_accessor(self):
        sim = make_sim([flow()])
        with pytest.raises(ValueError):
            sim.queue(3, 3)
        assert sim.queue(0, 1).is_empty  # not injected until first epoch

    def test_queues_are_created_on_first_enqueue(self):
        sim = make_sim([flow(src=2, dst=5, size=5_000)])
        assert not any(sim._queues)
        sim.step_epoch()
        assert [sorted(row) for row in sim._queues] == [
            [], [], [5], [], [], [], [], []
        ]
        queue = sim.queue(2, 5)
        sim.step_epoch()
        assert sim.queue(2, 5) is queue  # kept once created


class TestPiggybackPath:
    """Mice data rides the predefined phase without any scheduling."""

    def test_small_flow_completes_via_piggyback_in_first_epoch(self):
        # Pair (0, 1) meets at offset 1 -> slot 0, port 0 in epoch 0.
        sim = make_sim([flow(size=500, arrival=0.0)])
        sim.step_epoch()
        f = sim.tracker.flows[0]
        assert f.completed
        # Delivered at predefined slot 0 end (60 ns) + propagation.
        assert f.completed_ns == pytest.approx(60.0 + 2000.0)

    def test_piggyback_slot_depends_on_pair(self):
        # Pair (0, 5): offset 5 -> index 4 -> slot 2, port 0 in epoch 0.
        sim = make_sim([flow(dst=5, size=500)])
        sim.step_epoch()
        f = sim.tracker.flows[0]
        assert f.completed_ns == pytest.approx(3 * 60.0 + 2000.0)

    def test_flow_larger_than_piggyback_needs_multiple_epochs(self):
        # 1 KB = 595 B in epoch 0 + 405 B in epoch 1 (no request: 1 KB is
        # under the 1785 B threshold).
        sim = make_sim([flow(size=1000)])
        sim.step_epoch()
        assert not sim.tracker.flows[0].completed
        sim.step_epoch()
        f = sim.tracker.flows[0]
        assert f.completed
        # Epoch 1 rotates the round-robin rule: pair (0,1) offset 1 ->
        # index (1-1-1) % 7 = 6 -> slot 3, port 0.
        assert f.completed_ns == pytest.approx(EPOCH_NS + 4 * 60.0 + 2000.0)

    def test_mid_epoch_arrival_waits_for_eligibility(self):
        # Arrival after the pair's predefined slot of epoch 0 (at 60 ns)
        # cannot ride epoch 0's piggyback.
        sim = make_sim([flow(size=500, arrival=100.0)])
        sim.step_epoch()
        assert not sim.tracker.flows[0].completed
        sim.step_epoch()
        assert sim.tracker.flows[0].completed

    def test_piggyback_disabled_forces_scheduling(self):
        epoch = epoch_config_without_piggyback(EpochConfig(), 100.0, 4)
        config = tiny_config(epoch=epoch)
        sim = make_sim([flow(size=500)], config=config)
        for _ in range(2):
            sim.step_epoch()
        assert not sim.tracker.flows[0].completed  # still in pipeline
        sim.step_epoch()  # accept epoch: scheduled phase delivers
        assert sim.tracker.flows[0].completed


class TestScheduledPath:
    def test_elephant_follows_two_epoch_scheduling_delay(self):
        """Request at epoch 0 -> grant 1 -> accept + transmit at epoch 2."""
        size = 50_000
        sim = make_sim([flow(size=size, arrival=-1.0)])
        sent_per_epoch = []
        for _ in range(4):
            before = sim.tracker.delivered_bytes
            sim.step_epoch()
            sent_per_epoch.append(sim.tracker.delivered_bytes - before)
        # Epochs 0 and 1 deliver only piggybacked packets; the flow's 1000 B
        # PIAS band 0 yields 595 B then its 405 B remainder.
        assert sent_per_epoch[0] == 595
        assert sent_per_epoch[1] == 405
        # Epoch 2 adds scheduled traffic on both ports (2 x 30 slots).
        assert sent_per_epoch[2] > 2 * 595

    def test_scheduled_delivery_time_is_slot_exact(self):
        """A single scheduled packet lands at phase start + slot + prop."""
        # 2380 B: three piggybacks (epochs 0-2) leave 595 B for epoch 2's
        # scheduled phase (requests fire: 2380 > 1785 threshold).
        sim = make_sim([flow(size=3 * 595 + 595, arrival=-1.0)])
        for _ in range(3):
            sim.step_epoch()
        f = sim.tracker.flows[0]
        assert f.completed
        # Epoch 2: piggyback at slot for offset 1 with rotation 2 -> index
        # (1-1-2) % 7 = 5 -> slot 2 (port 1); then scheduled slot 0 carries
        # the final 595 B: predefined (240) + slot (90) + prop.
        expected = 2 * EPOCH_NS + 4 * 60.0 + 90.0 + 2000.0
        assert f.completed_ns == pytest.approx(expected)

    def test_all_flows_eventually_complete(self):
        flows = [
            flow(fid=i, src=i % 8, dst=(i * 3 + 1) % 8, size=20_000 + i)
            for i in range(20)
            if i % 8 != (i * 3 + 1) % 8
        ]
        sim = make_sim(flows)
        assert sim.run_until_complete(max_ns=5_000_000)
        assert sim.tracker.all_complete

    def test_multi_port_parallel_transmission(self):
        """A lone elephant pair gets both ports and drains twice as fast."""
        size = 500_000
        sim = make_sim([flow(size=size, arrival=-1.0)])
        for _ in range(3):
            sim.step_epoch()
        # Piggybacks: 595 + 405 (band 0 exhausted) + 595 (band 1).  Epoch 2's
        # scheduled phase has 2 ports x 30 slots: band 1's remaining 8405 B
        # occupy 8 packets (the last underfilled), then 52 full band-2 packets.
        piggybacked = 595 + 405 + 595
        scheduled = 8405 + 52 * 1115
        assert sim.tracker.delivered_bytes == piggybacked + scheduled


class TestConservation:
    @pytest.mark.parametrize("topology_cls", ["parallel", "thinclos"])
    def test_bytes_are_conserved(self, topology_cls):
        config = tiny_config()
        topo = (
            ParallelNetwork(8, 2)
            if topology_cls == "parallel"
            else ThinClos(8, 2, 4)
        )
        flows = poisson_workload(
            hadoop(), 0.8, 8, config.host_aggregate_gbps, 200_000,
            random.Random(5),
        )
        sim = NegotiaToRSimulator(config, topo, flows)
        sim.run(200_000)
        injected = sum(f.size_bytes for f in flows)
        left = sum(f.remaining_bytes for f in flows)
        assert sim.tracker.delivered_bytes + left == injected
        assert sim.total_queued_bytes == left

    def test_no_delivery_before_arrival_plus_propagation(self):
        config = tiny_config()
        flows = poisson_workload(
            hadoop(), 0.5, 8, config.host_aggregate_gbps, 100_000,
            random.Random(6),
        )
        sim = make_sim(flows, config=config)
        sim.run_until_complete(max_ns=10_000_000)
        for f in flows:
            assert f.completed_ns >= f.arrival_ns + config.propagation_ns


class TestMatchRatio:
    def test_heavy_load_ratio_matches_theory(self):
        """Appendix A.1: the simulated match ratio tracks 1-(1-1/n)^n."""
        config = tiny_config(num_tors=16, ports_per_tor=4, host_aggregate_gbps=200.0)
        flows = poisson_workload(
            hadoop(), 1.0, 16, 200.0, 1_500_000, random.Random(9),
        )
        recorder = MatchRatioRecorder()
        sim = NegotiaToRSimulator(
            config, ParallelNetwork(16, 4), flows, match_recorder=recorder
        )
        sim.run(1_500_000)
        assert recorder.mean_ratio() == pytest.approx(
            expected_match_ratio(16), abs=0.05
        )


class TestPriorityQueues:
    def test_pq_protects_mice_behind_elephants(self):
        """With PQ disabled, a mice flow behind an elephant waits longer."""

        def run(pq_enabled):
            config = tiny_config(priority_queue_enabled=pq_enabled)
            flows = [
                flow(fid=0, size=400_000, arrival=0.0),
                flow(fid=1, size=500, arrival=1.0),
            ]
            sim = make_sim(flows, config=config)
            sim.run_until_complete(max_ns=10_000_000)
            return flows[1].fct_ns

        assert run(True) < run(False)


class TestBandwidthRecording:
    def test_rx_and_pair_keys(self):
        recorder = BandwidthRecorder(bin_ns=EPOCH_NS)
        sim = make_sim(
            [flow(size=5000, arrival=-1.0)],
            bandwidth_recorder=recorder,
            record_pair_bandwidth=True,
        )
        sim.run_until_complete(max_ns=1_000_000)
        assert recorder.total_bytes(("rx", 1)) == 5000
        assert recorder.total_bytes(("pair", 0, 1)) == 5000


class TestRunLoops:
    def test_run_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            make_sim([]).run(0)

    def test_run_until_complete_times_out(self):
        sim = make_sim([flow(size=10_000_000)])
        assert not sim.run_until_complete(max_ns=3 * EPOCH_NS)

    def test_summary_counts(self):
        sim = make_sim([flow(size=500)])
        sim.run(EPOCH_NS * 2)
        summary = sim.summary()
        assert summary.num_flows == 1
        assert summary.num_completed == 1
        assert summary.epoch_ns == pytest.approx(EPOCH_NS)
        assert summary.mice_fct_p99_ns is not None

    def test_summary_with_no_mice(self):
        sim = make_sim([])
        sim.run(EPOCH_NS)
        summary = sim.summary()
        assert summary.mice_fct_p99_ns is None
        assert summary.goodput_normalized == 0.0
