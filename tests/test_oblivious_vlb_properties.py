"""Property tests for the baseline's VLB spreading and rotor schedule."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Flow, ObliviousSimulator, SimConfig, ThinClos


def make_sim(flows, num_tors=8, ports=2, pq=True, seed=0):
    config = SimConfig(
        num_tors=num_tors,
        ports_per_tor=ports,
        uplink_gbps=100.0,
        host_aggregate_gbps=ports * 100.0 / 2.0,
        priority_queue_enabled=pq,
        seed=seed,
    )
    return ObliviousSimulator(config, ThinClos(num_tors, ports, num_tors // ports), flows)


class TestSpreading:
    @given(
        size=st.integers(1, 300_000),
        seed=st.integers(0, 2**16),
        pq=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_staged_bytes_equal_flow_size(self, size, seed, pq):
        """VLB spreading conserves bytes exactly across stage queues."""
        flow = Flow(fid=0, src=0, dst=1, size_bytes=size, arrival_ns=0.0)
        sim = make_sim([flow], pq=pq, seed=seed)
        sim._inject_arrivals(0.0)
        assert sim.direct_bytes_at(0) == size
        total = sum(
            queue.pending_bytes for queue in sim._direct[0].values()
        )
        assert total == size

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_elephant_spreads_to_every_intermediate(self, seed):
        """A flow with >= one cell per peer touches all N-1 stage queues.

        With PIAS disabled the flow is a single band, so the even split is
        exact; with PIAS each band spreads independently (checked below).
        """
        n = 8
        payload = 1115
        size = payload * (n - 1) * 3
        flow = Flow(fid=0, src=2, dst=5, size_bytes=size, arrival_ns=0.0)
        sim = make_sim([flow], pq=False, seed=seed)
        sim._inject_arrivals(0.0)
        assert len(sim._direct[2]) == n - 1
        per_queue = [q.pending_bytes for q in sim._direct[2].values()]
        # Even split within one byte of each other.
        assert max(per_queue) - min(per_queue) <= 1

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_pias_bands_spread_independently(self, seed):
        """Each PIAS band of an elephant spreads over the intermediates on
        its own, so every stage queue gets its share of the big band while
        the 1 KB top band lands on a single lucky peer."""
        n = 8
        size = 1115 * (n - 1) * 3
        flow = Flow(fid=0, src=2, dst=5, size_bytes=size, arrival_ns=0.0)
        sim = make_sim([flow], seed=seed)
        sim._inject_arrivals(0.0)
        assert len(sim._direct[2]) == n - 1
        band0_totals = [q.band_bytes(0) for q in sim._direct[2].values()]
        assert sorted(band0_totals, reverse=True)[0] == 1000
        assert sum(band0_totals) == 1000

    @given(size=st.integers(1, 1000), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_single_cell_mouse_targets_one_intermediate(self, size, seed):
        # Up to 1000 B fits the top PIAS band in one cell.
        flow = Flow(fid=0, src=0, dst=3, size_bytes=size, arrival_ns=0.0)
        sim = make_sim([flow], seed=seed)
        sim._inject_arrivals(0.0)
        assert len(sim._direct[0]) == 1

    def test_spreading_is_seed_deterministic(self):
        def stage_map(seed):
            flow = Flow(fid=0, src=0, dst=3, size_bytes=5000, arrival_ns=0.0)
            sim = make_sim([flow], seed=seed)
            sim._inject_arrivals(0.0)
            return {
                peer: queue.pending_bytes
                for peer, queue in sim._direct[0].items()
            }

        assert stage_map(7) == stage_map(7)

    @given(
        sizes=st.lists(st.integers(1, 50_000), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_run_conserves_and_completes(self, sizes, seed):
        rng = random.Random(seed)
        flows = []
        for fid, size in enumerate(sizes):
            src = rng.randrange(8)
            dst = (src + rng.randrange(1, 8)) % 8
            flows.append(
                Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=0.0)
            )
        sim = make_sim(flows, seed=seed)
        assert sim.run_until_complete(max_ns=50_000_000)
        assert sim.tracker.delivered_bytes == sum(sizes)
        assert sim.total_queued_bytes == 0


class TestPiasBandsAtSources:
    def test_band_chunks_match_thresholds(self):
        sim = make_sim([])
        assert sim._band_chunks(500) == [(0, 500)]
        assert sim._band_chunks(4000) == [(0, 1000), (1, 3000)]
        assert sim._band_chunks(50_000) == [(0, 1000), (1, 9000), (2, 40_000)]

    def test_band_chunks_single_band_without_pq(self):
        sim = make_sim([], pq=False)
        assert sim._band_chunks(50_000) == [(0, 50_000)]

    @given(size=st.integers(1, 200_000))
    @settings(max_examples=60, deadline=None)
    def test_band_chunks_conserve_bytes(self, size):
        sim = make_sim([])
        assert sum(nbytes for _band, nbytes in sim._band_chunks(size)) == size


class TestRotorTiming:
    def test_first_hop_leaves_no_earlier_than_assigned_slot(self):
        """A staged cell departs only when the rotor offers its intermediate:
        its delivery is never before one slot plus propagation."""
        flow = Flow(fid=0, src=0, dst=1, size_bytes=500, arrival_ns=0.0)
        sim = make_sim([flow], seed=1)
        sim.run_until_complete(max_ns=10_000_000)
        assert flow.completed_ns >= sim.slot_ns + sim.config.propagation_ns

    def test_cells_of_one_flow_may_arrive_out_of_order(self):
        """VLB reorders across intermediates; completion still waits for the
        last byte (delivered bytes accumulate to the exact size)."""
        flow = Flow(fid=0, src=0, dst=1, size_bytes=20_000, arrival_ns=0.0)
        sim = make_sim([flow], seed=2)
        assert sim.run_until_complete(max_ns=10_000_000)
        assert flow.remaining_bytes == 0
        expected_cells = math.ceil(20_000 / 1115)
        assert expected_cells > 1  # the reordering scenario is exercised
