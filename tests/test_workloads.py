"""Tests for workload generation (sections 4.1, 4.2, 4.4)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.flows import Flow
from repro.workloads.distributions import EmpiricalCDF, FixedSize
from repro.workloads.generators import (
    merge_workloads,
    network_arrival_rate_per_ns,
    poisson_workload,
    single_pair_stream,
    uniform_pair,
)
from repro.workloads.incast import (
    all_to_all_workload,
    incast_finish_time_ns,
    incast_workload,
    mixed_incast_workload,
)
from repro.workloads.streams import poisson_flow_stream
from repro.workloads.traces import by_name, google, hadoop, websearch


class TestEmpiricalCDF:
    def simple(self):
        return EmpiricalCDF([(100, 0.0), (1000, 0.5), (10000, 1.0)], name="t")

    def test_quantile_endpoints(self):
        cdf = self.simple()
        assert cdf.quantile(0.0) == pytest.approx(100)
        assert cdf.quantile(1.0) == pytest.approx(10000)

    def test_quantile_log_interpolation(self):
        cdf = self.simple()
        assert cdf.quantile(0.25) == pytest.approx(math.sqrt(100 * 1000))

    def test_cdf_inverts_quantile(self):
        cdf = self.simple()
        for u in (0.1, 0.3, 0.5, 0.9):
            assert cdf.cdf(cdf.quantile(u)) == pytest.approx(u)

    def test_samples_within_range(self):
        cdf = self.simple()
        rng = random.Random(0)
        for _ in range(200):
            assert 100 <= cdf.sample(rng) <= 10000

    def test_mean_matches_sampling(self):
        cdf = self.simple()
        rng = random.Random(0)
        empirical = sum(cdf.sample(rng) for _ in range(40000)) / 40000
        assert empirical == pytest.approx(cdf.mean(), rel=0.03)

    def test_bytes_fraction_above(self):
        cdf = self.simple()
        assert cdf.bytes_fraction_above(0) == pytest.approx(1.0)
        assert cdf.bytes_fraction_above(10000) == pytest.approx(0.0)
        assert 0.5 < cdf.bytes_fraction_above(1000) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([(100, 0.0)])
        with pytest.raises(ValueError):
            EmpiricalCDF([(100, 0.1), (200, 1.0)])  # must start at 0
        with pytest.raises(ValueError):
            EmpiricalCDF([(100, 0.0), (200, 0.5)])  # must end at 1
        with pytest.raises(ValueError):
            EmpiricalCDF([(100, 0.0), (50, 1.0)])  # sizes must increase
        with pytest.raises(ValueError):
            EmpiricalCDF([(100, 0.0), (200, 0.0), (300, 1.0)])  # probs strict

    def test_fixed_size(self):
        dist = FixedSize(500)
        assert dist.sample(random.Random(0)) == 500
        assert dist.mean() == 500.0
        with pytest.raises(ValueError):
            FixedSize(0)


class TestTraces:
    def test_hadoop_headline_statistics(self):
        """60% of flows < 1 KB; >80% of bytes from flows > 100 KB (section 4.1)."""
        cdf = hadoop()
        assert cdf.cdf(1000) == pytest.approx(0.60, abs=0.02)
        assert cdf.bytes_fraction_above(100_000) > 0.80

    def test_websearch_headline_statistics(self):
        """More than 80% of flows exceed 10 KB (section 4.4)."""
        cdf = websearch()
        assert cdf.cdf(10_000) < 0.20 + 0.01

    def test_google_headline_statistics(self):
        """More than 80% of flows are below 1 KB (section 4.4)."""
        cdf = google()
        assert cdf.cdf(1000) > 0.80

    def test_relative_weights(self):
        """Websearch is the heavy workload, Google the light one."""
        assert websearch().mean() > hadoop().mean() > google().mean()

    def test_lookup_by_name(self):
        assert by_name("hadoop").name == "hadoop"
        with pytest.raises(ValueError):
            by_name("bing")


class TestLoadModel:
    def test_rate_formula(self):
        # L=1, F=125000 B = 1e6 bits, R*N = 400*4 = 1600 Gbps -> 1600e9/1e6
        # flows/s = 1.6e-3 flows/ns.
        rate = network_arrival_rate_per_ns(1.0, 125_000, 4, 400.0)
        assert rate == pytest.approx(1.6e-3)

    def test_rate_scales_linearly_with_load(self):
        r1 = network_arrival_rate_per_ns(0.5, 1000, 8, 400.0)
        r2 = network_arrival_rate_per_ns(1.0, 1000, 8, 400.0)
        assert r2 == pytest.approx(2 * r1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            network_arrival_rate_per_ns(0.0, 1000, 8, 400.0)
        with pytest.raises(ValueError):
            network_arrival_rate_per_ns(1.0, 0, 8, 400.0)


class TestPoissonWorkload:
    def test_offered_load_matches_target(self):
        rng = random.Random(42)
        load, duration = 0.6, 10_000_000
        flows = poisson_workload(
            hadoop(), load, num_tors=16, host_aggregate_gbps=400.0,
            duration_ns=duration, rng=rng,
        )
        offered_bits = sum(f.size_bytes for f in flows) * 8
        capacity_bits = 400.0 * 16 * duration
        assert offered_bits / capacity_bits == pytest.approx(load, rel=0.15)

    def test_arrivals_sorted_and_in_range(self):
        flows = poisson_workload(
            FixedSize(1000), 0.5, 8, 400.0, 100_000, random.Random(0)
        )
        times = [f.arrival_ns for f in flows]
        assert times == sorted(times)
        assert all(0 <= t < 100_000 for t in times)

    def test_pairs_are_valid(self):
        flows = poisson_workload(
            FixedSize(1000), 0.5, 8, 400.0, 100_000, random.Random(0)
        )
        assert all(f.src != f.dst for f in flows)
        assert all(0 <= f.src < 8 and 0 <= f.dst < 8 for f in flows)

    def test_fids_unique(self):
        flows = poisson_workload(
            FixedSize(1000), 0.5, 8, 400.0, 100_000, random.Random(0)
        )
        fids = [f.fid for f in flows]
        assert len(set(fids)) == len(fids)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_uniform_pair_never_self(self, seed):
        rng = random.Random(seed)
        src, dst = uniform_pair(8, rng)
        assert src != dst
        assert 0 <= src < 8 and 0 <= dst < 8

    @pytest.mark.parametrize("duration_ns", [0, -1, math.inf, math.nan])
    @pytest.mark.parametrize(
        "generate", [poisson_workload, poisson_flow_stream]
    )
    def test_rejects_zero_duration(self, generate, duration_ns):
        """Both generators share one check; the stream raises on its
        first ``next()``."""
        args = (FixedSize(10), 1.0, 8, 400.0, duration_ns, random.Random(0))
        with pytest.raises(ValueError, match="positive and finite"):
            next(iter(generate(*args)))


class TestIncastWorkloads:
    def test_incast_shape(self):
        flows = incast_workload(16, degree=5, dst=3, at_ns=100.0)
        assert len(flows) == 5
        assert all(f.dst == 3 and f.src != 3 for f in flows)
        assert all(f.arrival_ns == 100.0 for f in flows)
        assert len({f.src for f in flows}) == 5
        assert all(f.tag == "incast" for f in flows)

    def test_incast_random_sources(self):
        flows = incast_workload(16, degree=5, dst=3, rng=random.Random(0))
        assert all(f.src != 3 for f in flows)

    def test_incast_degree_bounds(self):
        with pytest.raises(ValueError):
            incast_workload(8, degree=8, dst=0)
        with pytest.raises(ValueError):
            incast_workload(8, degree=0, dst=0)

    def test_finish_time(self):
        flows = incast_workload(8, degree=2, dst=0, at_ns=50.0)
        with pytest.raises(ValueError):
            incast_finish_time_ns(flows, 50.0)  # not finished yet
        for i, f in enumerate(flows):
            f.remaining_bytes = 0
            f.completed_ns = 100.0 + i
        assert incast_finish_time_ns(flows, 50.0) == pytest.approx(51.0)

    def test_all_to_all_covers_every_pair(self):
        flows = all_to_all_workload(6, flow_bytes=100)
        assert len(flows) == 30
        assert {(f.src, f.dst) for f in flows} == {
            (s, d) for s in range(6) for d in range(6) if s != d
        }

    def test_mixed_workload_bandwidth_share(self):
        rng = random.Random(7)
        duration = 20_000_000
        flows = mixed_incast_workload(
            hadoop(), 0.5, 16, 400.0, duration, rng,
            incast_degree=4, incast_bandwidth_fraction=0.02,
        )
        incast_bits = sum(
            f.size_bytes * 8 for f in flows if f.tag == "incast"
        )
        assert incast_bits / (400.0 * 16 * duration) == pytest.approx(
            0.02, rel=0.35
        )
        tags = {f.tag for f in flows}
        assert tags == {"incast", "background"}
        times = [f.arrival_ns for f in flows]
        assert times == sorted(times)

    def test_mixed_workload_fids_unique(self):
        flows = mixed_incast_workload(
            hadoop(), 0.3, 8, 400.0, 2_000_000, random.Random(1),
        )
        fids = [f.fid for f in flows]
        assert len(set(fids)) == len(fids)


class TestStreamsAndMerge:
    def test_single_flow_stream(self):
        flows = single_pair_stream(0, 1, total_bytes=1000)
        assert len(flows) == 1
        assert flows[0].size_bytes == 1000

    def test_chunked_stream(self):
        flows = single_pair_stream(0, 1, total_bytes=2500, chunk_bytes=1000)
        assert [f.size_bytes for f in flows] == [1000, 1000, 500]

    def test_merge_sorts_by_arrival(self):
        import itertools

        fids = itertools.count()
        a = single_pair_stream(0, 1, 100, start_ns=50.0, fids=fids)
        b = single_pair_stream(1, 2, 100, start_ns=10.0, fids=fids)
        merged = merge_workloads(a, b)
        assert [f.arrival_ns for f in merged] == [10.0, 50.0]

    def test_merge_rejects_fid_collision(self):
        a = single_pair_stream(0, 1, 100)
        b = single_pair_stream(1, 2, 100)
        with pytest.raises(ValueError):
            merge_workloads(a, b)

    def test_merge_orders_equal_arrivals_by_fid(self):
        # Equal-arrival flows from different workloads interleave in fid
        # order, whatever the argument order — this ordering feeds spec
        # hashes and golden digests, so it is pinned.
        import itertools

        fids = itertools.count()
        a = single_pair_stream(0, 1, 300, chunk_bytes=100, fids=fids)  # 0,1,2
        b = single_pair_stream(1, 2, 300, chunk_bytes=100, fids=fids)  # 3,4,5
        assert [f.fid for f in merge_workloads(a, b)] == [0, 1, 2, 3, 4, 5]
        assert [f.fid for f in merge_workloads(b, a)] == [0, 1, 2, 3, 4, 5]

    def test_merge_is_a_heap_merge_not_a_sort(self):
        # Unsorted inputs raise instead of being silently re-sorted.
        unsorted = [
            Flow(fid=0, src=0, dst=1, size_bytes=100, arrival_ns=50.0),
            Flow(fid=1, src=1, dst=2, size_bytes=100, arrival_ns=10.0),
        ]
        with pytest.raises(ValueError, match="out of order"):
            merge_workloads(unsorted)
