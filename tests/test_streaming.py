"""The streaming data path: lazy sources, bounded tracker, online metrics.

Three contracts from DESIGN.md section 11:

* **Equivalence** — for any workload, every engine produces the same
  simulation under streaming and materialized execution: every exact
  ``RunSummary`` field (counts, goodput, duration) is bit-identical, the
  FCT p99 is bit-identical while the completed-mice count fits the
  reservoir, and the mean matches to float-summation-order tolerance.
  The property over randomized traces, with and without link failures,
  runs on every registered system in tests/test_invariants.py; this file
  keeps the spec-level and edge-case checks.
* **Boundedness** — a ~million-flow stream holds orders of magnitude fewer
  ``Flow`` objects live than the trace carries, witnessed both by the
  tracker's high-water counter and a gc census.
* **Determinism plumbing** — the ``stream`` spec field stays out of the
  canonical JSON when False (hash stability for every pre-existing store
  and baseline), and streaming spec execution matches materialized
  execution field by field; ``repro sweep --stream`` runs a count-sized
  trace to completion on every streaming system.
"""

from __future__ import annotations

import gc
import itertools
import math
import random

import pytest

from repro.cli import main
from repro.experiments.common import MICRO, SYSTEMS, make_topology, sim_config
from repro.sim.flows import Flow, FlowTracker, ReservoirSampler
from repro.sim.network import NegotiaToRSimulator
from repro.sim.oblivious import ObliviousSimulator
from repro.sim.source import MaterializedFlowSource, StreamingFlowSource
from repro.sweep import ResultStore, RunSpec, execute_spec, scale_spec_fields
from repro.workloads.distributions import FixedSize
from repro.workloads.streams import (
    heavy_poisson_span_ns,
    heavy_poisson_stream,
    merge_workload_streams,
    poisson_flow_stream,
)
from repro.workloads.generators import (
    network_arrival_rate_per_ns,
    poisson_workload,
    uniform_pair,
)
from repro.workloads.traces import hadoop

NUM_TORS = MICRO.num_tors
DURATION_NS = 60_000.0


# ---------------------------------------------------------------------------
# reservoir sampler
# ---------------------------------------------------------------------------


class TestReservoirSampler:
    def test_exact_below_capacity(self):
        sampler = ReservoirSampler(100, random.Random(0))
        values = [float(v) for v in range(50)]
        for v in values:
            sampler.add(v)
        assert sampler.exact
        assert sampler.count == 50
        assert sampler.sum == sum(values)
        assert sampler.percentile(99) == float(
            __import__("numpy").percentile(values, 99)
        )

    def test_counts_stay_exact_beyond_capacity(self):
        sampler = ReservoirSampler(10, random.Random(0))
        for v in range(1000):
            sampler.add(float(v))
        assert not sampler.exact
        assert sampler.count == 1000
        assert sampler.sum == sum(float(v) for v in range(1000))
        assert sampler.mean() == sampler.sum / 1000

    def test_estimate_is_plausible_beyond_capacity(self):
        # A 500-value reservoir of 20k uniform draws: p99 lands near the
        # true p99 — loose band, but this run is seeded and deterministic.
        sampler = ReservoirSampler(500, random.Random(7))
        rng = random.Random(42)
        for _ in range(20_000):
            sampler.add(rng.uniform(0.0, 1000.0))
        assert 950.0 < sampler.percentile(99) <= 1000.0

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0, random.Random(0))
        sampler = ReservoirSampler(4, random.Random(0))
        with pytest.raises(ValueError):
            sampler.mean()

    def test_empty_percentile_is_none(self):
        # A bounded tracker with zero completions answers percentile
        # queries with None — consistent with materialized-mode empty
        # summaries — rather than raising from inside numpy.
        sampler = ReservoirSampler(4, random.Random(0))
        assert sampler.percentile(50) is None
        assert sampler.percentile(99) is None
        sampler.add(10.0)
        assert sampler.percentile(99) == 10.0


# ---------------------------------------------------------------------------
# bounded tracker
# ---------------------------------------------------------------------------


def _completed_flow(fid, size, fct):
    flow = Flow(fid=fid, src=0, dst=1, size_bytes=size, arrival_ns=100.0)
    tracker_stub = FlowTracker(2)
    tracker_stub.register(flow)
    tracker_stub.deliver(flow, size, 100.0 + fct)
    return flow


class TestBoundedTracker:
    def test_views_raise_in_bounded_mode(self):
        tracker = FlowTracker(4, retain_flows=False)
        for view in (
            lambda: tracker.flows,
            lambda: tracker.completed_flows,
            lambda: tracker.mice_flows(),
            lambda: tracker.flows_with_tag("x"),
        ):
            with pytest.raises(ValueError, match="bounded-memory"):
                view()

    def test_folds_and_evicts(self):
        tracker = FlowTracker(4, retain_flows=False, reservoir_seed=3)
        flow = Flow(fid=0, src=0, dst=1, size_bytes=2000, arrival_ns=10.0)
        tracker.register(flow)
        assert tracker.live_flows == 1
        tracker.deliver(flow, 2000, 110.0)
        assert tracker.live_flows == 0
        assert tracker.peak_live_flows == 1
        assert tracker.num_flows == 1
        assert tracker.num_completed == 1
        assert tracker.all_complete
        p99, mean = tracker.mice_fct_summary()
        assert p99 == 100.0 and mean == 100.0
        assert tracker.all_fct_sample.count == 1

    def test_threshold_is_fixed_at_fold_time(self):
        tracker = FlowTracker(4, retain_flows=False, mice_threshold_bytes=5000)
        with pytest.raises(ValueError, match="folded mice at 5000"):
            tracker.mice_fct_summary(10_000)

    def test_materialized_summary_unchanged(self):
        tracker = FlowTracker(4)
        flow = Flow(fid=0, src=0, dst=1, size_bytes=2000, arrival_ns=10.0)
        tracker.register(flow)
        tracker.deliver(flow, 2000, 110.0)
        assert tracker.mice_fct_summary() == (100.0, 100.0)
        assert tracker.flows == [flow]
        assert tracker.peak_live_flows == 1


# ---------------------------------------------------------------------------
# flow sources
# ---------------------------------------------------------------------------


class TestFlowSources:
    def _flows(self):
        return [
            Flow(fid=i, src=0, dst=1, size_bytes=100, arrival_ns=10.0 * i)
            for i in range(3)
        ]

    def test_materialized_sorts_and_serves(self):
        flows = self._flows()
        source = MaterializedFlowSource(reversed(flows))
        assert source.next_arrival_ns == 0.0
        assert [source.pop().fid for _ in range(3)] == [0, 1, 2]
        assert source.next_arrival_ns is None
        with pytest.raises(ValueError, match="exhausted"):
            source.pop()

    def test_streaming_is_lazy_and_ordered(self):
        pulled = []

        def gen():
            for flow in self._flows():
                pulled.append(flow.fid)
                yield flow

        source = StreamingFlowSource(gen())
        # Only the one-flow lookahead has been pulled.
        assert pulled == [0]
        assert source.pop().fid == 0
        assert pulled == [0, 1]
        assert source.next_arrival_ns == 10.0

    def test_streaming_rejects_backwards_arrivals(self):
        flows = [
            Flow(fid=0, src=0, dst=1, size_bytes=100, arrival_ns=50.0),
            Flow(fid=1, src=0, dst=1, size_bytes=100, arrival_ns=10.0),
        ]
        source = StreamingFlowSource(iter(flows))
        with pytest.raises(ValueError, match="non-decreasing"):
            source.pop()


# ---------------------------------------------------------------------------
# lazy generators
# ---------------------------------------------------------------------------


def _duration_loop(
    size_dist, load, num_tors, host_aggregate_gbps, duration_ns, rng, tag=""
):
    """The duration-bounded Poisson loop as it stood before the two
    stream generators shared one loop, kept verbatim as a reference."""
    rate = network_arrival_rate_per_ns(
        load, size_dist.mean(), num_tors, host_aggregate_gbps
    )
    fids = itertools.count()
    t = rng.expovariate(rate)
    while t < duration_ns:
        src, dst = uniform_pair(num_tors, rng)
        yield Flow(
            fid=next(fids),
            src=src,
            dst=dst,
            size_bytes=size_dist.sample(rng),
            arrival_ns=t,
            tag=tag,
        )
        t += rng.expovariate(rate)


def _count_loop(
    size_dist, load, num_tors, host_aggregate_gbps, num_flows, rng, tag=""
):
    """The count-bounded Poisson loop as it stood before the two stream
    generators shared one loop, kept verbatim as a reference."""
    rate = network_arrival_rate_per_ns(
        load, size_dist.mean(), num_tors, host_aggregate_gbps
    )
    fids = itertools.count()
    t = 0.0
    for _ in range(num_flows):
        t += rng.expovariate(rate)
        src, dst = uniform_pair(num_tors, rng)
        yield Flow(
            fid=next(fids),
            src=src,
            dst=dst,
            size_bytes=size_dist.sample(rng),
            arrival_ns=t,
            tag=tag,
        )


class TestStreamGenerators:
    @pytest.mark.parametrize(
        "stream, reference, bound",
        [
            (poisson_flow_stream, _duration_loop, 1_000_000.0),
            (heavy_poisson_stream, _count_loop, 300),
        ],
    )
    @pytest.mark.parametrize("num_tors", [8, 12, 128])
    def test_shared_loop_keeps_each_draw_sequence(
        self, stream, reference, bound, num_tors
    ):
        """The Hadoop CDF draws for sizes (FixedSize draws nothing), so
        equal flows and equal final RNG states pin the whole draw order,
        including the one overshooting gap a duration bound draws.  The
        fabric sizes make ``randrange`` reject a different share of its
        bit draws for the pair: 8 of 16 for 8 ToRs' sources, 4 of 16 for
        12, and 128 of 256 for 128."""
        args = (hadoop(), 0.4, num_tors, MICRO.host_aggregate_gbps, bound)
        rng, reference_rng = random.Random(5), random.Random(5)
        flows = list(stream(*args, rng, tag="t"))
        assert len(flows) > 100, "vacuous without flows"
        assert flows == list(reference(*args, reference_rng, tag="t"))
        assert rng.getstate() == reference_rng.getstate()

    def test_poisson_stream_matches_materialized(self):
        args = (FixedSize(1500), 0.6, NUM_TORS, MICRO.host_aggregate_gbps)
        eager = poisson_workload(*args, 50_000.0, random.Random(11))
        lazy = list(poisson_flow_stream(*args, 50_000.0, random.Random(11)))
        assert lazy == eager

    def test_heavy_poisson_is_a_superset_prefix(self):
        # Same seed: the count-sized stream yields the duration-bounded
        # stream's flows first, then keeps going.
        args = (FixedSize(1500), 0.6, NUM_TORS, MICRO.host_aggregate_gbps)
        eager = poisson_workload(*args, 50_000.0, random.Random(11))
        assert eager, "vacuous without flows"
        heavy = list(
            itertools.islice(
                heavy_poisson_stream(*args, len(eager), random.Random(11)),
                len(eager),
            )
        )
        assert heavy == eager

    def test_heavy_poisson_count_and_span(self):
        args = (FixedSize(1000), 0.5, NUM_TORS, MICRO.host_aggregate_gbps)
        flows = list(heavy_poisson_stream(*args, 500, random.Random(2)))
        assert len(flows) == 500
        arrivals = [f.arrival_ns for f in flows]
        assert arrivals == sorted(arrivals)
        span = heavy_poisson_span_ns(*args, 500)
        # The realized span concentrates around the expectation.
        assert 0.5 * span < arrivals[-1] < 2.0 * span

    def test_merge_streams_is_lazy(self):
        def endless(start_fid):
            for i in itertools.count():
                yield Flow(
                    fid=start_fid + 2 * i,
                    src=0,
                    dst=1,
                    size_bytes=100,
                    arrival_ns=float(i),
                )

        merged = merge_workload_streams(endless(0), endless(1))
        head = list(itertools.islice(merged, 6))
        assert [f.fid for f in head] == [0, 1, 2, 3, 4, 5]

    def test_merge_rejects_unsorted_stream(self):
        flows = [
            Flow(fid=0, src=0, dst=1, size_bytes=100, arrival_ns=50.0),
            Flow(fid=1, src=0, dst=1, size_bytes=100, arrival_ns=10.0),
        ]
        with pytest.raises(ValueError, match="out of order"):
            list(merge_workload_streams(flows))


# ---------------------------------------------------------------------------
# summary equality across the two modes
# ---------------------------------------------------------------------------


def _build_flows(records):
    flows = []
    for fid, (src, dst_offset, size, arrival) in enumerate(records):
        flows.append(
            Flow(
                fid=fid,
                src=src,
                dst=(src + dst_offset) % NUM_TORS,
                size_bytes=size,
                arrival_ns=arrival,
            )
        )
    flows.sort(key=lambda f: f.arrival_ns)
    return flows


def _assert_summaries_match(materialized, streaming):
    for field in (
        "duration_ns",
        "epoch_ns",
        "num_flows",
        "num_completed",
        "goodput_normalized",
        "goodput_gbps",
        # p99 is reservoir-exact here: completed mice always fit the
        # default capacity at these trace sizes, and np.percentile sorts,
        # so fold order cannot matter.
        "mice_fct_p99_ns",
    ):
        assert getattr(materialized, field) == getattr(streaming, field), field
    a, b = materialized.mice_fct_mean_ns, streaming.mice_fct_mean_ns
    if a is None or b is None:
        assert a == b
    else:
        # Same values, different summation order (np.mean's pairwise sum vs
        # the tracker's running sum): documented 1e-9 relative tolerance.
        assert math.isclose(a, b, rel_tol=1e-9)


def test_num_flows_counts_injected_flows_in_both_modes():
    """The PR 4 divergence, now closed: both modes count *injected* flows.

    A flow arriving inside the run's final partial slot is never injected
    (the rotor injects at slot start).  Streaming mode always registered on
    injection and reported 0; materialized mode used to count every
    registered flow and reported 1.  Summaries now report the injected
    count in both modes, so final-partial-slot traces agree field by field.
    """
    records = [(0, 1, 5000, DURATION_NS - 1.0)]
    summaries = []
    for stream in (False, True):
        flows = _build_flows(records)
        sim = ObliviousSimulator(
            sim_config(MICRO),
            make_topology(MICRO, "thinclos"),
            iter(flows) if stream else flows,
            stream=stream,
        )
        sim.run(DURATION_NS)
        summaries.append(sim.summary(DURATION_NS))
    materialized, streaming = summaries
    assert materialized.num_flows == streaming.num_flows == 0
    # The tracker still knows the registered trace size in materialized
    # mode; only the summary's fabric-level count is unified.
    assert materialized.num_completed == streaming.num_completed == 0
    assert materialized.goodput_gbps == streaming.goodput_gbps == 0.0


def test_run_until_complete_drains_the_stream():
    flows = _build_flows([(0, 1, 5000, 1000.0 * i) for i in range(10)])
    sim = NegotiaToRSimulator(
        sim_config(MICRO),
        make_topology(MICRO, "parallel"),
        iter(flows),
        stream=True,
    )
    assert sim.run_until_complete(max_ns=10 * DURATION_NS)
    assert sim.tracker.num_flows == 10
    assert sim.tracker.all_complete


# ---------------------------------------------------------------------------
# spec-level streaming
# ---------------------------------------------------------------------------


class TestStreamSpec:
    def test_stream_false_stays_out_of_the_hash(self):
        spec = RunSpec(scale="micro")
        assert '"stream"' not in spec.canonical_json()
        assert spec.content_hash != spec.with_params(stream=True).content_hash
        # Round-trips in both modes.
        for candidate in (spec, spec.with_params(stream=True)):
            assert RunSpec.from_dict(candidate.to_dict()) == candidate

    @pytest.mark.parametrize(
        "system", ["negotiator", "oblivious", "rotor", "adaptive"]
    )
    def test_execute_spec_streaming_matches_materialized(self, system):
        base = RunSpec(
            **scale_spec_fields(MICRO),
            system=system,
            topology="parallel" if system == "negotiator" else "thinclos",
            scenario="poisson",
            load=0.5,
            seed=5,
            duration_ns=DURATION_NS,
            until_complete=(system != "negotiator"),
            max_ns=100 * DURATION_NS if system != "negotiator" else None,
        )
        _assert_summaries_match(
            execute_spec(base), execute_spec(base.with_params(stream=True))
        )

    def test_streaming_heavy_poisson_spec(self):
        spec = RunSpec(
            **scale_spec_fields(MICRO),
            scenario="heavy-poisson",
            scenario_params={"num_flows": 3000},
            load=0.4,
            seed=5,
            until_complete=True,
            max_ns=100 * MICRO.duration_ns,
            stream=True,
        )
        summary = execute_spec(spec)
        assert summary.num_flows == 3000
        assert summary.num_completed == 3000


STREAM_CLI_FLOWS = 3000

STREAMING_FABRICS = [
    (system, topology)
    for system, entry in SYSTEMS.items()
    if entry.stream
    for topology in entry.topologies
]


class TestStreamCli:
    """``repro sweep --stream`` over a count-sized heavy-poisson trace:
    the command CI runs with a million flows, here small enough for
    tier-1, on every registered streaming system and fabric."""

    def sweep(self, tmp_path, num_flows, system="negotiator",
              topology="parallel"):
        return main([
            "sweep", "--stream", "--scale", "micro",
            "--scenario", f"heavy-poisson:num_flows={num_flows}",
            "--load", "0.5", "--seed", "1",
            "--system", system, "--topology", topology,
            "--duration-ms", "1",
            "--store", str(tmp_path / "stream.jsonl"), "--no-progress",
        ])

    @pytest.mark.parametrize(
        "system, topology", STREAMING_FABRICS,
        ids=[f"{s}-{t}" for s, t in STREAMING_FABRICS],
    )
    def test_every_flow_completes(self, tmp_path, capsys, system, topology):
        code = self.sweep(tmp_path, STREAM_CLI_FLOWS, system, topology)
        assert code == 0, capsys.readouterr().err
        (row,) = ResultStore(tmp_path / "stream.jsonl").rows()
        assert row["spec"]["stream"] is True
        summary = row["summary"]
        assert (
            summary["num_flows"]
            == summary["num_completed"]
            == STREAM_CLI_FLOWS
        )
        # Every flow is a 1 KB mouse; the bounded tracker's reservoir
        # still yields its p99.
        assert summary["mice_fct_p99_ns"] is not None

    def test_empty_trace_is_rejected(self, tmp_path, capsys):
        assert self.sweep(tmp_path, 0) == 2
        assert "flow count must be positive" in capsys.readouterr().err
        assert ResultStore(tmp_path / "stream.jsonl").rows() == []


# ---------------------------------------------------------------------------
# the memory regression: ~1M flows at bounded residency
# ---------------------------------------------------------------------------


def test_million_flow_stream_keeps_flow_residency_bounded():
    """The eviction guard that keeps the streaming story honest.

    A ~1M-flow heavy-poisson stream runs to completion on the tiny 8-ToR
    fabric.  The tracker's high-water counter must stay thousands of times
    below the trace size, and a gc census must show the Flow population
    returned to its pre-run level — i.e. the engine held O(in-flight), not
    O(trace), objects.  (~10 s; by far the longest tier-1 test, and worth
    it: a single leaked reference anywhere in the streaming path fails it.)
    """
    num_flows = 1_000_000
    load, flow_bytes = 0.5, 1000
    gc.collect()
    flows_before = sum(
        1 for obj in gc.get_objects() if isinstance(obj, Flow)
    )
    distribution = FixedSize(flow_bytes)
    stream = heavy_poisson_stream(
        distribution,
        load,
        NUM_TORS,
        MICRO.host_aggregate_gbps,
        num_flows,
        random.Random(1),
    )
    span = heavy_poisson_span_ns(
        distribution, load, NUM_TORS, MICRO.host_aggregate_gbps, num_flows
    )
    sim = NegotiaToRSimulator(
        sim_config(MICRO), make_topology(MICRO, "parallel"), stream, stream=True
    )
    assert sim.run_until_complete(max_ns=4.0 * span)
    tracker = sim.tracker
    assert tracker.num_flows == num_flows
    assert tracker.num_completed == num_flows
    assert tracker.delivered_bytes == num_flows * flow_bytes
    # Measured ~700 at this load; 10k leaves an order-of-magnitude margin
    # while still sitting 100x below the trace size.
    assert tracker.peak_live_flows < 10_000
    del stream
    gc.collect()
    flows_after = sum(
        1 for obj in gc.get_objects() if isinstance(obj, Flow)
    )
    assert flows_after - flows_before < 10_000
