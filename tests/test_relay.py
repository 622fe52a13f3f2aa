"""Tests for traffic-aware selective relay (appendix A.2.2, Table 3)."""

import random

import pytest

from repro import (
    BandwidthRecorder,
    Flow,
    NegotiaToRSimulator,
    ParallelNetwork,
    SimConfig,
    ThinClos,
    poisson_workload,
)
from repro.core.relay import RelayPolicy, SelectiveRelaySimulator
from repro.sim.config import KB
from repro.telemetry import EngineTracer, MemorySink
from repro.workloads.traces import hadoop

N, S, W = 16, 4, 4


def config(**overrides):
    defaults = dict(
        num_tors=N, ports_per_tor=S, uplink_gbps=100.0,
        host_aggregate_gbps=S * 100.0 / 2.0,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def make_sim(flows, policy=None, **kwargs):
    cfg = config()
    return SelectiveRelaySimulator(
        cfg, ThinClos(N, S, W), flows, relay_policy=policy, **kwargs
    )


def relay_counters(sim, tracer, sink):
    """The run-end counters of a traced run."""
    tracer.finish(int(sim.now_ns))
    (run_end,) = sink.of_kind("run-end")
    return run_end["counters"]


def elephant(fid=0, src=1, dst=6, size=500 * KB, arrival=-1.0):
    return Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=arrival)


def mouse(fid=100, src=1, dst=6, size=500, arrival=-1.0):
    return Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=arrival)


class TestPolicy:
    def test_defaults_validated(self):
        with pytest.raises(ValueError):
            RelayPolicy(relay_threshold_bytes=0)
        with pytest.raises(ValueError):
            RelayPolicy(high_volume_bytes=-1)
        with pytest.raises(ValueError):
            RelayPolicy(max_candidates=0)
        with pytest.raises(ValueError):
            RelayPolicy(grant_budget_phases=0)

    def test_requires_thinclos(self):
        with pytest.raises(ValueError, match="thin-clos"):
            SelectiveRelaySimulator(config(), ParallelNetwork(N, S), [])


class TestRelayMechanics:
    def test_elephant_bytes_are_relayed(self):
        recorder = BandwidthRecorder(bin_ns=10_000.0)
        sink = MemorySink()
        tracer = EngineTracer(sink, "relay")
        sim = make_sim(
            [elephant()], bandwidth_recorder=recorder, tracer=tracer
        )
        sim.run(300_000)
        relayed = sum(
            recorder.total_bytes(key)
            for key in recorder.keys()
            if key[0] == "relay"
        )
        assert relayed > 0
        counters = relay_counters(sim, tracer, sink)
        assert counters["relay_requests"] > 0
        assert counters["relay_grants"] > 0

    def test_mice_are_never_relayed(self):
        """Only lowest-band data is eligible; a mouse stays direct."""
        recorder = BandwidthRecorder(bin_ns=10_000.0)
        sim = make_sim([mouse()], bandwidth_recorder=recorder)
        sim.run_until_complete(max_ns=1_000_000)
        relayed = [key for key in recorder.keys() if key[0] == "relay"]
        assert relayed == []

    def test_relayed_flow_still_completes_exactly_once(self):
        flows = [elephant(size=300 * KB)]
        sim = make_sim(flows)
        assert sim.run_until_complete(max_ns=20_000_000)
        assert flows[0].remaining_bytes == 0
        assert sim.tracker.delivered_bytes == 300 * KB

    def test_small_backlog_requests_no_relay(self):
        policy = RelayPolicy(relay_threshold_bytes=100 * KB)
        sink = MemorySink()
        tracer = EngineTracer(sink, "relay")
        sim = make_sim([elephant(size=50 * KB)], policy=policy, tracer=tracer)
        sim.run(100_000)
        assert "relay_requests" not in relay_counters(sim, tracer, sink)

    def test_direct_traffic_keeps_port_priority(self):
        """A relay assignment never displaces an accepted direct match."""
        # Saturate pair (1, 6); its port must stay fully direct.
        flows = [elephant(fid=0), elephant(fid=1, src=5, dst=2)]
        sim = make_sim(flows)
        sim.run(200_000)
        # No crash and conservation hold; the invariant is structural
        # (busy ports are skipped), checked via the engine's validator.
        injected = sum(f.size_bytes for f in flows)
        left = sum(f.remaining_bytes for f in flows)
        assert sim.tracker.delivered_bytes + left == injected


class TestTable3Conclusion:
    def test_relay_changes_goodput_only_marginally(self):
        """Appendix A.2.2: goodput is barely improved by selective relay."""
        cfg = config()
        goodputs = {}
        for enabled in (False, True):
            flows = poisson_workload(
                hadoop(), 0.75, N, cfg.host_aggregate_gbps, 600_000,
                random.Random(21),
            )
            cls = SelectiveRelaySimulator if enabled else NegotiaToRSimulator
            sim = cls(cfg, ThinClos(N, S, W), flows)
            sim.run(600_000)
            goodputs[enabled] = sim.summary().goodput_normalized
        assert goodputs[True] == pytest.approx(goodputs[False], abs=0.08)
