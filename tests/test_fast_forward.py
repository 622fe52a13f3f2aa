"""Determinism and exactness of the idle-epoch fast-forward (DESIGN.md §7).

Fast-forward is a pure wall-clock optimization: with a fixed seed, a run
with it enabled must be indistinguishable — RunSummary, per-flow FCTs,
epoch counts at exit — from a run with it disabled.  tests/test_invariants.py
fuzzes that on every registered system, fabric and core; these tests pin
the NegotiaToR regimes that make the skip logic subtle: arrivals on and
off epoch boundaries, failure events mid-idle, pipeline drain tails,
receiver buffers and a non-dyadic epoch length.
"""

import copy
import dataclasses

from repro import Flow, NegotiaToRSimulator, ParallelNetwork, SimConfig
from repro.sim.config import EpochTiming
from repro.sim.failures import Direction, FailurePlan, LinkRef
from repro.telemetry import EngineTracer, MemorySink

EPOCH_NS = 4 * 60 + 30 * 90  # 8 ToRs x 2 ports on the parallel network


def tiny_config(**overrides):
    defaults = dict(
        num_tors=8, ports_per_tor=2, uplink_gbps=100.0, host_aggregate_gbps=100.0
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def sparse_flows(num_flows=12, gap_epochs=200, size=3000):
    """Flows separated by long idle gaps so fast-forward engages."""
    flows = []
    for i in range(num_flows):
        arrival = i * gap_epochs * EPOCH_NS + (i % 3) * 17.5
        src = i % 8
        dst = (i + 3) % 8
        flows.append(
            Flow(fid=i, src=src, dst=dst, size_bytes=size, arrival_ns=arrival)
        )
    return flows


def fct_map(sim):
    return {
        f.fid: f.completed_ns for f in sim.tracker.flows if f.completed
    }


def run_pair(flows, duration_ns, *, config=None, failure_plan=None):
    """Run the same workload with fast-forward on and off; return both sims."""
    config = config or tiny_config()
    sims = []
    for enabled in (True, False):
        cfg = dataclasses.replace(config, idle_fast_forward=enabled)
        # Flows are mutable records; each run needs its own copies.
        sim = NegotiaToRSimulator(
            cfg,
            ParallelNetwork(cfg.num_tors, cfg.ports_per_tor),
            copy.deepcopy(flows),
            failure_plan=failure_plan,
        )
        sim.run(duration_ns)
        sims.append(sim)
    return sims


def assert_equivalent(fast, slow, duration_ns):
    assert fast.fast_forwarded_epochs > 0, "fast-forward never engaged"
    assert slow.fast_forwarded_epochs == 0
    assert fast.epoch == slow.epoch
    assert fct_map(fast) == fct_map(slow)
    assert fast.summary(duration_ns) == slow.summary(duration_ns)


class TestDeterminismRegression:
    def test_boundary_arrival_identical(self):
        # Arrivals exactly on epoch boundaries hit the mid-epoch-injection
        # edge case the jump-target analysis depends on.
        flows = [
            Flow(fid=i, src=i % 8, dst=(i + 1) % 8, size_bytes=2000,
                 arrival_ns=i * 150 * EPOCH_NS)
            for i in range(1, 9)
        ]
        duration = 9 * 150 * EPOCH_NS
        fast, slow = run_pair(flows, duration)
        assert_equivalent(fast, slow, duration)

    def test_failure_events_in_idle_gap_identical(self):
        # A failure fires and is repaired while the fabric is idle; the
        # fast-forwarded run must still detect and recover on the same
        # epochs, visible through identical FCTs of the later flows.
        flows = sparse_flows(num_flows=6, gap_epochs=300)
        plan = FailurePlan()
        link = LinkRef(tor=3, port=0, direction=Direction.EGRESS)
        plan.add_failure(50 * EPOCH_NS, link)
        plan.add_repair(700 * EPOCH_NS, link)
        duration = 7 * 300 * EPOCH_NS
        fast, slow = run_pair(flows, duration, failure_plan=plan)
        assert_equivalent(fast, slow, duration)

    def test_receiver_buffer_identical(self):
        flows = sparse_flows(size=30_000)
        config = tiny_config(receiver_buffer_bytes=50_000)
        duration = 13 * 200 * EPOCH_NS
        fast, slow = run_pair(flows, duration, config=config)
        assert_equivalent(fast, slow, duration)

    def test_non_dyadic_epoch_length_identical(self):
        # uplink 75 Gbps makes epoch_ns non-dyadic (3906.666... ns), so
        # (e + 1) * epoch_ns and e * epoch_ns + epoch_ns differ by 1 ulp for
        # many epochs; the fast-forward bound must use the engine's own
        # injection-bound expression or boundary arrivals shift by an epoch.
        config = tiny_config(uplink_gbps=75.0)
        timing = EpochTiming.derive(config.epoch, config.uplink_gbps, 4)
        epoch_ns = timing.epoch_ns
        assert epoch_ns != int(epoch_ns)  # non-dyadic, or the test is moot
        flows = []
        for i in range(1, 30):
            # Pin each arrival to a stepped run's exact injection bound:
            # the end of epoch (k - 1) as step_epoch computes it, which for
            # some k exceeds fl(k * epoch_ns) by 1 ulp — the window where a
            # mismatched fast-forward bound skips the injecting epoch.
            k = i * 137
            boundary = (k - 1) * epoch_ns + epoch_ns
            flows.append(
                Flow(fid=i, src=i % 8, dst=(i + 1) % 8, size_bytes=2000,
                     arrival_ns=boundary)
            )
        duration = 31 * 137 * epoch_ns
        fast, slow = run_pair(flows, duration, config=config)
        assert_equivalent(fast, slow, duration)

    def test_run_until_complete_identical(self):
        flows = sparse_flows()
        config = tiny_config()
        results = []
        for enabled in (True, False):
            cfg = dataclasses.replace(config, idle_fast_forward=enabled)
            sim = NegotiaToRSimulator(
                cfg, ParallelNetwork(8, 2), copy.deepcopy(flows)
            )
            done = sim.run_until_complete(max_ns=20 * 200 * EPOCH_NS)
            results.append((done, sim.epoch, fct_map(sim)))
        assert results[0] == results[1]


class TestFastForwardBehaviour:
    def test_idle_run_is_skipped_wholesale(self):
        sim = NegotiaToRSimulator(tiny_config(), ParallelNetwork(8, 2), [])
        sim.run(1000 * EPOCH_NS)
        assert sim.epoch == 1000
        assert sim.fast_forwarded_epochs == 1000

    def test_disabled_flag_steps_every_epoch(self):
        config = tiny_config(idle_fast_forward=False)
        sim = NegotiaToRSimulator(config, ParallelNetwork(8, 2), [])
        sim.run(50 * EPOCH_NS)
        assert sim.epoch == 50
        assert sim.fast_forwarded_epochs == 0

    def test_tracer_keeps_fast_forward(self):
        # Idle epochs are still skipped with a tracer attached, and the
        # tracer counts each skipped epoch as a stepped run would.
        sink = MemorySink()
        tracer = EngineTracer(sink, "negotiator")
        sim = NegotiaToRSimulator(
            tiny_config(), ParallelNetwork(8, 2), [], tracer=tracer
        )
        sim.run(40 * EPOCH_NS)
        assert sim.fast_forwarded_epochs == 40
        tracer.finish(int(sim.now_ns))
        assert sink.of_kind("run-end")[-1]["counters"] == {"epochs": 40}

    def test_step_epoch_is_never_fast_forwarded(self):
        sim = NegotiaToRSimulator(tiny_config(), ParallelNetwork(8, 2), [])
        for _ in range(5):
            sim.step_epoch()
        assert sim.epoch == 5
        assert sim.fast_forwarded_epochs == 0

    def test_jump_stops_at_next_arrival_epoch(self):
        arrival = 500 * EPOCH_NS + 100.0  # inside epoch 500
        flows = [Flow(fid=0, src=0, dst=1, size_bytes=500, arrival_ns=arrival)]
        sim = NegotiaToRSimulator(tiny_config(), ParallelNetwork(8, 2), flows)
        sim.run(501 * EPOCH_NS)
        assert sim.summary().num_completed == 1
        # Epochs 0..499 are idle; the arrival epoch itself must be stepped.
        assert sim.fast_forwarded_epochs == 500
