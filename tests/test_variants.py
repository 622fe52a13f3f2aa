"""Tests for the design-space variants (section 3.5 / appendix A.2)."""

import random

import pytest

from repro import (
    Flow,
    NegotiaToRSimulator,
    ParallelNetwork,
    SimConfig,
    ThinClos,
    poisson_workload,
)
from repro.core.matching import (
    NegotiaToRMatcher,
    per_port_matches,
    validate_matching,
)
from repro.core.variants import (
    DataSizeScheduler,
    HolDelayScheduler,
    IterativeScheduler,
    ProjecToRMatcher,
    ProjecToRScheduler,
    StatefulScheduler,
    ValuePriorityMatcher,
    make_scheduler,
    scheduling_delay_epochs,
)
from repro.workloads.traces import hadoop

EPOCH_NS = 4 * 60 + 30 * 90


def tiny_config(**overrides):
    defaults = dict(
        num_tors=8, ports_per_tor=2, uplink_gbps=100.0, host_aggregate_gbps=100.0
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def make_sim(flows, scheduler_name, config=None, **scheduler_kwargs):
    config = config or tiny_config()
    topo = ParallelNetwork(config.num_tors, config.ports_per_tor)
    scheduler = make_scheduler(
        scheduler_name, topo, random.Random(config.seed), **scheduler_kwargs
    )
    return NegotiaToRSimulator(config, topo, flows, scheduler=scheduler)


def elephant(fid=0, src=0, dst=1, size=200_000, arrival=-1.0):
    return Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=arrival)


class TestFactory:
    @pytest.mark.parametrize(
        "name",
        ["base", "iterative", "data-size", "hol-delay", "stateful", "projector"],
    )
    def test_all_variants_run_end_to_end(self, name):
        config = tiny_config()
        flows = poisson_workload(
            hadoop(), 0.5, 8, config.host_aggregate_gbps, 100_000,
            random.Random(1),
        )
        sim = make_sim(flows, name, config=config)
        sim.run(100_000)
        injected = sum(f.size_bytes for f in flows)
        left = sum(f.remaining_bytes for f in flows)
        assert sim.tracker.delivered_bytes + left == injected

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("magic", ParallelNetwork(8, 2), random.Random(0))


class TestIterativeScheduler:
    def test_scheduling_delay_formula(self):
        assert scheduling_delay_epochs(1) == 2
        assert scheduling_delay_epochs(3) == 8
        assert scheduling_delay_epochs(5) == 14
        with pytest.raises(ValueError):
            scheduling_delay_epochs(0)

    def test_single_iteration_matches_base_timing(self):
        matcher = NegotiaToRMatcher(ParallelNetwork(8, 2), random.Random(0))
        scheduler = IterativeScheduler(matcher, iterations=1)
        outs = []
        for epoch in range(4):
            requests = {1: {0: None}} if epoch == 0 else {}
            matches, _, _ = scheduler.advance(requests, lambda g: g)
            outs.append(matches)
        assert outs[0] == [] and outs[1] == []
        assert {(src, dst) for src, dst, _ports in outs[2]} == {(0, 1)}

    def test_three_iterations_finalize_after_eight_epochs(self):
        matcher = NegotiaToRMatcher(ParallelNetwork(8, 2), random.Random(0))
        scheduler = IterativeScheduler(matcher, iterations=3)
        outs = []
        for epoch in range(10):
            requests = {1: {0: None}} if epoch == 0 else {}
            matches, _, _ = scheduler.advance(requests, lambda g: g)
            outs.append(matches)
        for epoch in range(8):
            assert outs[epoch] == []
        assert {(src, dst) for src, dst, _ports in outs[8]} == {(0, 1)}

    def test_iterations_add_matches_on_locked_out_ports(self):
        """A second iteration matches a port the first round left unmatched."""
        # Two sources request the same destination on a 1-port fabric — no,
        # use 2 ports: dst grants src A both ports round 1; src B gets
        # nothing; round 2 must serve B on whatever dst ports A rejected.
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(1))
        scheduler = IterativeScheduler(matcher, iterations=2)
        # Sources 0 and 2 both hold traffic for destinations 1 and 3.
        requests = {1: {0: None, 2: None}, 3: {0: None, 2: None}}
        final = None
        for epoch in range(6):
            delivered = requests if epoch == 0 else {}
            matches, _, _ = scheduler.advance(delivered, lambda g: g)
            if matches:
                final = matches
                break
        assert final is not None
        validate_matching(per_port_matches(final), topo)
        # Both sources' ports are fully used after two rounds, and a pair
        # matched in both rounds drains its ports as one group.
        tx_used = {(m.src, m.port) for m in per_port_matches(final)}
        assert len(tx_used) == 4
        pairs = [(src, dst) for src, dst, _ports in final]
        assert len(pairs) == len(set(pairs))

    def test_iterative_delays_elephant_start(self):
        """ITER_III starts transmitting scheduled data 6 epochs later."""

        def first_scheduled_epoch(iterations):
            sim = make_sim(
                [elephant(size=500_000)], "iterative", iterations=iterations
            )
            for epoch in range(14):
                before = sim.tracker.delivered_bytes
                sim.step_epoch()
                gained = sim.tracker.delivered_bytes - before
                if gained > 1115:  # more than a piggyback packet
                    return epoch
            return None

        assert first_scheduled_epoch(1) == 2
        assert first_scheduled_epoch(3) == 8

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            IterativeScheduler(
                NegotiaToRMatcher(ParallelNetwork(8, 2), random.Random(0)), 0
            )


class TestValuePriorityMatcher:
    def test_largest_backlog_wins_the_port(self):
        topo = ParallelNetwork(8, 1)
        matcher = ValuePriorityMatcher(topo, random.Random(0))
        grants, _ = matcher.grant_step({1: {0: 100.0, 2: 900.0}})
        assert list(grants) == [2]

    def test_ties_fall_back_to_ring_fairness(self):
        topo = ParallelNetwork(8, 1)
        matcher = ValuePriorityMatcher(topo, random.Random(0))
        winners = []
        for _ in range(4):
            grants, _ = matcher.grant_step({1: {0: 5.0, 2: 5.0}})
            winners.append(next(iter(grants)))
        assert set(winners) == {0, 2}

    def test_ports_deal_down_the_ranking(self):
        """With comparable requests, one requester cannot take every port."""
        topo = ParallelNetwork(8, 2)
        matcher = ValuePriorityMatcher(topo, random.Random(0))
        grants, _ = matcher.grant_step({1: {0: 10.0, 2: 9.0}})
        assert set(grants) == {0, 2}

    def test_thinclos_respects_groups(self):
        topo = ThinClos(16, 4, 4)
        matcher = ValuePriorityMatcher(topo, random.Random(0))
        result = matcher.run_epoch(
            {6: {1: 100.0, 2: 50.0}, 7: {1: 10.0}}
        )
        validate_matching(result.matches, topo)


class TestInformativeSchedulers:
    def test_data_size_payload_is_queue_depth(self):
        sim = make_sim([elephant(size=50_000)], "data-size")
        sim.step_epoch()
        queue = sim.queue(0, 1)
        payload = sim.scheduler.request_payload(0, 1, queue, 0.0)
        assert payload == pytest.approx(queue.pending_bytes)

    def test_hol_delay_weights_lowest_band_down(self):
        config = tiny_config()
        sim = make_sim([elephant(size=50_000, arrival=0.0)], "hol-delay",
                       config=config)
        sim.step_epoch()
        queue = sim.queue(0, 1)
        now = 10_000.0
        payload = sim.scheduler.request_payload(0, 1, queue, now)
        # Bands 0/1 heads have waited ~now; the elephant band contributes
        # only alpha of its wait.
        assert payload == pytest.approx(
            0.999 * (queue.head_wait_ns(0, now) + queue.head_wait_ns(1, now)) / 2
            + 0.001 * queue.head_wait_ns(2, now)
        )

    def test_hol_alpha_validated(self):
        matcher = ValuePriorityMatcher(ParallelNetwork(8, 2), random.Random(0))
        with pytest.raises(ValueError):
            HolDelayScheduler(matcher, alpha=2.0)

    def test_data_size_prioritizes_heavy_pair(self):
        """The destination port goes to the heavier of two backlogs."""
        config = tiny_config(num_tors=8, ports_per_tor=1)
        topo = ParallelNetwork(8, 1)
        scheduler = DataSizeScheduler(ValuePriorityMatcher(topo, random.Random(0)))
        flows = [
            elephant(fid=0, src=0, dst=2, size=500_000),
            elephant(fid=1, src=1, dst=2, size=50_000),
        ]
        sim = NegotiaToRSimulator(config, topo, flows, scheduler=scheduler)
        for _ in range(3):
            sim.step_epoch()
        matches = sim.step_epoch()
        senders = {m.src for m in matches if m.dst == 2}
        assert senders == {0}


class TestStatefulScheduler:
    def make(self, config=None):
        config = config or tiny_config()
        topo = ParallelNetwork(config.num_tors, config.ports_per_tor)
        scheduler = StatefulScheduler(
            NegotiaToRMatcher(topo, random.Random(0)),
            phase_capacity_bytes=30 * 1115,
        )
        return config, topo, scheduler

    def test_request_payload_reports_new_bytes_once(self):
        config, topo, scheduler = self.make()
        sim = NegotiaToRSimulator(
            config, topo, [elephant(size=100_000)], scheduler=scheduler
        )
        sim.step_epoch()
        queue = sim.queue(0, 1)
        # The epoch already consumed the report; a second call sees nothing new.
        assert scheduler.request_payload(0, 1, queue, 0.0) == 0.0

    def test_matrix_accumulates_and_decrements(self):
        config, topo, scheduler = self.make()
        sim = NegotiaToRSimulator(
            config, topo, [elephant(size=100_000)], scheduler=scheduler
        )
        sim.step_epoch()  # request reported (100 KB)
        assert scheduler.demand_estimate(1, 0) == pytest.approx(100_000)
        sim.step_epoch()  # grant: two ports reserve one phase each
        reserved = 2 * 30 * 1115
        assert scheduler.demand_estimate(1, 0) == pytest.approx(
            100_000 - reserved
        )

    def test_depleted_matrix_stops_grants(self):
        """Once the matrix empties, repeated requests win no more grants."""
        config, topo, scheduler = self.make()
        # A flow bigger than the threshold but below one phase capacity:
        # the first grant reserves it all.
        sim = NegotiaToRSimulator(
            config, topo, [elephant(size=5_000)], scheduler=scheduler
        )
        sim.step_epoch()
        sim.step_epoch()
        assert scheduler.demand_estimate(1, 0) == 0.0
        # Queue still holds bytes (piggyback drained some), so requests keep
        # firing, but the matrix blocks further grants.
        matches = sim.step_epoch()
        follow_up = sim.step_epoch()
        assert matches  # the original reservation was accepted
        assert not follow_up

    def test_stateful_performance_close_to_base(self):
        """A.2.4's conclusion: stateful ~ stateless overall."""
        config = tiny_config()
        results = {}
        for name in ("base", "stateful"):
            flows = poisson_workload(
                hadoop(), 0.8, 8, config.host_aggregate_gbps, 400_000,
                random.Random(33),
            )
            sim = make_sim(flows, name, config=config)
            sim.run(400_000)
            results[name] = sim.summary().goodput_normalized
        assert results["stateful"] == pytest.approx(results["base"], rel=0.15)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            StatefulScheduler(
                NegotiaToRMatcher(ParallelNetwork(8, 2), random.Random(0)),
                phase_capacity_bytes=0,
            )


class TestProjecToRScheduler:
    def test_request_payload_carries_port_and_delay(self):
        config = tiny_config()
        topo = ParallelNetwork(8, 2)
        scheduler = ProjecToRScheduler(ProjecToRMatcher(topo, random.Random(0)))
        sim = NegotiaToRSimulator(
            config, topo, [elephant(size=50_000, arrival=0.0)],
            scheduler=scheduler,
        )
        sim.step_epoch()
        queue = sim.queue(0, 1)
        port, delay = scheduler.request_payload(0, 1, queue, 5_000.0)
        assert port in (0, 1)
        assert delay == pytest.approx(5_000.0)

    def test_port_rotates_between_requests(self):
        topo = ParallelNetwork(8, 2)
        scheduler = ProjecToRScheduler(ProjecToRMatcher(topo, random.Random(0)))
        config = tiny_config()
        sim = NegotiaToRSimulator(config, topo, [elephant()], scheduler=scheduler)
        sim.step_epoch()
        queue = sim.queue(0, 1)
        p1, _ = scheduler.request_payload(0, 1, queue, 0.0)
        p2, _ = scheduler.request_payload(0, 1, queue, 0.0)
        assert p1 != p2

    def test_thinclos_uses_topology_port(self):
        topo = ThinClos(16, 4, 4)
        scheduler = ProjecToRScheduler(ProjecToRMatcher(topo, random.Random(0)))
        config = tiny_config(num_tors=16, ports_per_tor=4)
        flows = [Flow(fid=0, src=1, dst=6, size_bytes=50_000, arrival_ns=-1.0)]
        sim = NegotiaToRSimulator(config, topo, flows, scheduler=scheduler)
        sim.step_epoch()
        port, _ = scheduler.request_payload(1, 6, sim.queue(1, 6), 0.0)
        assert port == topo.data_port(1, 6)

    def test_grant_prefers_longest_wait(self):
        topo = ParallelNetwork(8, 2)
        matcher = ProjecToRMatcher(topo, random.Random(0))
        grants, num = matcher.grant_step(
            {3: {0: (0, 100.0), 1: (0, 900.0), 2: (1, 50.0)}}
        )
        assert num == 2
        assert grants[1] == [(3, [0])]  # longest wait on port 0
        assert grants[2] == [(3, [1])]  # only request on port 1

    def test_per_port_requests_lose_port_flexibility(self):
        """Two requesters pinned to the same port: one wins, the other port
        idles — NegotiaToR's ToR-level requests would have used both."""
        topo = ParallelNetwork(8, 2)
        matcher = ProjecToRMatcher(topo, random.Random(0))
        grants, num = matcher.grant_step(
            {3: {0: (0, 10.0), 1: (0, 20.0)}}
        )
        assert num == 1
        assert list(grants) == [1]
