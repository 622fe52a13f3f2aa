"""Tests for NegotiaToR Matching (section 3.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import (
    Match,
    NegotiaToRMatcher,
    per_port_matches,
    validate_matching,
)
from repro.topology.parallel import ParallelNetwork
from repro.topology.thinclos import ThinClos


def saturated_requests(n):
    """Everyone requests everyone: dst -> {src: None}."""
    return {
        dst: {src: None for src in range(n) if src != dst} for dst in range(n)
    }


def per_port_grants(grants):
    """``src -> [(dst, port), ...]``: each grant's ports, one by one."""
    return {
        src: [(dst, port) for dst, ports in gs for port in ports]
        for src, gs in grants.items()
    }


def requests_from_pairs(pairs):
    requests = {}
    for src, dst in pairs:
        requests.setdefault(dst, {})[src] = None
    return requests


class TestGrantParallel:
    def test_all_ports_granted_under_saturation(self):
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        grants, num = matcher.grant_step(saturated_requests(8))
        assert num == 8 * 2  # every destination grants every port
        granted_ports = [g for gs in per_port_grants(grants).values() for g in gs]
        assert len(granted_ports) == 16

    def test_single_request_gets_all_ports(self):
        topo = ParallelNetwork(8, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        grants, num = matcher.grant_step({3: {5: None}})
        assert num == 4
        # One grant carries every port: a lone requester is dealt them all.
        assert grants == {5: [(3, (0, 1, 2, 3))]}

    def test_two_requests_split_ports(self):
        topo = ParallelNetwork(8, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        grants, _ = matcher.grant_step({3: {5: None, 6: None}})
        assert [len(ports) for _dst, ports in grants[5]] == [2]
        assert [len(ports) for _dst, ports in grants[6]] == [2]
        assert sorted(
            port for gs in grants.values() for _dst, ports in gs for port in ports
        ) == [0, 1, 2, 3]

    def test_self_request_ignored(self):
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        grants, num = matcher.grant_step({3: {3: None}})
        assert num == 0
        assert grants == {}

    def test_uses_shared_ring(self):
        matcher = NegotiaToRMatcher(ParallelNetwork(8, 2), random.Random(0))
        assert matcher.uses_shared_grant_ring

    def test_grant_fairness_rotates(self):
        """With one port and two persistent requesters, grants alternate."""
        topo = ParallelNetwork(4, 1)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        winners = []
        for _ in range(4):
            grants, _ = matcher.grant_step({0: {1: None, 2: None}})
            (winner,) = [src for src, gs in grants.items() if gs]
            winners.append(winner)
        assert winners in ([1, 2, 1, 2], [2, 1, 2, 1])


class TestGrantThinClos:
    def test_per_port_rings(self):
        matcher = NegotiaToRMatcher(ThinClos(8, 2, 4), random.Random(0))
        assert not matcher.uses_shared_grant_ring

    def test_grants_respect_port_groups(self):
        topo = ThinClos(16, 4, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(1))
        grants, _ = matcher.grant_step(saturated_requests(16))
        for src, port_grants in per_port_grants(grants).items():
            for dst, port in port_grants:
                assert src in topo.reachable_srcs(dst, port)

    def test_one_grant_per_port(self):
        topo = ThinClos(16, 4, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(1))
        grants, num = matcher.grant_step(saturated_requests(16))
        per_dst_ports = {}
        for src, port_grants in per_port_grants(grants).items():
            for dst, port in port_grants:
                key = (dst, port)
                assert key not in per_dst_ports
                per_dst_ports[key] = src
        assert num == len(per_dst_ports)

    def test_unreachable_request_not_granted(self):
        """A request from outside a port's group can never win that port."""
        topo = ThinClos(16, 4, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(1))
        # ToR 1 (group 0) can only reach ToR 6 (group 1) via port 1.
        grants, num = matcher.grant_step({6: {1: None}})
        assert num == 1
        assert per_port_grants(grants)[1] == [(6, 1)]


class TestAccept:
    def test_resolves_port_conflicts(self):
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        # Source 0 gets port-0 grants from two destinations.
        matches = per_port_matches(matcher.accept_step({0: [(1, (0,)), (2, (0,))]}))
        assert len(matches) == 1
        assert matches[0].src == 0
        assert matches[0].port == 0
        assert matches[0].dst in (1, 2)

    def test_different_ports_both_accepted(self):
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        groups = matcher.accept_step({0: [(1, (0,)), (2, (1,))]})
        assert groups == [(0, 1, [0]), (0, 2, [1])]

    def test_accept_fairness_rotates(self):
        topo = ParallelNetwork(4, 1)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        winners = [
            matcher.accept_step({0: [(1, (0,)), (2, (0,))]})[0][1]
            for _ in range(4)
        ]
        assert winners in ([1, 2, 1, 2], [2, 1, 2, 1])

    def test_tx_unusable_port_rejects_all(self):
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        groups = matcher.accept_step(
            {0: [(1, (0,)), (2, (1,))]}, tx_usable=lambda t, p: p != 0
        )
        assert groups == [(0, 2, [1])]

    def test_dealt_ports_accepted_as_one_group(self):
        """A destination dealt every port arrives as one grant and leaves
        ACCEPT as one per-pair group; a port another destination also
        granted is contended, so the pair keeps only the ports it won."""
        topo = ParallelNetwork(8, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        assert matcher.accept_step({0: [(3, (0, 1, 2, 3))]}) == [
            (0, 3, [0, 1, 2, 3])
        ]
        groups = matcher.accept_step({0: [(3, (0, 2)), (5, (1, 2))]})
        won = {dst: ports for _src, dst, ports in groups}
        assert won[3][0] == 0 and won[5][0] == 1
        assert sorted(won[3] + won[5]) == [0, 1, 2]


class TestRunEpochInvariants:
    @given(
        seed=st.integers(0, 2**32 - 1),
        pair_seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_parallel_matching_invariants(self, seed, pair_seed, density):
        topo = ParallelNetwork(12, 3)
        matcher = NegotiaToRMatcher(topo, random.Random(seed))
        rng = random.Random(pair_seed)
        pairs = [
            (s, d)
            for s in range(12)
            for d in range(12)
            if s != d and rng.random() < density
        ]
        result = matcher.run_epoch(requests_from_pairs(pairs))
        validate_matching(result.matches, topo)
        assert result.num_accepts <= result.num_grants
        requested = set(pairs)
        for match in result.matches:
            assert (match.src, match.dst) in requested

    @given(
        seed=st.integers(0, 2**32 - 1),
        pair_seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_thinclos_matching_invariants(self, seed, pair_seed, density):
        topo = ThinClos(16, 4, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(seed))
        rng = random.Random(pair_seed)
        pairs = [
            (s, d)
            for s in range(16)
            for d in range(16)
            if s != d and rng.random() < density
        ]
        result = matcher.run_epoch(requests_from_pairs(pairs))
        validate_matching(result.matches, topo)
        for match in result.matches:
            assert match.port == topo.data_port(match.src, match.dst)

    def test_saturated_parallel_match_ratio_at_least_random_model(self):
        """Under persistent saturation the ring pointers self-organize, so
        the match ratio is at least the random-model bound 1-(1-1/n)^n
        (the engine-level tests check the ~0.63 value under real traffic,
        where arrival randomness keeps the rings de-correlated)."""
        topo = ParallelNetwork(16, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(3))
        total_ratio = 0.0
        rounds = 200
        for _ in range(rounds):
            result = matcher.run_epoch(saturated_requests(16))
            total_ratio += result.match_ratio
        mean_ratio = total_ratio / rounds
        assert 0.644 - 0.02 <= mean_ratio <= 0.95

    def test_no_requests_no_matches(self):
        matcher = NegotiaToRMatcher(ParallelNetwork(8, 2), random.Random(0))
        result = matcher.run_epoch({})
        assert result.matches == []
        assert result.num_grants == 0
        with pytest.raises(ValueError):
            result.match_ratio


class TestSaturatedLockIn:
    """Under a saturated all-to-all the GRANT pointers never change their
    offsets from one another (every destination deals every port each
    epoch), so the matching locks in: the per-epoch accept count repeats
    exactly from the first epoch, and the initial ring pointers, drawn from
    the seed, set the level it repeats at."""

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize(
        "topology, period",
        [
            (ParallelNetwork(16, 4), 15),
            (ParallelNetwork(8, 2), 7),
            (ThinClos(16, 4, 4), 3),
        ],
        ids=["parallel-16x4", "parallel-8x2", "thinclos-16x4x4"],
    )
    def test_accept_count_is_periodic_from_the_first_epoch(
        self, topology, period, seed
    ):
        matcher = NegotiaToRMatcher(topology, random.Random(seed))
        requests = saturated_requests(topology.num_tors)
        accepts = [
            matcher.run_epoch(requests).num_accepts for _ in range(4 * period)
        ]
        assert accepts[period:] == accepts[:-period]

    def test_seed_sets_the_locked_in_match_ratio(self):
        ratios = []
        for seed in (1, 2):
            matcher = NegotiaToRMatcher(ParallelNetwork(16, 4), random.Random(seed))
            results = [
                matcher.run_epoch(saturated_requests(16)) for _ in range(15)
            ]
            ratios.append(
                sum(r.num_accepts for r in results)
                / sum(r.num_grants for r in results)
            )
        assert ratios[0] != ratios[1]


class TestUsabilityPredicates:
    def test_rx_unusable_port_is_not_granted(self):
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        grants, num = matcher.grant_step(
            {3: {5: None}}, rx_usable=lambda t, p: p != 1
        )
        assert num == 1
        assert per_port_grants(grants)[5] == [(3, 0)]

    def test_tx_unusable_port_not_granted_in_parallel(self):
        """Destinations avoid granting a port whose source egress is down."""
        topo = ParallelNetwork(8, 2)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        grants, _ = matcher.grant_step(
            {3: {5: None}}, tx_usable=lambda t, p: not (t == 5 and p == 0)
        )
        assert per_port_grants(grants)[5] == [(3, 1)]

    def test_tx_unusable_port_not_granted_in_thinclos(self):
        topo = ThinClos(16, 4, 4)
        matcher = NegotiaToRMatcher(topo, random.Random(0))
        grants, num = matcher.grant_step(
            {6: {1: None}}, tx_usable=lambda t, p: False
        )
        assert num == 0
        assert grants == {}


class TestValidateMatching:
    def test_detects_tx_conflict(self):
        topo = ParallelNetwork(8, 2)
        with pytest.raises(ValueError, match="transmit"):
            validate_matching(
                [Match(0, 0, 1), Match(0, 0, 2)], topo
            )

    def test_detects_rx_conflict(self):
        topo = ParallelNetwork(8, 2)
        with pytest.raises(ValueError, match="receive"):
            validate_matching(
                [Match(1, 0, 2), Match(3, 0, 2)], topo
            )

    def test_detects_wrong_thinclos_port(self):
        topo = ThinClos(16, 4, 4)
        with pytest.raises(ValueError, match="port"):
            validate_matching([Match(1, 2, 6)], topo)
