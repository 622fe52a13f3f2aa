"""Tests for the round-robin GRANT/ACCEPT rings (section 3.2.1)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rings import RoundRobinRing, build_rings


class TestConstruction:
    def test_members_preserved_in_order(self):
        ring = RoundRobinRing([3, 1, 4, 1 + 4])
        assert ring.members == (3, 1, 4, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RoundRobinRing([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RoundRobinRing([1, 2, 1])

    def test_start_pointer(self):
        ring = RoundRobinRing([10, 20, 30], start=2)
        assert ring.pointer == 2

    def test_rejects_out_of_range_start(self):
        with pytest.raises(ValueError):
            RoundRobinRing([10, 20], start=2)

    def test_random_init_is_seed_deterministic(self):
        a = RoundRobinRing(list(range(16)), rng=random.Random(7))
        b = RoundRobinRing(list(range(16)), rng=random.Random(7))
        assert a.pointer == b.pointer

    def test_build_rings_one_per_member_set(self):
        rings = build_rings([[1, 2], [3, 4, 5]], random.Random(0))
        assert [r.members for r in rings] == [(1, 2), (3, 4, 5)]


class TestPick:
    def test_picks_pointer_member_first(self):
        ring = RoundRobinRing([0, 1, 2, 3], start=1)
        assert ring.pick({0, 1, 2, 3}) == 1

    def test_pointer_advances_past_pick(self):
        ring = RoundRobinRing([0, 1, 2, 3], start=1)
        ring.pick({0, 1, 2, 3})
        assert ring.pointer == 2

    def test_skips_non_candidates_clockwise(self):
        ring = RoundRobinRing([0, 1, 2, 3], start=1)
        assert ring.pick({0, 3}) == 3

    def test_wraps_around(self):
        ring = RoundRobinRing([0, 1, 2, 3], start=3)
        assert ring.pick({1}) == 1
        assert ring.pointer == 2

    def test_none_when_no_candidates(self):
        ring = RoundRobinRing([0, 1, 2], start=0)
        assert ring.pick(set()) is None
        assert ring.pointer == 0

    def test_none_when_candidates_not_members(self):
        ring = RoundRobinRing([0, 1, 2], start=0)
        assert ring.pick({99}) is None

    def test_least_recently_granted_has_priority(self):
        """Picking the same candidate set cycles fairly through it."""
        ring = RoundRobinRing([0, 1, 2, 3], start=0)
        picks = [ring.pick({0, 2}) for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_peek_does_not_advance(self):
        ring = RoundRobinRing([0, 1, 2], start=0)
        assert ring.peek({1, 2}) == 1
        assert ring.pointer == 0

    def test_advance_past_unknown_member_raises(self):
        ring = RoundRobinRing([0, 1, 2])
        with pytest.raises(ValueError):
            ring.advance_past(42)


class TestDeal:
    def test_splits_ports_evenly(self):
        ring = RoundRobinRing([0, 1, 2, 3], start=0)
        assert ring.deal({0, 1}, (0, 1, 2, 3)) == [(0, (0, 2)), (1, (1, 3))]

    def test_pointer_ends_after_last_pick(self):
        ring = RoundRobinRing([0, 1, 2, 3], start=0)
        ring.deal({0, 1}, (0, 1, 2))  # ports go to 0, 1, 0
        assert ring.pointer == 1

    def test_empty_candidates_deal_nothing(self):
        ring = RoundRobinRing([0, 1, 2], start=1)
        assert ring.deal(set(), (0, 1, 2)) == []
        assert ring.pointer == 1

    def test_zero_count_deals_nothing(self):
        ring = RoundRobinRing([0, 1, 2], start=1)
        assert ring.deal({0, 1, 2}, ()) == []
        assert ring.pointer == 1

    def test_fewer_ports_than_candidates(self):
        """Each port goes to one of the top-ranked candidates, and the
        pointer stops after the last of them."""
        ring = RoundRobinRing([0, 1, 2, 3, 4], start=3)
        assert ring.deal({0, 1, 3, 4}, (5, 7)) == [(3, (5,)), (4, (7,))]
        assert ring.pointer == 0

    def test_ordered_candidates_respects_pointer(self):
        ring = RoundRobinRing([0, 1, 2, 3], start=2)
        assert ring.ordered_candidates({0, 1, 3}) == [3, 0, 1]

    @given(
        size=st.integers(2, 128),
        start=st.integers(0, 127),
        drawn=st.lists(st.integers(-2, 130), max_size=140),
        count=st.integers(1, 24),
        form=st.sampled_from(["set", "list", "dict"]),
    )
    # A lone candidate takes deal()'s one-requester path: a member dealt
    # every port, a non-member dealt none, and a member dealt no ports.
    @example(size=128, start=127, drawn=[5], count=8, form="dict")
    @example(size=16, start=3, drawn=[100], count=8, form="dict")
    @example(size=16, start=3, drawn=[7], count=0, form="set")
    @settings(max_examples=300)
    def test_deal_equals_repeated_picks(self, size, start, drawn, count, form):
        """ordered_candidates() and deal() are shortcuts for repeated
        pick() — prove it on rings up to the parallel network's 127
        members, with few candidates and many (both of peek's paths), given
        as a set, a list with duplicates or a dict, non-members included:
        each port goes to the member one pick per port would choose, and
        the pointer ends where those picks leave it."""
        start %= size
        members = list(range(size))
        candidates = {
            "set": set(drawn),
            "list": list(drawn),
            "dict": dict.fromkeys(drawn),
        }[form]
        eligible = {c for c in drawn if 0 <= c < size}
        ranked = RoundRobinRing(members, start=start)
        ordered = ranked.ordered_candidates(candidates)
        assert ordered == [ranked.pick(candidates) for _ in eligible]
        fast = RoundRobinRing(members, start=start)
        slow = RoundRobinRing(members, start=start)
        ports = tuple(range(3, 3 + 2 * count, 2))
        dealt = fast.deal(candidates, ports)
        picked = [(port, slow.pick(candidates)) for port in ports]
        picked = [(port, member) for port, member in picked if member is not None]
        assert sorted(
            (port, member) for member, got in dealt for port in got
        ) == picked
        # Members come back by rank, each with a rising slice of the ports.
        assert [member for member, _got in dealt] == ordered[: len(dealt)]
        assert all(list(got) == sorted(got) for _member, got in dealt)
        assert fast.pointer == slow.pointer

    @given(
        size=st.integers(1, 128),
        start=st.integers(0, 127),
        member=st.integers(-2, 130),
    )
    @settings(max_examples=200)
    def test_pick_one_equals_pick_of_one(self, size, start, member):
        """The single-member pick is pick((m,)), pointer included."""
        start %= size
        fast = RoundRobinRing(list(range(size)), start=start)
        slow = RoundRobinRing(list(range(size)), start=start)
        assert fast.pick_one(member) == slow.pick((member,))
        assert fast.pointer == slow.pointer


class TestNoStarvation:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_persistent_candidate_is_served_within_one_rotation(self, seed):
        """A member that keeps requesting is picked within len(ring) picks."""
        rng = random.Random(seed)
        members = list(range(8))
        ring = RoundRobinRing(members, rng=rng)
        victim = rng.choice(members)
        for attempt in range(len(members)):
            candidates = set(rng.sample(members, rng.randint(1, 8))) | {victim}
            if ring.pick(candidates) == victim:
                return
        pytest.fail("victim starved for a full rotation")
