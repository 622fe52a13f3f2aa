"""Round-robin priority rings, the arbiters behind GRANT and ACCEPT.

NegotiaToR Matching borrows the round-robin matching (RRM) arbiter used for
crossbar switch scheduling: a ring over a fixed member set whose pointer marks
the highest-priority member, priority falling clockwise.  After a member is
chosen the pointer moves to the member right after it, so the least recently
served member is always favoured — fairness without starvation (section 3.2.1).
"""

from __future__ import annotations

import random
from collections.abc import Collection, Iterable, Sequence


class RoundRobinRing:
    """A round-robin arbiter over a fixed, ordered set of members.

    The paper initializes ring pointers randomly; pass an ``rng`` for that, or
    a ``start`` index for deterministic placement (tests).
    """

    __slots__ = ("_members", "_index_of", "_pointer")

    def __init__(
        self,
        members: Sequence[int],
        rng: random.Random | None = None,
        start: int | None = None,
    ) -> None:
        if not members:
            raise ValueError("ring needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("ring members must be unique")
        self._members = tuple(members)
        self._index_of = {member: i for i, member in enumerate(self._members)}
        if start is not None:
            if not 0 <= start < len(self._members):
                raise ValueError("start index out of range")
            self._pointer = start
        elif rng is not None:
            self._pointer = rng.randrange(len(self._members))
        else:
            self._pointer = 0

    @property
    def members(self) -> tuple[int, ...]:
        """The ring's member set, in clockwise order."""
        return self._members

    @property
    def pointer(self) -> int:
        """Index of the current highest-priority member."""
        return self._pointer

    def peek(self, candidates: Collection[int]) -> int | None:
        """Return the highest-priority member among ``candidates``.

        Does not move the pointer; returns None when no candidate belongs to
        the ring.  With few candidates the winner is found by ranking each
        candidate's clockwise distance from the pointer (O(candidates));
        with many, a clockwise scan stops at the first hit after O(ring /
        candidates) expected steps.  Both orders pick the same member.
        """
        members = self._members
        n = len(members)
        pointer = self._pointer
        if len(candidates) * 4 < n:
            index_of = self._index_of
            best = None
            best_rank = n
            for member in candidates:
                index = index_of.get(member)
                if index is None:
                    continue
                rank = index - pointer
                if rank < 0:
                    rank += n
                if rank < best_rank:
                    best, best_rank = member, rank
            return best
        for i in range(pointer, n):
            if members[i] in candidates:
                return members[i]
        for i in range(pointer):
            if members[i] in candidates:
                return members[i]
        return None

    def advance_past(self, member: int) -> None:
        """Move the pointer to the member right after ``member``."""
        try:
            index = self._index_of[member]
        except KeyError:
            raise ValueError(f"{member} is not a ring member") from None
        self._pointer = (index + 1) % len(self._members)

    def pick(self, candidates: Collection[int]) -> int | None:
        """Pick the highest-priority candidate and advance the pointer.

        This is one GRANT (or ACCEPT) decision: the chosen member loses its
        priority until the ring wraps around to it again.
        """
        member = self.peek(candidates)
        if member is not None:
            self.advance_past(member)
        return member

    def pick_one(self, member: int) -> int | None:
        """:meth:`pick` over the single candidate ``member``.

        Equal to ``pick((member,))``, pointer included, at the cost of one
        index lookup: ACCEPT uses it for every port holding a single grant.
        """
        index = self._index_of.get(member)
        if index is None:
            return None
        self._pointer = (index + 1) % len(self._members)
        return member

    def ordered_candidates(self, candidates: Collection[int]) -> list[int]:
        """The candidates that are ring members, by priority (highest first).

        Dealing ports to this list round-robin is equivalent to calling
        :meth:`pick` repeatedly while every candidate keeps requesting.
        Candidates are sorted by clockwise distance from the pointer, in
        O(candidates x log candidates) whatever the ring size; distances
        within a ring are distinct, so duplicates collapse.
        """
        index_of = self._index_of
        n = len(self._members)
        pointer = self._pointer
        by_rank = {}
        for member in candidates:
            index = index_of.get(member)
            if index is not None:
                by_rank[(index - pointer) % n] = member
        return [by_rank[rank] for rank in sorted(by_rank)]

    def deal(
        self, candidates: Collection[int], ports: Sequence[int]
    ) -> list[tuple[int, Sequence[int]]]:
        """Deal ``ports`` round-robin over a fixed candidate set.

        Used by GRANT to allocate all ports of a destination ToR in one go:
        port i goes to the (i mod k)-th of the k ranked candidates, so the
        j-th ranked member receives ``ports[j::k]``.  Returns each dealt
        member with its ports, by rank.  The pointer ends up right after
        the last port's member, exactly as one :meth:`pick` per port would
        leave it.
        """
        if len(candidates) == 1:
            # A lone requester takes every port: the pointer moves once,
            # past it, as pick_one moves it.
            (member,) = candidates
            if not ports or self.pick_one(member) is None:
                return []
            return [(member, ports)]
        ordered = self.ordered_candidates(candidates)
        if not ordered or not ports:
            return []
        del ordered[len(ports):]
        k = len(ordered)
        self.advance_past(ordered[(len(ports) - 1) % k])
        return [(member, ports[j::k]) for j, member in enumerate(ordered)]


def build_rings(
    member_sets: Iterable[Sequence[int]], rng: random.Random
) -> list[RoundRobinRing]:
    """Construct one randomly-initialized ring per member set."""
    return [RoundRobinRing(members, rng=rng) for members in member_sets]
