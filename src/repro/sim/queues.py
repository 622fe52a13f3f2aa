"""Per-destination queues with PIAS-style multi-level priorities.

Every ToR keeps one FIFO queue per destination ToR (section 3.1).  To keep
mice flows from being blocked behind elephants in both the piggyback and the
scheduled path, sources run the information-agnostic PIAS priority scheme
(section 3.4.2): the first 1 KB of each flow sits in the highest-priority
band, the next 9 KB in the middle band, and the rest in the lowest band.
Within a band service is FIFO.

Flows are stored as byte *segments* rather than individual packets: a drain of
k timeslots walks whole segments, which is byte- and time-exact for FIFO
service while avoiding per-packet Python overhead (see DESIGN.md section 6).
Each segment carries the time at which its bytes became available at the
source ToR, so data that arrives mid-epoch cannot be transmitted by earlier
timeslots.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .flows import Flow

INFINITY = float("inf")

Chunk = tuple[Flow, int, int]
"""One contiguous run a drain served: ``(flow, bytes, last_slot)``."""


@dataclass(slots=True)
class Segment:
    """A contiguous run of one flow's bytes inside one priority band.

    Segments are the engine's highest-churn records (one per band per flow,
    plus one per relayed chunk); ``slots=True`` keeps them dict-free.
    """

    flow: Flow
    bytes_remaining: int
    eligible_ns: float


class PiasDestQueue:
    """The per-destination queue of one (source ToR, destination ToR) pair."""

    __slots__ = ("_bands", "_thresholds", "_pending", "_total_enqueued")

    def __init__(self, thresholds: Sequence[int], enabled: bool = True) -> None:
        if enabled:
            if list(thresholds) != sorted(thresholds):
                raise ValueError("PIAS thresholds must be non-decreasing")
            self._thresholds = tuple(thresholds)
        else:
            self._thresholds = ()
        self._bands: tuple[deque[Segment], ...] = tuple(
            deque() for _ in range(len(self._thresholds) + 1)
        )
        self._pending = 0
        self._total_enqueued = 0

    @classmethod
    def maker(cls, thresholds: Sequence[int], enabled: bool = True) -> Callable:
        """A constructor of empty queues over ``thresholds``, checked once."""
        limits = cls(thresholds, enabled)._thresholds
        no_segments = ((),) * (len(limits) + 1)

        def make() -> PiasDestQueue:
            queue = cls.__new__(cls)
            queue._thresholds, queue._bands = limits, tuple(map(deque, no_segments))
            queue._pending = queue._total_enqueued = 0
            return queue

        return make

    @property
    def num_bands(self) -> int:
        """Number of priority bands (1 when PIAS is disabled)."""
        return len(self._bands)

    @property
    def pending_bytes(self) -> int:
        """Bytes currently queued across all bands."""
        return self._pending

    @property
    def is_empty(self) -> bool:
        """Whether no bytes are queued."""
        return self._pending == 0

    @property
    def total_enqueued_bytes(self) -> int:
        """Cumulative bytes ever enqueued (monotonic).

        The stateful scheduling variant (appendix A.2.4) reports the delta of
        this counter as the "newly arrived data" in its requests.
        """
        return self._total_enqueued

    def band_bytes(self, band: int) -> int:
        """Bytes queued in one priority band."""
        return sum(seg.bytes_remaining for seg in self._bands[band])

    def head_wait_ns(self, band: int, now_ns: float) -> float:
        """Waiting time of a band's head-of-line segment (0 when empty).

        The HoL-delay informative-request variant (appendix A.2.3) feeds a
        weighted combination of these into its request priority.
        """
        segments = self._bands[band]
        if not segments:
            return 0.0
        return max(0.0, now_ns - segments[0].eligible_ns)

    def enqueue_flow(self, flow: Flow, eligible_ns: float | None = None) -> None:
        """Add a newly arrived flow, split across bands by cumulative bytes.

        PIAS demotes a flow after it has *sent* each threshold's worth of
        bytes; for a single flow the cumulative sent bytes equal its byte
        offsets, so splitting the flow into static per-band segments yields
        the same service order.
        """
        when = flow.arrival_ns if eligible_ns is None else eligible_ns
        offset = 0
        for band, threshold in enumerate(self._thresholds):
            span = min(flow.size_bytes, threshold) - offset
            if span > 0:
                self._bands[band].append(Segment(flow, span, when))
                offset += span
            if offset >= flow.size_bytes:
                break
        tail = flow.size_bytes - offset
        if tail > 0:
            self._bands[-1].append(Segment(flow, tail, when))
        self._pending += flow.size_bytes
        self._total_enqueued += flow.size_bytes

    def enqueue_bytes(
        self, flow: Flow, num_bytes: int, band: int, eligible_ns: float
    ) -> None:
        """Append a raw byte segment to one band.

        Used for traffic that re-enters a queue mid-flow: relayed cells at an
        intermediate ToR (oblivious baseline, selective relay) arrive as
        segments, not fresh flows.
        """
        if num_bytes <= 0:
            raise ValueError("segment must carry bytes")
        if not 0 <= band < len(self._bands):
            raise ValueError(f"band {band} out of range")
        self._bands[band].append(Segment(flow, num_bytes, eligible_ns))
        self._pending += num_bytes
        self._total_enqueued += num_bytes

    def head_band(self, now_ns: float) -> int | None:
        """Highest-priority band whose head segment is eligible at ``now_ns``."""
        for band, segments in enumerate(self._bands):
            if segments and segments[0].eligible_ns <= now_ns:
                return band
        return None

    def next_eligibility(self, above_band: int | None = None) -> float:
        """Earliest head eligibility among bands strictly above ``above_band``.

        With ``above_band=None`` considers every band.  Returns +inf when no
        such head exists.  Used by drains to know when a higher-priority
        segment will preempt the one currently being served.
        """
        limit = len(self._bands) if above_band is None else above_band
        earliest = INFINITY
        for band in range(limit):
            segments = self._bands[band]
            if segments and segments[0].eligible_ns < earliest:
                earliest = segments[0].eligible_ns
        return earliest

    def pop_bytes(self, band: int, max_bytes: int) -> tuple[Flow, int]:
        """Consume up to ``max_bytes`` from the head segment of ``band``.

        Returns the flow served and the bytes consumed.  Only the head
        segment is touched — one packet never mixes flows.
        """
        segments = self._bands[band]
        if not segments:
            raise ValueError(f"band {band} is empty")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        head = segments[0]
        taken = min(head.bytes_remaining, max_bytes)
        head.bytes_remaining -= taken
        self._pending -= taken
        if head.bytes_remaining == 0:
            segments.popleft()
        return head.flow, taken

    def drain_slots(
        self,
        num_slots: int,
        payload_bytes: int,
        base_ns: float,
        step_ns: float,
        lanes: int = 1,
        first: int = 0,
    ) -> tuple[list[Chunk], int]:
        """Serve up to ``num_slots`` timeslots from this queue.

        Slot ``v`` starts at ``base_ns + ((first + v) // lanes) * step_ns``:
        ``lanes`` slots share each start (the ports of one scheduled
        timeslot), and ``first`` offsets the grid when a step's earlier
        packets went to other queues.  Each slot carries one packet of at
        most ``payload_bytes`` from the head segment of the highest band
        eligible at that slot's start.

        Returns the served chunks and the number of slots used.  A chunk
        is ``(flow, bytes, last_slot)``, ``last_slot`` being the slot that
        carries the chunk's final byte (the caller converts it to a
        delivery time).  Elephant segments are consumed in bulk: a run of
        slots serving the same segment is interrupted only when the
        segment empties, a higher-priority head becomes eligible, or the
        phase ends.
        """
        served: list[Chunk] = []
        slot = 0
        while slot < num_slots:
            now = base_ns + ((first + slot) // lanes) * step_ns
            band = self.head_band(now)
            if band is None:
                wake = self.next_eligibility()
                if wake == INFINITY:
                    break
                # Idle until the first slot that can see the new arrival.
                while (
                    slot < num_slots
                    and base_ns + ((first + slot) // lanes) * step_ns < wake
                ):
                    slot += 1
                continue
            head = self._bands[band][0]
            slots_for_segment = math.ceil(head.bytes_remaining / payload_bytes)
            run = min(num_slots - slot, slots_for_segment)
            preempt = self.next_eligibility(above_band=band)
            if preempt != INFINITY:
                # Higher-priority data arrives mid-run: stop at the first
                # slot that starts at or after its eligibility.  Every
                # higher head was ineligible at ``now``, this slot's start
                # on the same grid, so ``preempt > now`` and the loop
                # advances at least once.
                capped = slot
                while (
                    capped < slot + run
                    and base_ns + ((first + capped) // lanes) * step_ns < preempt
                ):
                    capped += 1
                run = capped - slot
            flow, taken = self.pop_bytes(band, run * payload_bytes)
            last_slot = slot + math.ceil(taken / payload_bytes) - 1
            served.append((flow, taken, last_slot))
            slot += run
        return served, slot

    def drain_band_slots(
        self,
        band: int,
        num_slots: int,
        payload_bytes: int,
        base_ns: float,
        step_ns: float,
        first: int = 0,
    ) -> tuple[list[Chunk], int]:
        """Like :meth:`drain_slots` but restricted to one priority band,
        on a one-lane grid, and stopping at an ineligible head.

        The traffic-aware selective relay (appendix A.2.2) only ever relays
        lowest-band (elephant) data; mice bands must stay untouched so they
        keep their direct one-hop path.
        """
        served: list[Chunk] = []
        slot = 0
        segments = self._bands[band]
        while slot < num_slots and segments:
            head = segments[0]
            if head.eligible_ns > base_ns + (first + slot) * step_ns:
                break
            slots_for_segment = math.ceil(head.bytes_remaining / payload_bytes)
            run = min(num_slots - slot, slots_for_segment)
            flow, taken = self.pop_bytes(band, run * payload_bytes)
            last_slot = slot + math.ceil(taken / payload_bytes) - 1
            served.append((flow, taken, last_slot))
            slot += run
        return served, slot

    def drain_single_packet(
        self, payload_bytes: int, now_ns: float
    ) -> tuple[Flow, int] | None:
        """Serve one packet (the piggyback opportunity of the predefined phase,
        or one oblivious-rotor cell).

        Returns (flow, bytes) or None when nothing is eligible at ``now_ns``.
        Called once per active pair per epoch and once per oblivious link
        per slot, so the band scan and the head pop are fused here instead
        of going through :meth:`head_band` + :meth:`pop_bytes` (whose
        argument validation is redundant on these paths).
        """
        for segments in self._bands:
            if segments and segments[0].eligible_ns <= now_ns:
                head = segments[0]
                taken = head.bytes_remaining
                if taken > payload_bytes:
                    taken = payload_bytes
                head.bytes_remaining -= taken
                self._pending -= taken
                if head.bytes_remaining == 0:
                    segments.popleft()
                return head.flow, taken
        return None
