"""Tests for the PIAS per-destination queues (sections 3.1 and 3.4.2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.flows import Flow
from repro.sim.queues import PiasDestQueue

THRESHOLDS = (1000, 10000)


def make_flow(size, arrival=0.0, fid=0, src=0, dst=1):
    return Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=arrival)


class TestEnqueue:
    def test_small_flow_lands_entirely_in_top_band(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(500))
        assert q.band_bytes(0) == 500
        assert q.band_bytes(1) == 0
        assert q.band_bytes(2) == 0

    def test_medium_flow_splits_across_two_bands(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(4000))
        assert q.band_bytes(0) == 1000
        assert q.band_bytes(1) == 3000
        assert q.band_bytes(2) == 0

    def test_elephant_flow_splits_across_three_bands(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000))
        assert q.band_bytes(0) == 1000
        assert q.band_bytes(1) == 9000
        assert q.band_bytes(2) == 40000

    def test_exact_threshold_flow(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(1000))
        assert q.band_bytes(0) == 1000
        assert q.band_bytes(1) == 0

    def test_pending_bytes_accumulate(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(500))
        q.enqueue_flow(make_flow(4000, fid=1))
        assert q.pending_bytes == 4500

    def test_disabled_pias_uses_single_band(self):
        q = PiasDestQueue(THRESHOLDS, enabled=False)
        q.enqueue_flow(make_flow(50000))
        assert q.num_bands == 1
        assert q.band_bytes(0) == 50000

    def test_enqueue_bytes_validates(self):
        q = PiasDestQueue(THRESHOLDS)
        with pytest.raises(ValueError):
            q.enqueue_bytes(make_flow(10), 0, band=0, eligible_ns=0.0)
        with pytest.raises(ValueError):
            q.enqueue_bytes(make_flow(10), 5, band=3, eligible_ns=0.0)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            PiasDestQueue((10000, 1000))

    def test_maker_checks_once_and_builds_independent_queues(self):
        with pytest.raises(ValueError):
            PiasDestQueue.maker((10000, 1000))
        for enabled in (True, False):
            make = PiasDestQueue.maker(list(THRESHOLDS), enabled)
            first, second = make(), make()
            built = PiasDestQueue(THRESHOLDS, enabled)
            assert first.num_bands == second.num_bands == built.num_bands
            for queue in (first, built):
                queue.enqueue_flow(make_flow(50000))
            assert [first.band_bytes(b) for b in range(first.num_bands)] == [
                built.band_bytes(b) for b in range(built.num_bands)
            ]
            assert first.pending_bytes == first.total_enqueued_bytes == 50000
            assert second.is_empty and second.total_enqueued_bytes == 0


class TestHeadBand:
    def test_priority_order(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000))  # fills all three bands
        assert q.head_band(now_ns=0.0) == 0

    def test_eligibility_gates_head(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(500, arrival=100.0))
        assert q.head_band(now_ns=50.0) is None
        assert q.head_band(now_ns=100.0) == 0

    def test_lower_band_serves_while_higher_not_yet_eligible(self):
        """A late mice flow must not block earlier elephant data."""
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000, arrival=0.0))
        # Drain band 0 and 1 so only band 2 remains eligible now.
        q.pop_bytes(0, 1000)
        q.pop_bytes(1, 9000)
        q.enqueue_flow(make_flow(500, arrival=1000.0, fid=1))
        assert q.head_band(now_ns=0.0) == 2
        assert q.head_band(now_ns=1000.0) == 0

    def test_empty_queue(self):
        q = PiasDestQueue(THRESHOLDS)
        assert q.head_band(0.0) is None
        assert q.is_empty


class TestNextEligibility:
    def test_earliest_across_bands(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(500, arrival=300.0))
        q.enqueue_flow(make_flow(20000, arrival=100.0, fid=1))
        assert q.next_eligibility() == 100.0

    def test_above_band_excludes_lower_priority(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000, arrival=100.0))
        q.pop_bytes(0, 1000)
        q.pop_bytes(1, 9000)
        # Only band 2 holds data; nothing *above* band 2 is pending.
        assert q.next_eligibility(above_band=2) == math.inf

    def test_infinite_when_empty(self):
        assert PiasDestQueue(THRESHOLDS).next_eligibility() == math.inf


class TestPopBytes:
    def test_partial_pop_keeps_segment(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(800))
        flow, taken = q.pop_bytes(0, 500)
        assert taken == 500
        assert q.band_bytes(0) == 300
        assert flow.fid == 0

    def test_pop_caps_at_segment(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(300))
        _flow, taken = q.pop_bytes(0, 1000)
        assert taken == 300
        assert q.is_empty

    def test_one_packet_never_mixes_flows(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(300))
        q.enqueue_flow(make_flow(300, fid=1))
        flow, taken = q.pop_bytes(0, 1000)
        assert (flow.fid, taken) == (0, 300)
        flow, taken = q.pop_bytes(0, 1000)
        assert (flow.fid, taken) == (1, 300)

    def test_pop_from_empty_band_raises(self):
        with pytest.raises(ValueError):
            PiasDestQueue(THRESHOLDS).pop_bytes(0, 100)

    def test_pop_zero_bytes_raises(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(100))
        with pytest.raises(ValueError):
            q.pop_bytes(0, 0)


class TestDrainSinglePacket:
    def test_serves_highest_eligible_band(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000))
        flow, taken = q.drain_single_packet(595, now_ns=0.0)
        assert taken == 595
        assert q.band_bytes(0) == 1000 - 595

    def test_none_when_nothing_eligible(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(500, arrival=10.0))
        assert q.drain_single_packet(595, now_ns=5.0) is None


def reference_drain(queue, num_slots, payload, slot_start_ns):
    """Slot-by-slot reference semantics for drain_slots."""
    deliveries = []
    for slot in range(num_slots):
        band = queue.head_band(slot_start_ns(slot))
        if band is None:
            continue
        flow, taken = queue.pop_bytes(band, payload)
        deliveries.append((flow.fid, taken, slot))
    return deliveries


def aggregate(deliveries):
    """Collapse per-packet deliveries to per-flow (bytes, last slot)."""
    totals = {}
    for fid, taken, slot in deliveries:
        bytes_so_far, _ = totals.get(fid, (0, -1))
        totals[fid] = (bytes_so_far + taken, slot)
    return totals


flow_strategy = st.lists(
    st.tuples(
        st.integers(1, 30000),  # size
        st.floats(0.0, 50.0),  # arrival (spans several slot times)
    ),
    min_size=0,
    max_size=8,
)


class TestDrainSlots:
    def test_single_small_flow_uses_one_slot(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(500))
        chunks, used = q.drain_slots(10, 1115, 0.0, 1.0)
        assert [(f.fid, b, s) for f, b, s in chunks] == [(0, 500, 0)]
        assert used == 1

    def test_elephant_bulk_drain_matches_slot_math(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000))
        chunks, _used = q.drain_slots(100, 1115, 0.0, 1.0)
        out = [(b, s) for _f, b, s in chunks]
        # band 0: 1000 B -> slot 0; band 1: 9000 B -> slots 1-9 (ceil 8.07);
        # band 2: 40000 B -> 36 slots.
        assert out[0] == (1000, 0)
        assert out[1] == (9000, 1 + math.ceil(9000 / 1115) - 1)
        assert out[2] == (40000, out[1][1] + 1 + math.ceil(40000 / 1115) - 1)

    def test_phase_end_truncates(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000))
        chunks, used = q.drain_slots(5, 1115, 0.0, 1.0)
        assert used == 5
        # Slot 0 carries the whole 1000 B band-0 segment (one packet per
        # slot, packets never mix bands), slots 1-4 carry full band-1 packets.
        drained = 1000 + 4 * 1115
        assert sum(b for _f, b, _s in chunks) == drained
        assert q.pending_bytes == 50000 - drained

    def test_waits_for_eligibility(self):
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(500, arrival=2.5))
        chunks, _used = q.drain_slots(10, 1115, 0.0, 1.0)
        # First slot starting at/after 2.5.
        assert [(f.fid, b, s) for f, b, s in chunks] == [(0, 500, 3)]

    def test_preemption_by_late_mice(self):
        """An elephant's bulk run is interrupted when mice become eligible."""
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_flow(make_flow(50000, arrival=0.0))
        q.pop_bytes(0, 1000)
        q.pop_bytes(1, 9000)  # only band 2 remains
        q.enqueue_flow(make_flow(200, arrival=4.5, fid=1))
        chunks, _used = q.drain_slots(20, 1115, 0.0, 1.0)
        out = [(f.fid, b, s) for f, b, s in chunks]
        # Elephant runs slots 0-4, mice at slot 5, elephant resumes.
        assert out[0] == (0, 5 * 1115, 4)
        assert out[1] == (1, 200, 5)
        assert out[2][0] == 0

    @given(
        flows=flow_strategy,
        num_slots=st.integers(1, 60),
        lanes=st.sampled_from((1, 2)),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunked_drain_equals_per_slot_reference(
        self, flows, num_slots, lanes
    ):
        """drain_slots is an exact bulk version of one-packet-per-slot,
        on one lane and on two lanes sharing each slot start (the
        scheduled phase's grid for a pair matched on several ports)."""
        payload = 1115
        fast_q = PiasDestQueue(THRESHOLDS)
        slow_q = PiasDestQueue(THRESHOLDS)
        for fid, (size, arrival) in enumerate(flows):
            fast_q.enqueue_flow(make_flow(size, arrival, fid=fid))
            slow_q.enqueue_flow(make_flow(size, arrival, fid=fid))
        chunks, _used = fast_q.drain_slots(num_slots, payload, 0.0, 1.0, lanes)
        fast_out = [(f.fid, b, s) for f, b, s in chunks]
        slow_out = reference_drain(
            slow_q, num_slots, payload, lambda v: 0.0 + (v // lanes) * 1.0
        )
        assert aggregate(fast_out) == aggregate(slow_out)
        assert fast_q.pending_bytes == slow_q.pending_bytes

    @given(flows=flow_strategy)
    @settings(max_examples=100, deadline=None)
    def test_byte_conservation(self, flows):
        q = PiasDestQueue(THRESHOLDS)
        total = 0
        for fid, (size, arrival) in enumerate(flows):
            q.enqueue_flow(make_flow(size, arrival, fid=fid))
            total += size
        chunks, _used = q.drain_slots(1000, 1115, 0.0, 1.0)
        assert sum(b for _f, b, _s in chunks) + q.pending_bytes == total


class TestDrainSlotsPreemptionEdge:
    """A higher band's arrival caps a lower band's run.

    Each slot start is one expression of the queue's slot grid, so the
    band ``head_band`` picks at a slot's start is the band the run cap
    sees at that start: a higher head that was ineligible there preempts
    at a later slot, never at the current one.
    """

    def test_consistent_clock_caps_run_at_preemption(self):
        # The ordinary mid-epoch preemption: a higher-band arrival caps the
        # elephant's run at the first slot starting at/after eligibility.
        q = PiasDestQueue(THRESHOLDS)
        q.enqueue_bytes(make_flow(50_000, fid=2), 10_000, band=2, eligible_ns=0.0)
        q.enqueue_flow(make_flow(600, arrival=270.0, fid=1))

        chunks, used = q.drain_slots(
            num_slots=10, payload_bytes=1000, base_ns=0.0, step_ns=90.0
        )
        served = [(f.fid, b, s) for f, b, s in chunks]
        assert served == [(2, 3000, 2), (1, 600, 3), (2, 6000, 9)]
        assert used == 10
        assert q.pending_bytes == 1000
