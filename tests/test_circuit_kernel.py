"""The circuit kernel the oblivious, rotor and adaptive baselines share.

:class:`~repro.sim.kernel.CircuitKernel` owns what the three baselines
do around their policies (DESIGN.md section 7): the fabric checks,
packet constants and PIAS band limits, the first-hop and relay queues
with their per-ToR byte counters, delivery and hand-over, packet timing
inside a step, and the step tail.  Every test here runs once per
baseline, so the contract is pinned where it lives and an engine that
drifts from it fails under its own name.
"""

from __future__ import annotations

import pytest

from repro import BandwidthRecorder, ParallelNetwork, ThinClos
from repro.experiments.common import MICRO, make_topology, sim_config
from repro.sim.adaptive import AdaptiveSimulator
from repro.sim.config import RotorConfig, transmit_ns
from repro.sim.flows import Flow
from repro.sim.oblivious import ObliviousSimulator
from repro.sim.queues import PiasDestQueue
from repro.sim.rotor import RotorSimulator
from repro.telemetry import EngineTracer, MemorySink

NUM_TORS = MICRO.num_tors
PORTS = MICRO.ports_per_tor
PAYLOAD = sim_config(MICRO).epoch.data_payload_bytes

BASELINES = {
    "oblivious": ObliviousSimulator,
    "rotor": RotorSimulator,
    "adaptive": AdaptiveSimulator,
}

#: Where the first packet of a step starts, after the step does: the
#: rotor pays its reconfiguration delay on every slice, the adaptive
#: engine charges reconfiguration per port instead, and the oblivious
#: engine's one-cell slot keeps the kernel's default.
LEADS = {
    "oblivious": 0.0,
    "rotor": RotorConfig().reconfiguration_delay_ns,
    "adaptive": 0.0,
}

#: The baselines whose arrivals take the kernel's one-hop ``_enqueue``
#: (the oblivious engine sprays cells over intermediates instead).
ONE_HOP = ["rotor", "adaptive"]


def _build(name, flows=(), *, pq=True, topology=None, config=None, **kwargs):
    return BASELINES[name](
        sim_config(MICRO, priority_queue_enabled=pq, **(config or {})),
        topology or make_topology(MICRO, "thinclos"),
        list(flows),
        **kwargs,
    )


def _flow(fid=0, src=0, dst=5, size=5_000, arrival=0.0):
    return Flow(fid=fid, src=src, dst=dst, size_bytes=size, arrival_ns=arrival)


@pytest.fixture(params=sorted(BASELINES))
def name(request):
    return request.param


# ---------------------------------------------------------------------------
# fabric checks and constants
# ---------------------------------------------------------------------------


class TestFabric:
    def test_refuses_the_parallel_network(self, name):
        with pytest.raises(ValueError, match="thin-clos"):
            _build(name, topology=ParallelNetwork(NUM_TORS, PORTS))

    @pytest.mark.parametrize(
        "field, topology",
        [
            ("num_tors", ThinClos(16, 2, 8)),
            ("ports_per_tor", ThinClos(8, 4, 2)),
        ],
    )
    def test_refuses_a_fabric_of_another_shape(self, name, field, topology):
        with pytest.raises(ValueError, match=f"disagree on {field}"):
            _build(name, topology=topology)

    def test_packet_constants(self, name):
        sim = _build(name)
        epoch = sim.config.epoch
        assert sim._tx_ns == transmit_ns(
            epoch.data_header_bytes + epoch.data_payload_bytes,
            sim.config.uplink_gbps,
        )
        assert sim.payload_bytes == epoch.data_payload_bytes
        assert sim.cycle_slots == sim.topology.predefined_slots

    @pytest.mark.parametrize("pq", [True, False])
    def test_band_limits_follow_the_pias_switch(self, name, pq):
        sim = _build(name, pq=pq)
        expected = tuple(sim.config.pias_thresholds) if pq else ()
        assert sim._band_limits == expected


# ---------------------------------------------------------------------------
# queues and their byte counters
# ---------------------------------------------------------------------------


class TestQueues:
    def test_fresh_fabric_is_idle_and_empty(self, name):
        sim = _build(name)
        assert sim.is_idle()
        assert sim.total_queued_bytes == 0
        for tor in range(NUM_TORS):
            assert sim.direct_bytes_at(tor) == 0
            assert sim.relay_bytes_at(tor) == 0

    def test_direct_queue_is_made_once(self, name):
        sim = _build(name)
        queue = sim._direct_queue(0, 3)
        assert sim._direct_queue(0, 3) is queue
        assert sim._direct[0] == {3: queue}
        assert queue.is_empty

    @pytest.mark.parametrize("pq", [True, False])
    def test_direct_queue_has_one_band_per_pias_class(self, name, pq):
        sim = _build(name, pq=pq)
        queue = sim._direct_queue(0, 3)
        assert queue.num_bands == sim.config.num_priority_bands

    def test_arrival_is_counted_at_its_source(self, name):
        flow = _flow(src=2, dst=5, size=5_000)
        sim = _build(name, [flow])
        sim._inject_arrivals(0.0)
        assert sim.direct_bytes_at(2) == 5_000
        assert sum(q.pending_bytes for q in sim._direct[2].values()) == 5_000
        assert sim.total_queued_bytes == 5_000
        assert not sim.is_idle()
        for tor in range(NUM_TORS):
            if tor != 2:
                assert sim.direct_bytes_at(tor) == 0
            assert sim.relay_bytes_at(tor) == 0

    @pytest.mark.parametrize("name", ONE_HOP)
    def test_one_hop_arrival_waits_for_its_destination(self, name):
        flow = _flow(src=2, dst=5, size=5_000)
        sim = _build(name, [flow])
        sim._inject_arrivals(0.0)
        assert list(sim._direct[2]) == [5]
        queue = sim._direct[2][5]
        # PIAS classes: the first 1 KB, the next 9 KB, the rest.
        assert [queue.band_bytes(band) for band in range(3)] == [
            1_000,
            4_000,
            0,
        ]


# ---------------------------------------------------------------------------
# delivery at the destination
# ---------------------------------------------------------------------------


class TestDeliver:
    def test_deliver_credits_the_destination(self, name):
        flow = _flow(src=1, dst=6, size=5_000)
        sim = _build(name, [flow])
        sim._deliver(flow, 700, 1_234.0)
        assert sim.tracker.delivered_bytes == 700
        assert sim.tracker.delivered_bytes_at(6) == 700
        assert flow.remaining_bytes == 4_300
        assert not flow.completed

    def test_deliver_completes_on_the_last_byte(self, name):
        flow = _flow(src=1, dst=6, size=5_000)
        sim = _build(name, [flow])
        sim._deliver(flow, 4_000, 1_000.0)
        sim._deliver(flow, 1_000, 2_500.0)
        assert flow.completed_ns == 2_500.0
        assert sim.tracker.num_completed == 1

    def test_deliver_records_the_destination_rx_bin(self, name):
        flow = _flow(src=1, dst=6, size=5_000)
        recorder = BandwidthRecorder(bin_ns=1_000.0)
        sim = _build(name, [flow], bandwidth_recorder=recorder)
        sim._deliver(flow, 700, 1_234.0)
        assert recorder.keys() == [("rx", 6)]
        assert recorder.window_bytes(("rx", 6), 1_000.0, 2_000.0) == 700


# ---------------------------------------------------------------------------
# hand-over to an intermediate
# ---------------------------------------------------------------------------


class TestHandOver:
    def test_hand_over_buffers_at_the_intermediate(self, name):
        flow = _flow(src=0, dst=5, size=5_000)
        sim = _build(name, [flow])
        sim._hand_over(flow, 1_115, 4, 500.0, 900.0)
        assert sim.relay_bytes_at(4) == 1_115
        assert sim.total_queued_bytes == 1_115
        assert list(sim._relay[4]) == [5]
        assert sim._relay[4][5].pending_bytes == 1_115
        assert not sim.is_idle()
        assert sim.tracker.delivered_bytes == 0

    def test_relayed_bytes_lose_their_pias_class(self, name):
        flow = _flow(src=0, dst=5, size=5_000)
        sim = _build(name, [flow])
        assert len(sim._band_limits) == 2
        sim._hand_over(flow, 1_115, 4, 500.0, 900.0)
        assert sim._relay[4][5].num_bands == 1

    def test_relayed_bytes_wait_until_eligible(self, name):
        flow = _flow(src=0, dst=5, size=5_000)
        sim = _build(name, [flow])
        sim._hand_over(flow, 1_115, 4, 500.0, 900.0)
        queue = sim._relay[4][5]
        assert queue.drain_single_packet(sim.payload_bytes, 899.0) is None
        assert queue.drain_single_packet(sim.payload_bytes, 900.0) == (
            flow,
            1_115,
        )

    def test_hand_over_records_the_relay_bin_at_arrival(self, name):
        flow = _flow(src=0, dst=5, size=5_000)
        recorder = BandwidthRecorder(bin_ns=1_000.0)
        sim = _build(name, [flow], bandwidth_recorder=recorder)
        sim._hand_over(flow, 1_115, 4, 500.0, 1_900.0)
        assert recorder.keys() == [("relay", 4)]
        assert recorder.window_bytes(("relay", 4), 0.0, 1_000.0) == 1_115


# ---------------------------------------------------------------------------
# packets inside a step
# ---------------------------------------------------------------------------


class TestPacketTiming:
    def test_first_packet_starts_after_the_lead(self, name):
        sim = _build(name)
        assert sim._packet_start_ns(3_000.0, 0) == 3_000.0 + LEADS[name]

    def test_packets_go_back_to_back(self, name):
        sim = _build(name)
        starts = [sim._packet_start_ns(0.0, k) for k in range(6)]
        for earlier, later in zip(starts, starts[1:]):
            assert later - earlier == pytest.approx(sim._tx_ns)

    def test_packet_lands_after_tx_and_propagation(self, name):
        sim = _build(name)
        start = sim._packet_start_ns(3_000.0, 4)
        assert sim._packet_deliver_ns(3_000.0, 4) == (
            start + sim._tx_ns + sim.config.propagation_ns
        )


class TestServeDirect:
    def test_sends_up_to_the_budget(self, name):
        flow = _flow(src=0, dst=5, size=10 * PAYLOAD)
        sim = _build(name, [flow], pq=False)
        sim._direct_queue(0, 5).enqueue_flow(flow)
        sim._direct_pending[0] += flow.size_bytes
        assert sim._serve_direct(0, 5, 0.0, 0, 4) == 4
        assert sim.direct_bytes_at(0) == 6 * PAYLOAD
        assert sim.tracker.delivered_bytes_at(5) == 4 * PAYLOAD

    def test_starts_at_the_offset(self, name):
        flow = _flow(src=0, dst=5, size=500)
        sim = _build(name, [flow])
        sim._direct_queue(0, 5).enqueue_flow(flow)
        sim._direct_pending[0] += 500
        assert sim._serve_direct(0, 5, 1_000.0, 2, 4) == 1
        assert sim.direct_bytes_at(0) == 0
        assert flow.completed_ns == sim._packet_deliver_ns(1_000.0, 2)

    def test_completes_at_the_last_packet(self, name):
        flow = _flow(src=0, dst=5, size=3 * PAYLOAD)
        sim = _build(name, [flow], pq=False)
        sim._direct_queue(0, 5).enqueue_flow(flow)
        sim._direct_pending[0] += flow.size_bytes
        assert sim._serve_direct(0, 5, 0.0, 0, 8) == 3
        assert flow.completed_ns == sim._packet_deliver_ns(0.0, 2)
        assert sim.is_idle()
        assert sim.total_queued_bytes == 0

    def test_spent_budget_or_empty_queue_sends_nothing(self, name):
        flow = _flow(src=0, dst=5, size=500)
        sim = _build(name, [flow])
        assert sim._serve_direct(0, 5, 0.0, 0, 4) == 0
        sim._direct_queue(0, 3)
        assert sim._serve_direct(0, 3, 0.0, 0, 4) == 0
        sim._direct_queue(0, 5).enqueue_flow(flow)
        sim._direct_pending[0] += 500
        assert sim._serve_direct(0, 5, 0.0, 4, 4) == 0
        assert sim.direct_bytes_at(0) == 500
        assert not flow.completed


class TestTransmit:
    def test_drain_via_an_intermediate_is_store_and_forward(self, name):
        flow = _flow(src=0, dst=5, size=3 * PAYLOAD)
        recorder = BandwidthRecorder(bin_ns=100.0)
        sim = _build(name, [flow], pq=False, bandwidth_recorder=recorder)
        queue = sim._direct_queue(0, 5)
        queue.enqueue_flow(flow)
        start = 2 * sim._step_ns
        assert sim._transmit(queue, start, 0, 8, via=2) == (3, 3 * PAYLOAD)
        arrival = sim._packet_deliver_ns(start, 2)
        relay = sim._relay[2][5]
        assert relay.pending_bytes == 3 * PAYLOAD
        assert relay.next_eligibility() == max(arrival, start + sim._step_ns)
        assert sim.relay_bytes_at(2) == 3 * PAYLOAD
        assert sim.tracker.delivered_bytes == 0
        # Recorded in the bin of the last packet's arrival.
        arrival_bin = arrival // 100.0 * 100.0
        assert recorder.window_bytes(
            ("relay", 2), arrival_bin, arrival_bin + 100.0
        ) == 3 * PAYLOAD

    def test_relayed_chunk_waits_for_the_next_step(self, name):
        """Without propagation delay a one-packet first hop lands inside
        its step; the chunk becomes forwardable at the step boundary."""
        flow = _flow(src=0, dst=5, size=PAYLOAD)
        sim = _build(name, [flow], pq=False, config={"propagation_ns": 0.0})
        queue = sim._direct_queue(0, 5)
        queue.enqueue_flow(flow)
        start = 2 * sim._step_ns
        assert sim._transmit(queue, start, 0, 1, via=2) == (1, PAYLOAD)
        assert sim._packet_deliver_ns(start, 0) < start + sim._step_ns
        assert sim._relay[2][5].next_eligibility() == start + sim._step_ns

    def test_one_band_drain_stops_at_an_ineligible_head(self, name):
        flow = _flow(src=0, dst=5, size=2 * PAYLOAD)
        sim = _build(name, [flow])
        later = sim._packet_start_ns(0.0, 2)
        queue = PiasDestQueue((), False)
        queue.enqueue_bytes(flow, 2 * PAYLOAD, band=0, eligible_ns=later)
        assert sim._transmit(queue, 0.0, 0, 6, band=0) == (0, 0)
        assert queue.pending_bytes == 2 * PAYLOAD
        # Draining in PIAS order idles packets 0 and 1 instead.
        assert sim._transmit(queue, 0.0, 0, 6) == (4, 2 * PAYLOAD)
        assert flow.completed_ns == sim._packet_deliver_ns(0.0, 3)


# ---------------------------------------------------------------------------
# the step tail
# ---------------------------------------------------------------------------


def _traced(name, cadence_ns):
    sink = MemorySink()
    tracer = EngineTracer(sink, name, cadence_ns=cadence_ns)
    return _build(name, tracer=tracer), tracer, sink


class TestStepTail:
    def test_end_step_advances_the_clock_one_step(self, name):
        sim = _build(name)
        sim._end_step()
        sim._end_step()
        assert sim._step == 2
        assert sim.now_ns == 2 * sim._step_ns

    def test_step_closes_through_the_tail(self, name):
        sim = _build(name)
        sim.step()
        assert sim._step == 1
        assert sim.now_ns == sim._step_ns

    def test_end_step_counts_the_engine_step_counter(self, name):
        sim, tracer, sink = _traced(name, cadence_ns=10**12)
        for _ in range(3):
            sim._end_step()
        tracer.finish(int(sim.now_ns))
        (run_end,) = sink.of_kind("run-end")
        assert run_end["counters"] == {sim.step_counter: 3}

    def test_gauges_are_sampled_at_the_cadence(self, name):
        step_ns = _build(name)._step_ns
        sim, _, sink = _traced(name, cadence_ns=int(3 * step_ns))
        for _ in range(7):
            sim._end_step()
        times = sorted({event["sim_ns"] for event in sink.of_kind("gauge")})
        assert times == [int(3 * step_ns), int(6 * step_ns)]
        names = {event["name"] for event in sink.of_kind("gauge")}
        assert names == set(sim._gauges())

    def test_gauges_read_the_queue_counters(self, name):
        flow = _flow(src=0, dst=5, size=5_000)
        sim = _build(name, [flow])
        sim._inject_arrivals(0.0)
        sim._hand_over(flow, 1_000, 4, 0.0, 0.0)
        expected = {"queued_bytes": 6_000, "relay_bytes": 1_000}
        if name == "adaptive":
            # Its fabric never relays; it reports its demand circuits,
            # none of which is up before the first recompute.
            expected = {"queued_bytes": 6_000, "active_circuits": 0}
        assert sim._gauges() == expected
        assert sim.total_queued_bytes == 6_000

    def test_end_step_folds_streamed_completions(self, name):
        flow = _flow(src=0, dst=5, size=500)
        sim = _build(name, [flow], stream=True)
        sim._inject_arrivals(0.0)
        sim._deliver(flow, 500, 400.0)
        assert sim.tracker._pending_folds
        sim._end_step()
        assert sim.tracker._pending_folds == []
        assert sim.tracker.num_completed == 1
