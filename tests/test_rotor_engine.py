"""The RotorNet-style rotor baseline: schedule, relay, failures, timing.

The engine's defining invariants (DESIGN.md section 12):

* **Schedule coverage** — each round-robin cycle offers every ToR a
  connection to all N-1 other ToRs exactly once, on both fabrics, in every
  cycle; link failures drop transmissions, never schedule entries.
* **Per-cycle service** — with every pair backlogged and VLB off, one full
  cycle delivers exactly ``packets_per_slice`` payloads per ordered pair;
  failing a link zeroes exactly the pairs riding it and leaves every other
  pair's share untouched.
* **RotorLB discipline** — only lowest-band (elephant) bytes ever detour
  through an intermediate; mice keep their one-hop path.
* **Determinism** — identical construction yields bit-identical runs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.common import MICRO, make_topology, sim_config
from repro.sim.config import EpochConfig, RotorConfig, transmit_ns
from repro.sim.failures import (
    Direction,
    FailurePlan,
    LinkFailureModel,
    LinkRef,
)
from repro.sim.flows import Flow
from repro.sim.rotor import RotorSimulator

NUM_TORS = MICRO.num_tors
PORTS = MICRO.ports_per_tor


def _sim(flows, *, rotor=None, pq=True, **kwargs):
    return RotorSimulator(
        sim_config(MICRO, priority_queue_enabled=pq),
        make_topology(MICRO, "thinclos"),
        flows,
        rotor=rotor,
        **kwargs,
    )


def _all_pairs_elephants(size_bytes: int) -> list[Flow]:
    flows = []
    fid = 0
    for src in range(NUM_TORS):
        for dst in range(NUM_TORS):
            if src != dst:
                flows.append(Flow(fid, src, dst, size_bytes, 0.0))
                fid += 1
    return flows


# ---------------------------------------------------------------------------
# rotor config
# ---------------------------------------------------------------------------


class TestRotorConfig:
    def test_defaults_validate(self):
        rotor = RotorConfig()
        assert rotor.packets_per_slice > 0
        assert rotor.vlb_relay

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="packets_per_slice"):
            RotorConfig(packets_per_slice=0)
        with pytest.raises(ValueError, match="reconfiguration_delay_ns"):
            RotorConfig(reconfiguration_delay_ns=-1.0)

    def test_slice_timing(self):
        epoch = EpochConfig()
        rotor = RotorConfig(packets_per_slice=10, reconfiguration_delay_ns=50.0)
        tx = transmit_ns(
            epoch.data_header_bytes + epoch.data_payload_bytes, 100.0
        )
        assert rotor.slice_ns(epoch, 100.0) == 50.0 + 10 * tx
        duty = rotor.duty_cycle(epoch, 100.0)
        assert duty == pytest.approx(10 * tx / (50.0 + 10 * tx))


# ---------------------------------------------------------------------------
# schedule coverage: all N-1 destinations exactly once per cycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cycle", [0, 1, 5])
def test_cycle_covers_all_destinations_exactly_once(cycle):
    sim = _sim([])
    topology = sim.topology
    for tor in range(NUM_TORS):
        peers = Counter()
        for slot in range(sim.cycle_slots):
            for port in range(PORTS):
                peer = topology.predefined_peer(tor, port, slot, cycle)
                if peer is not None:
                    peers[peer] += 1
        assert peers == Counter(
            {other: 1 for other in range(NUM_TORS) if other != tor}
        ), f"cycle {cycle} misses/repeats a destination"


def test_cycle_coverage_is_failure_independent():
    """Failures drop transmissions; the rotation itself never changes."""
    model = LinkFailureModel(NUM_TORS, PORTS)
    plan = FailurePlan()
    plan.add_failure(0.0, LinkRef(0, 0, Direction.EGRESS))
    plan.add_failure(0.0, LinkRef(3, 1, Direction.INGRESS))
    sim = _sim([], failure_model=model, failure_plan=plan)
    reference = _sim([])
    for slice_index in (0, sim.cycle_slots - 1, 3 * sim.cycle_slots):
        slot = slice_index % sim.cycle_slots
        cycle = slice_index // sim.cycle_slots
        for tor in range(NUM_TORS):
            for port in range(PORTS):
                assert sim.topology.predefined_peer(
                    tor, port, slot, cycle
                ) == reference.topology.predefined_peer(tor, port, slot, cycle)


# ---------------------------------------------------------------------------
# per-cycle service shares
# ---------------------------------------------------------------------------


def _delivered_per_pair(sim, flows):
    delivered = {}
    for flow in flows:
        delivered[(flow.src, flow.dst)] = (
            flow.size_bytes - flow.remaining_bytes
        )
    return delivered


def test_one_cycle_serves_every_pair_its_full_slice():
    # PIAS off: a single band means every packet is a full payload, so the
    # per-cycle share is exactly packets_per_slice * payload bytes.
    rotor = RotorConfig(vlb_relay=False)
    flows = _all_pairs_elephants(10_000_000)
    sim = _sim(flows, rotor=rotor, pq=False)
    payload = sim.payload_bytes
    for _ in range(sim.cycle_slots):
        sim.step_slice()
    expected = rotor.packets_per_slice * payload
    for pair, num_bytes in _delivered_per_pair(sim, flows).items():
        assert num_bytes == expected, f"pair {pair} served {num_bytes}"


def test_failed_link_zeroes_exactly_its_pairs():
    rotor = RotorConfig(vlb_relay=False)
    flows = _all_pairs_elephants(10_000_000)
    failed_port = 0
    model = LinkFailureModel(NUM_TORS, PORTS)
    plan = FailurePlan()
    plan.add_failure(0.0, LinkRef(0, failed_port, Direction.EGRESS))
    sim = _sim(
        flows, rotor=rotor, pq=False, failure_model=model, failure_plan=plan
    )
    topology = sim.topology
    for _ in range(sim.cycle_slots):
        sim.step_slice()
    expected = rotor.packets_per_slice * sim.payload_bytes
    affected = {
        (0, dst)
        for dst in range(1, NUM_TORS)
        if topology.predefined_assignment(0, dst)[1] == failed_port
    }
    assert affected, "the failed port must carry at least one pair"
    for pair, num_bytes in _delivered_per_pair(sim, flows).items():
        if pair in affected:
            assert num_bytes == 0, f"pair {pair} rode a dead link"
        else:
            assert num_bytes == expected, f"pair {pair} served {num_bytes}"


def test_repair_restores_service():
    rotor = RotorConfig(vlb_relay=False)
    flows = [Flow(0, 0, 1, 500_000, 0.0)]
    port = make_topology(MICRO, "thinclos").predefined_assignment(0, 1)[1]
    model = LinkFailureModel(NUM_TORS, PORTS)
    plan = FailurePlan()
    plan.add_failure(0.0, LinkRef(0, port, Direction.EGRESS))
    repair_ns = 20_000.0
    plan.add_repair(repair_ns, LinkRef(0, port, Direction.EGRESS))
    sim = _sim(flows, rotor=rotor, failure_model=model, failure_plan=plan)
    sim.run(repair_ns)
    assert sim.tracker.delivered_bytes == 0
    assert sim.run_until_complete(max_ns=10 * MICRO.duration_ns)
    assert sim.tracker.delivered_bytes == 500_000


# ---------------------------------------------------------------------------
# RotorLB relay discipline
# ---------------------------------------------------------------------------


def test_mice_never_detour():
    """Only lowest-band bytes relay; a mouse rides its direct slice."""
    flows = [Flow(0, 0, 1, 900, 0.0)]  # < first PIAS threshold: band 0
    sim = _sim(flows)
    assert sim.run_until_complete(max_ns=10 * MICRO.duration_ns)
    assert all(sim.relay_bytes_at(t) == 0 for t in range(NUM_TORS))
    assert sim.tracker.all_complete


def test_elephants_detour_and_arrive_once():
    """An elephant's lowest band spreads over intermediates; every byte is
    delivered exactly once (the tracker rejects over-delivery)."""
    size = 2_000_000
    flows = [Flow(0, 0, 1, size, 0.0)]
    sim = _sim(flows)
    relayed = 0
    while not sim.tracker.all_complete:
        sim.step_slice()
        relayed = max(relayed, sum(sim.relay_bytes_at(t) for t in range(NUM_TORS)))
        assert sim.now_ns < 100 * MICRO.duration_ns, "rotor failed to drain"
    assert relayed > 0, "VLB never engaged on a single-pair elephant"
    assert sim.tracker.delivered_bytes == size
    assert sim.total_queued_bytes == 0


def test_ineligible_relay_head_does_not_starve_direct_service():
    """A relay chunk forwardable only next slice must not burn the budget.

    _offload_indirect hands chunks over with next-slice-boundary
    eligibility; when the intermediate's rotor reaches the chunk's
    destination *in that same slice*, the relay step must yield the whole
    budget to the pair's direct backlog instead of idling slots away
    waiting for the ineligible head (the drain_slots-vs-drain_band_slots
    regression: direct service dropped to zero and the outcome depended on
    ToR iteration order).
    """
    from repro.sim.queues import PiasDestQueue

    direct = Flow(0, 0, 1, 2000, 0.0)
    sim = _sim([direct], rotor=RotorConfig(vlb_relay=False), pq=False)
    meeting_slot, _port = sim.topology.predefined_assignment(0, 1)
    # Hand-plant a relay chunk at ToR 0 for ToR 1 that becomes eligible
    # only after the slice in which 0 and 1 meet.
    relayed = Flow(99, 2, 1, 5000, 0.0)
    queue = PiasDestQueue(thresholds=(), enabled=False)
    queue.enqueue_bytes(
        relayed, 5000, band=0, eligible_ns=(meeting_slot + 1) * sim.slice_ns
    )
    sim._relay[0][1] = queue
    sim._relay_pending[0] += 5000
    for _ in range(meeting_slot + 1):
        sim.step_slice()
    assert direct.remaining_bytes == 0, (
        "the ineligible relay head consumed the slice budget"
    )


def test_vlb_speeds_up_skewed_traffic():
    """The point of the relay: a single hot pair finishes faster with VLB."""
    finish = {}
    for vlb in (False, True):
        flows = [Flow(0, 0, 1, 2_000_000, 0.0)]
        sim = _sim(flows, rotor=RotorConfig(vlb_relay=vlb))
        assert sim.run_until_complete(max_ns=100 * MICRO.duration_ns)
        finish[vlb] = sim.now_ns
    assert finish[True] < finish[False]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_runs_are_bit_identical():
    def run():
        flows = _all_pairs_elephants(100_000)
        sim = _sim(flows)
        sim.run(MICRO.duration_ns)
        return sim.summary(MICRO.duration_ns)

    first, second = run(), run()
    assert first == second
