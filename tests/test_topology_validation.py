"""Tests for the topology contract validators."""

import pytest

from repro.topology.base import FlatTopology
from repro.topology.parallel import ParallelNetwork
from repro.topology.thinclos import ThinClos
from repro.topology.validation import (
    TopologyContractError,
    check_assignment_inverse,
    check_link_table,
    check_optical_conflict_freedom,
    check_predefined_conflict_freedom,
    check_predefined_coverage,
    check_reachability_symmetry,
    validate_topology,
)


class TestBuiltinsSatisfyContracts:
    @pytest.mark.parametrize(
        "topology",
        [
            ParallelNetwork(8, 2),
            ParallelNetwork(12, 5),
            ParallelNetwork(16, 4, rotate_per_epoch=False),
            ThinClos(8, 2, 4),
            ThinClos(16, 4, 4),
        ],
        ids=["par8x2", "par12x5", "par16x4-static", "thin8", "thin16"],
    )
    def test_validate_topology_passes(self, topology):
        # num_tors epochs wrap the parallel network's N-1 rotations, so its
        # memoized per-rotation tables are also checked when reused.
        validate_topology(topology, epochs=topology.num_tors)


class _BrokenSchedule(ParallelNetwork):
    """A topology whose slot-0 schedule collides on a receiver."""

    def predefined_peer(self, tor, port, slot, epoch=0):
        if slot == 0 and port == 0:
            return 1 if tor != 1 else None  # everyone hits ToR 1
        return super().predefined_peer(tor, port, slot, epoch)


class _MissingPair(ParallelNetwork):
    """A topology that never connects pair (0, 1)."""

    def predefined_peer(self, tor, port, slot, epoch=0):
        peer = super().predefined_peer(tor, port, slot, epoch)
        if tor == 0 and peer == 1:
            return None
        return peer


class _AsymmetricReach(ThinClos):
    """Reachability views that disagree between TX and RX."""

    def reachable_srcs(self, tor, port):
        return ()


class TestViolationsAreCaught:
    def test_receiver_collision_detected(self):
        with pytest.raises(TopologyContractError, match="collide|twice"):
            broken = _BrokenSchedule(8, 2)
            check_predefined_conflict_freedom(broken)
            check_predefined_coverage(broken)

    def test_missing_pair_detected(self):
        with pytest.raises(TopologyContractError, match="covers"):
            check_predefined_coverage(_MissingPair(8, 2))

    def test_assignment_mismatch_detected(self):
        with pytest.raises(TopologyContractError):
            check_assignment_inverse(_MissingPair(8, 2))

    def test_link_table_ignoring_an_override_detected(self):
        """The default link table follows an overridden ``predefined_peer``;
        a table that keeps serving the unmodified schedule must fail."""
        check_link_table(_MissingPair(8, 2))

        class StaleLinks(_MissingPair):
            def predefined_links(self, slot, epoch=0):
                return FlatTopology.predefined_links(
                    ParallelNetwork(8, 2), slot, epoch
                )

        with pytest.raises(TopologyContractError, match="link table"):
            check_link_table(StaleLinks(8, 2))

    def test_reachability_asymmetry_detected(self):
        with pytest.raises(TopologyContractError, match="does"):
            check_reachability_symmetry(_AsymmetricReach(8, 2, 4))

    def test_optical_check_passes_builtins(self):
        check_optical_conflict_freedom(ParallelNetwork(8, 2))
        check_optical_conflict_freedom(ThinClos(16, 4, 4))


class TestCustomTopologyWorkflow:
    def test_minimal_custom_topology_validates(self):
        """A user-defined fabric built on FlatTopology passes the contracts
        when it delegates to a built-in construction."""

        class Renamed(ParallelNetwork):
            @property
            def name(self):
                return "my-fabric"

        topo = Renamed(8, 2)
        assert topo.name == "my-fabric"
        validate_topology(topo)

    def test_all_pairs_iterates_ordered_pairs(self):
        topo = ParallelNetwork(4, 2)
        pairs = list(topo.all_pairs())
        assert len(pairs) == 12
        assert (0, 0) not in pairs
        assert isinstance(topo, FlatTopology)
