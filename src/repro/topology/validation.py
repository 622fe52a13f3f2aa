"""Structural validators for flat topologies.

NegotiaToR only works if the fabric honors three contracts: the predefined
phase must connect every ordered pair exactly once per epoch without
receiver collisions, scheduled-phase reachability must be symmetric between
the TX and RX views, and simultaneous transmissions must never share an AWGR
input or output.  The lookup tables the engines read instead
(``predefined_assignment``, ``predefined_links``) must also agree with
``predefined_peer``.  These validators check any :class:`FlatTopology`
implementation — including user-defined ones — and are what the test suite
runs against the two built-in fabrics.
"""

from __future__ import annotations

from .base import FlatTopology


class TopologyContractError(AssertionError):
    """A topology violated one of the NegotiaToR fabric contracts."""


def check_predefined_coverage(topology: FlatTopology, epoch: int = 0) -> None:
    """Every ordered pair meets exactly once in one predefined phase."""
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    n = topology.num_tors
    for tor in range(n):
        for port in range(topology.ports_per_tor):
            for slot in range(topology.predefined_slots):
                peer = topology.predefined_peer(tor, port, slot, epoch)
                if peer is None:
                    continue
                if peer == tor:
                    raise TopologyContractError(
                        f"ToR {tor} connected to itself at slot {slot}, "
                        f"port {port}"
                    )
                pair = (tor, peer)
                if pair in seen:
                    raise TopologyContractError(
                        f"pair {pair} meets twice in epoch {epoch}: at "
                        f"{seen[pair]} and ({slot}, {port})"
                    )
                seen[pair] = (slot, port)
    expected = n * (n - 1)
    if len(seen) != expected:
        raise TopologyContractError(
            f"predefined phase covers {len(seen)} ordered pairs, "
            f"expected {expected}"
        )


def check_predefined_conflict_freedom(
    topology: FlatTopology, epoch: int = 0
) -> None:
    """Within each (slot, port), the transmit pattern is a permutation."""
    for slot in range(topology.predefined_slots):
        for port in range(topology.ports_per_tor):
            receivers: dict[int, int] = {}
            for tor in range(topology.num_tors):
                peer = topology.predefined_peer(tor, port, slot, epoch)
                if peer is None:
                    continue
                if peer in receivers:
                    raise TopologyContractError(
                        f"receivers collide at slot {slot}, port {port}: "
                        f"ToRs {receivers[peer]} and {tor} both reach {peer}"
                    )
                receivers[peer] = tor


def check_assignment_inverse(topology: FlatTopology, epoch: int = 0) -> None:
    """predefined_assignment is the inverse of predefined_peer."""
    for src, dst in topology.all_pairs():
        slot, port = topology.predefined_assignment(src, dst, epoch)
        peer = topology.predefined_peer(src, port, slot, epoch)
        if peer != dst:
            raise TopologyContractError(
                f"assignment of ({src}, {dst}) points at slot {slot}, port "
                f"{port}, but that connects to {peer}"
            )


def check_link_table(topology: FlatTopology, epoch: int = 0) -> None:
    """predefined_links lists predefined_peer's links, in port order.

    The rotor-style engines read the table instead of calling
    ``predefined_peer``, so a memoized table that misses an override or
    goes stale across epochs would silently change their schedule.  The
    expected rows come from the uncached :class:`FlatTopology` default.
    """
    for slot in range(topology.predefined_slots):
        links = topology.predefined_links(slot, epoch)
        expected_links = FlatTopology.predefined_links(topology, slot, epoch)
        for tor, expected in enumerate(expected_links):
            if tuple(links[tor]) != expected:
                raise TopologyContractError(
                    f"link table of ToR {tor} at slot {slot}, epoch {epoch} "
                    f"is {links[tor]}, but predefined_peer gives {expected}"
                )


def check_reachability_symmetry(topology: FlatTopology) -> None:
    """TX and RX reachability views agree, and data ports are consistent."""
    for tor in range(topology.num_tors):
        for port in range(topology.ports_per_tor):
            for dst in topology.reachable_dsts(tor, port):
                if tor not in topology.reachable_srcs(dst, port):
                    raise TopologyContractError(
                        f"{tor} reaches {dst} via port {port} but {dst} does "
                        f"not list {tor} as a source on that port"
                    )
    for src, dst in topology.all_pairs():
        port = topology.data_port(src, dst)
        if port is None:
            continue
        if dst not in topology.reachable_dsts(src, port):
            raise TopologyContractError(
                f"data_port({src}, {dst}) = {port} but {dst} is not "
                f"reachable through it"
            )


def check_optical_conflict_freedom(topology: FlatTopology) -> None:
    """Simultaneous transmissions on distinct pairs never share AWGR ports.

    Checks all pairs that could be matched on the same port index: their
    lightpaths must not collide on an AWGR input or output.
    """
    for port in range(topology.ports_per_tor):
        inputs: dict[tuple[int, int], tuple[int, int]] = {}
        outputs: dict[tuple[int, int], tuple[int, int]] = {}
        for src in range(topology.num_tors):
            for dst in topology.reachable_dsts(src, port):
                required = topology.data_port(src, dst)
                if required is not None and required != port:
                    continue
                path = topology.optical_path(src, dst, port)
                in_key = (path.awgr_id, path.input_port)
                if in_key in inputs and inputs[in_key] != (src, port):
                    raise TopologyContractError(
                        f"AWGR input {in_key} shared by ToRs "
                        f"{inputs[in_key]} and {(src, port)}"
                    )
                inputs[in_key] = (src, port)
                out_key = (path.awgr_id, path.output_port)
                owner = outputs.get(out_key)
                if owner is not None and owner != (dst, port):
                    raise TopologyContractError(
                        f"AWGR output {out_key} owned by both {owner} and "
                        f"{(dst, port)}"
                    )
                outputs[out_key] = (dst, port)


def validate_topology(topology: FlatTopology, epochs: int = 3) -> None:
    """Run every contract check over several epochs of the rotation."""
    for epoch in range(epochs):
        check_predefined_coverage(topology, epoch)
        check_predefined_conflict_freedom(topology, epoch)
        check_assignment_inverse(topology, epoch)
        check_link_table(topology, epoch)
    check_reachability_symmetry(topology)
    check_optical_conflict_freedom(topology)
