"""Property-based tests (hypothesis) for the matcher's structural invariants.

Whatever requests arrive — and whatever links have failed — a GRANT/ACCEPT
round must produce a valid *partial permutation* of the fabric's ports:

* no (src, port) transmits twice and no (dst, port) receives twice;
* every match answers a request that was actually issued (no spurious
  grants surviving to ACCEPT);
* thin-clos matches ride the single port the topology connects the pair
  through;
* matches never touch a port whose link is marked failed;
* the grant count bounds the accept count (ACCEPT only filters).

Hypothesis drives random fabrics, request sets, and failure sets through
``run_epoch`` (GRANT + ACCEPT back to back) on both topologies.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.matching import (
    Match,
    NegotiaToRMatcher,
    per_port_matches,
    validate_matching,
)
from repro.core.variants import ProjecToRMatcher, ValuePriorityMatcher
from repro.topology.parallel import ParallelNetwork
from repro.topology.thinclos import ThinClos

# (num_tors, ports_per_tor[, awgr_ports]) shapes small enough to exhaust.
PARALLEL_SHAPES = ((4, 2), (6, 3), (8, 4))
THINCLOS_SHAPES = ((4, 2, 2), (8, 2, 4), (8, 4, 2))


def _build(topology_kind: str, shape) -> tuple:
    if topology_kind == "parallel":
        num_tors, ports = shape
        topology = ParallelNetwork(num_tors, ports)
    else:
        num_tors, ports, awgr = shape
        topology = ThinClos(num_tors, ports, awgr)
    return topology, num_tors, topology.ports_per_tor


@st.composite
def matcher_case(draw, topology_kind: str):
    """(shape, requested pairs, failed (tor, port) sets, rng seed)."""
    shapes = PARALLEL_SHAPES if topology_kind == "parallel" else THINCLOS_SHAPES
    shape = draw(st.sampled_from(shapes))
    num_tors = shape[0]
    ports = shape[1]
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, num_tors - 1), st.integers(0, num_tors - 1)
            ).filter(lambda p: p[0] != p[1]),
            max_size=num_tors * 4,
        )
    )
    tor_ports = st.tuples(
        st.integers(0, num_tors - 1), st.integers(0, ports - 1)
    )
    failed_rx = draw(st.sets(tor_ports, max_size=num_tors))
    failed_tx = draw(st.sets(tor_ports, max_size=num_tors))
    seed = draw(st.integers(0, 2**16))
    return shape, pairs, failed_rx, failed_tx, seed


def _check_epoch(topology_kind, shape, pairs, failed_rx, failed_tx, seed):
    topology, num_tors, ports = _build(topology_kind, shape)
    matcher = NegotiaToRMatcher(topology, random.Random(seed))
    requests_by_dst: dict[int, dict[int, object]] = {}
    for src, dst in pairs:
        requests_by_dst.setdefault(dst, {})[src] = None
    rx_usable = (
        (lambda tor, port: (tor, port) not in failed_rx) if failed_rx else None
    )
    tx_usable = (
        (lambda tor, port: (tor, port) not in failed_tx) if failed_tx else None
    )

    outcome = matcher.run_epoch(requests_by_dst, rx_usable, tx_usable)

    # Structural partial permutation (raises on any port used twice or any
    # topology-unreachable pairing).
    validate_matching(outcome.matches, topology)
    assert outcome.num_accepts <= outcome.num_grants
    for match in outcome.matches:
        # Only requesting pairs get matched.
        assert (match.src, match.dst) in pairs
        assert match.src != match.dst
        assert 0 <= match.port < ports
        # Failed links carry no match.
        assert (match.dst, match.port) not in failed_rx
        assert (match.src, match.port) not in failed_tx
    if topology_kind == "thinclos":
        # One path per pair on thin-clos -> at most one match per pair.
        # (The parallel network may legitimately match a pair on several
        # planes at once; there per-port uniqueness is the invariant.)
        matched_pairs = [(m.src, m.dst) for m in outcome.matches]
        assert len(matched_pairs) == len(set(matched_pairs))


@settings(max_examples=120, deadline=None)
@given(case=matcher_case("parallel"))
def test_parallel_matching_is_valid_partial_permutation(case):
    _check_epoch("parallel", *case)


@settings(max_examples=120, deadline=None)
@given(case=matcher_case("thinclos"))
def test_thinclos_matching_is_valid_partial_permutation(case):
    _check_epoch("thinclos", *case)


@settings(max_examples=60, deadline=None)
@given(case=matcher_case("parallel"))
def test_failure_free_predicates_match_none_fast_path(case):
    """Passing all-True predicates must equal the None fast path bit-for-bit."""
    shape, pairs, _rx, _tx, seed = case
    topology, _n, _p = _build("parallel", shape)
    requests_by_dst: dict[int, dict[int, object]] = {}
    for src, dst in pairs:
        requests_by_dst.setdefault(dst, {})[src] = None

    fast = NegotiaToRMatcher(topology, random.Random(seed)).run_epoch(
        requests_by_dst
    )
    slow = NegotiaToRMatcher(topology, random.Random(seed)).run_epoch(
        requests_by_dst,
        rx_usable=lambda tor, port: True,
        tx_usable=lambda tor, port: True,
    )
    assert fast.num_grants == slow.num_grants
    assert [(m.src, m.port, m.dst) for m in fast.matches] == [
        (m.src, m.port, m.dst) for m in slow.matches
    ]


def _reference_accept(matcher, grants_by_src, tx_usable):
    """ACCEPT over per-port ``(dst, port)`` grants: per-port buckets and
    one ``ring.pick(bucket)`` per port, each source's matches by port."""
    matches = []
    for src, grants in grants_by_src.items():
        buckets: dict[int, list[int]] = {}
        for dst, port in grants:
            buckets.setdefault(port, []).append(dst)
        for port in sorted(buckets):
            if tx_usable is None or tx_usable(src, port):
                dst = matcher._accept_rings[src][port].pick(buckets[port])
                if dst is not None:
                    matches.append(Match(src, port, dst))
    return matches


def _reference_grant(matcher, requests_by_dst, rx_usable, tx_usable):
    """GRANT as one decision per (destination, usable RX port), in port
    order, returning per-port ``src -> [(dst, port), ...]`` grants and
    their count.  The base matcher makes one ``ring.pick`` per port over
    the requesters that port may serve; ValuePriorityMatcher deals its
    payload ranking down the ports; ProjecToRMatcher takes each port's
    longest wait."""
    rx_usable = rx_usable or (lambda tor, port: True)
    tx_usable = tx_usable or (lambda tor, port: True)
    shared = matcher.uses_shared_grant_ring
    grants: dict[int, list[tuple[int, int]]] = {}
    count = 0
    for dst, requests in requests_by_dst.items():
        ports = [
            p for p in range(matcher.topology.ports_per_tor) if rx_usable(dst, p)
        ]
        for index, port in enumerate(ports):
            ring = (
                matcher._grant_rings[dst]
                if shared
                else matcher._grant_rings[dst][port]
            )
            eligible = {
                src
                for src in requests
                if src != dst and src in ring.members and tx_usable(src, port)
            }
            if isinstance(matcher, ProjecToRMatcher):
                src = matcher._grant_for_port(
                    requests, port, tx_usable, set(ring.members)
                )
            elif isinstance(matcher, ValuePriorityMatcher):
                if not eligible:
                    continue
                ranked = matcher._ranked(requests, eligible, ring)
                src = ranked[index % len(ranked)] if shared else ranked[0]
                ring.advance_past(src)
            else:
                src = ring.pick(eligible)
            if src is not None:
                grants.setdefault(src, []).append((dst, port))
                count += 1
    return grants, count


def _per_port(grants_by_src):
    """Grouped ``(dst, ports)`` grants as per-port ``(dst, port)`` ones."""
    return {
        src: [(dst, port) for dst, ports in grants for port in ports]
        for src, grants in grants_by_src.items()
    }


def _regroup(matches):
    """Per-port matches as the scheduled phase drains them: one
    ``(src, dst, ports)`` group per pair, in first-match order."""
    ports_by_pair: dict[tuple[int, int], list[int]] = {}
    for src, port, dst in matches:
        ports_by_pair.setdefault((src, dst), []).append(port)
    return [(src, dst, ports) for (src, dst), ports in ports_by_pair.items()]


def _grant_pointers(matcher):
    rings = matcher._grant_rings
    if matcher.uses_shared_grant_ring:
        return [ring.pointer for ring in rings]
    return [ring.pointer for per_port in rings for ring in per_port]


MATCHERS = {
    "base": NegotiaToRMatcher,
    "value": ValuePriorityMatcher,
    "projector": ProjecToRMatcher,
}


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["parallel", "thinclos"]),
    name=st.sampled_from(sorted(MATCHERS)),
    seed=st.integers(0, 2**16),
    failures=st.booleans(),
)
def test_grant_step_equals_per_port_pick_reference(kind, name, seed, failures):
    """GRANT's grouped grants change no decision: over several epochs of
    random requests (a lone requester, a few and many per destination),
    with and without failed RX/TX ports, each ``(dst, ports)`` grant
    expands to the per-port reference's grants in the same order, the
    grant counts agree, and every GRANT ring pointer ends equal."""
    rng = random.Random(seed)
    shapes = PARALLEL_SHAPES if kind == "parallel" else THINCLOS_SHAPES
    topology, num_tors, ports = _build(kind, rng.choice(shapes))
    fast = MATCHERS[name](topology, random.Random(seed))
    slow = MATCHERS[name](topology, random.Random(seed))
    rx_failed = {
        (rng.randrange(num_tors), rng.randrange(ports))
        for _ in range(num_tors if failures else 0)
    }
    tx_failed = {
        (rng.randrange(num_tors), rng.randrange(ports))
        for _ in range(num_tors if failures else 0)
    }
    rx_usable = (lambda tor, port: (tor, port) not in rx_failed) if failures else None
    tx_usable = (lambda tor, port: (tor, port) not in tx_failed) if failures else None

    def payload():
        if name == "value":
            return rng.choice((None, 5.0, 5.0, 9.0))
        if name == "projector":
            return (rng.randrange(ports), float(rng.randrange(4)))
        return None

    for _epoch in range(6):
        density = rng.choice((0.0, 0.2, 0.6, 1.0))
        requests_by_dst: dict[int, dict[int, object]] = {}
        for dst in range(num_tors):
            srcs = [s for s in range(num_tors) if s != dst and rng.random() < density]
            if not srcs and rng.random() < 0.5:
                srcs = [rng.choice([s for s in range(num_tors) if s != dst])]
            if srcs:
                requests_by_dst[dst] = {src: payload() for src in srcs}
        grants, num = fast.grant_step(requests_by_dst, rx_usable, tx_usable)
        expected, expected_num = _reference_grant(
            slow, requests_by_dst, rx_usable, tx_usable
        )
        assert _per_port(grants) == expected
        assert list(grants) == list(expected)
        assert num == expected_num
        for src_grants in grants.values():
            for _dst, got in src_grants:
                assert got and list(got) == sorted(set(got))
        assert _grant_pointers(fast) == _grant_pointers(slow)


def _dealt_every_port(topology, src, dealers, offset):
    """Grants to ``src`` on every port from ``dealers`` destinations per
    port, as ``(dst, ports)`` grants in the order GRANT issues them.

    On the parallel network every port hears every source, so this is
    ``dealers`` destinations each dealing ``src`` every port; on
    thin-clos each port's dealers come from the group that port reaches.
    """
    num_tors = topology.num_tors
    dealt = []
    for port in range(topology.ports_per_tor):
        reachable = sorted(
            topology.reachable_dsts(src, port),
            key=lambda dst: (dst - offset) % num_tors,
        )
        for rank, dst in enumerate(reachable[:dealers]):
            dealt.append((rank, port, dst))
    grants: dict[int, list[int]] = {}
    for _rank, port, dst in sorted(dealt):
        grants.setdefault(dst, []).append(port)
    return [(dst, tuple(ports)) for dst, ports in grants.items()]


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["parallel", "thinclos"]),
    seed=st.integers(0, 2**16),
    failures=st.booleans(),
)
def test_accept_step_equals_per_port_pick_reference(kind, seed, failures):
    """ACCEPT's grouped, ungrouped-path results change no decision: over
    several epochs of random grouped grants (one grant per source, one
    port per grant, several ports from one destination, and contended
    ports) plus a source dealt every port by one destination and one
    dealt every port by two, accept_step's per-pair groups expand to the
    per-port ``pick`` reference's matches, come in the order the
    scheduled phase drains them (each source's pairs by first port), and
    leave every ACCEPT ring pointer equal."""
    rng = random.Random(seed)
    shapes = PARALLEL_SHAPES if kind == "parallel" else THINCLOS_SHAPES
    topology, num_tors, ports = _build(kind, rng.choice(shapes))
    fast = NegotiaToRMatcher(topology, random.Random(seed))
    slow = NegotiaToRMatcher(topology, random.Random(seed))
    failed = {
        (rng.randrange(num_tors), rng.randrange(ports))
        for _ in range(num_tors if failures else 0)
    }
    tx_usable = (lambda tor, port: (tor, port) not in failed) if failed else None
    for _epoch in range(6):
        density = rng.choice((0.1, 0.4, 0.9))
        # ACCEPT resolves each source on its own rings, so the two dealt
        # sources are built as GRANT would deal them alone: one takes
        # the ungrouped path (ports rise across its grants), the other
        # the bucket path (every port it hears twice is contended).
        lone, shared = rng.sample(range(num_tors), 2)
        grants_by_src = {
            lone: _dealt_every_port(topology, lone, 1, rng.randrange(num_tors)),
            shared: _dealt_every_port(
                topology, shared, 2, rng.randrange(num_tors)
            ),
        }
        lone_ports = [port for _dst, port in _per_port(grants_by_src)[lone]]
        assert lone_ports == sorted(set(lone_ports))
        shared_ports = [port for _dst, port in _per_port(grants_by_src)[shared]]
        assert len(set(shared_ports)) < len(shared_ports)
        # The random grants around them: each (dst, port) grants at most
        # once, to a source that port hears, and a destination's ports
        # for one source form one grant, as GRANT issues it.
        for dst in range(num_tors):
            dealt: dict[int, list[int]] = {}
            for port in range(ports):
                if rng.random() < density:
                    src = rng.choice(topology.reachable_srcs(dst, port))
                    if src not in (lone, shared):
                        dealt.setdefault(src, []).append(port)
            for src, got in dealt.items():
                grants_by_src.setdefault(src, []).append((dst, tuple(got)))
        groups = fast.accept_step(grants_by_src, tx_usable)
        expected = _reference_accept(slow, _per_port(grants_by_src), tx_usable)
        assert sorted(per_port_matches(groups)) == sorted(expected)
        assert groups == _regroup(expected)
        assert [r.pointer for rings in fast._accept_rings for r in rings] == [
            r.pointer for rings in slow._accept_rings for r in rings
        ]
