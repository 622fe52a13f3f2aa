"""Tests for the three-epoch pipelined scheduling (section 3.3.1, Fig 4)."""

import random

from repro.core.matching import NegotiaToRMatcher, per_port_matches
from repro.core.pipeline import PipelinedScheduler
from repro.topology.parallel import ParallelNetwork


def make_pipeline(n=8, s=2, seed=0):
    matcher = NegotiaToRMatcher(ParallelNetwork(n, s), random.Random(seed))
    return PipelinedScheduler(matcher)


def identity_delivery(grants):
    return grants


class TestPipelineLatency:
    def test_request_yields_matches_two_epochs_later(self):
        pipeline = make_pipeline()
        request = {1: {0: None}}  # ToR 0 requests ToR 1

        matches0, answered0, _ = pipeline.advance(request, identity_delivery)
        assert matches0 == [] and answered0 == 0

        matches1, answered1, _ = pipeline.advance({}, identity_delivery)
        assert matches1 == [] and answered1 == 0  # grant epoch

        matches2, answered2, accepts2 = pipeline.advance({}, identity_delivery)
        # The lone requester was granted both of ToR 1's ports and accepts
        # both: two parallel links for the pair, in one per-pair group.
        assert matches2 == [(0, 1, [0, 1])]
        assert set(per_port_matches(matches2)) == {(0, 0, 1), (0, 1, 1)}
        assert answered2 == 2
        assert accepts2 == 2

    def test_steady_state_pipeline_overlaps_processes(self):
        """With a persistent request, matches appear every epoch from e+2."""
        pipeline = make_pipeline()
        request = {1: {0: None}}
        outputs = [pipeline.advance(request, identity_delivery)[0] for _ in range(6)]
        assert outputs[0] == [] and outputs[1] == []
        for matches in outputs[2:]:
            assert {(src, dst) for src, dst, _ports in matches} == {(0, 1)}

    def test_lost_grants_cannot_be_accepted(self):
        pipeline = make_pipeline()
        request = {1: {0: None}}
        pipeline.advance(request, identity_delivery)
        # All grants are lost in the grant epoch.
        pipeline.advance({}, lambda grants: {})
        matches, answered, accepts = pipeline.advance({}, identity_delivery)
        assert matches == []
        assert answered == 2  # grants were issued...
        assert accepts == 0  # ...but none answered

    def test_lost_requests_produce_no_grants(self):
        pipeline = make_pipeline()
        # Engine-side loss: delivered_requests arrive empty.
        pipeline.advance({}, identity_delivery)
        _, answered, _ = pipeline.advance({}, identity_delivery)
        assert answered == 0

    def test_match_ratio_pairs_accepts_with_their_grants(self):
        """Accepts at epoch e answer grants issued at e-1, not e."""
        pipeline = make_pipeline(n=4, s=1)
        # Two destinations requested by the same source: one port at the
        # source means one accept against two grants.
        request = {1: {0: None}, 2: {0: None}}
        pipeline.advance(request, identity_delivery)
        pipeline.advance({}, identity_delivery)
        matches, answered, accepts = pipeline.advance({}, identity_delivery)
        assert answered == 2
        assert accepts == 1
        assert len(matches) == 1

    def test_reset_clears_in_flight_state(self):
        pipeline = make_pipeline()
        pipeline.advance({1: {0: None}}, identity_delivery)
        pipeline.reset()
        matches, answered, _ = pipeline.advance({}, identity_delivery)
        assert matches == [] and answered == 0
        matches, _, _ = pipeline.advance({}, identity_delivery)
        assert matches == []


class TestSchedulerHooks:
    def test_base_request_payload_is_binary(self):
        pipeline = make_pipeline()
        assert pipeline.request_payload(0, 1, queue=None, now_ns=0.0) is None

    def test_base_observe_sent_is_noop(self):
        pipeline = make_pipeline()
        assert pipeline.observe_sent(0, 1, 1234) is None

    def test_matcher_accessor(self):
        pipeline = make_pipeline()
        assert isinstance(pipeline.matcher, NegotiaToRMatcher)
