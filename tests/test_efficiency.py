"""Tests for the matching-efficiency model (section 3.2.2 / appendix A.1)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.efficiency import (
    asymptotic_match_ratio,
    binomial_acceptance_expectation,
    expected_match_ratio,
    monte_carlo_match_ratio,
)


def reference_match_ratio(n, ports, rounds, rng):
    """The original Monte Carlo, kept verbatim as an exactness oracle.

    It rebuilds every destination's source list each round and collects
    the grants per (src, port) key; ``monte_carlo_match_ratio`` must make
    the same draws in the same order and return the same ratio.
    """
    granted = 0
    accepted = 0
    for _ in range(rounds):
        # grants[src][port] = list of destinations that granted (src, port).
        grants: dict[tuple[int, int], list[int]] = {}
        for dst in range(n):
            sources = [s for s in range(n) if s != dst]
            for port in range(ports):
                src = rng.choice(sources)
                grants.setdefault((src, port), []).append(dst)
                granted += 1
        for competitors in grants.values():
            if competitors:
                accepted += 1
    return accepted / granted


class TestClosedForm:
    def test_paper_value_at_n_128(self):
        """Parallel network, 128 ToRs: E[Y] = 0.634 (appendix A.1)."""
        assert expected_match_ratio(128) == pytest.approx(0.634, abs=5e-4)

    def test_paper_value_at_n_16(self):
        """Thin-clos, W = 16: E[Y] = 0.644 (appendix A.1)."""
        assert expected_match_ratio(16) == pytest.approx(0.644, abs=5e-4)

    def test_limit_is_1_minus_1_over_e(self):
        assert asymptotic_match_ratio() == pytest.approx(1 - 1 / math.e)
        assert expected_match_ratio(10**6) == pytest.approx(
            asymptotic_match_ratio(), abs=1e-5
        )

    def test_single_tor_always_accepts(self):
        assert expected_match_ratio(1) == pytest.approx(1.0)

    @given(n=st.integers(2, 500))
    @settings(max_examples=100)
    def test_monotonically_decreasing_in_n(self, n):
        """More competitors -> lower acceptance (section 3.2.2)."""
        assert expected_match_ratio(n) > expected_match_ratio(n + 1)

    @given(n=st.integers(1, 200))
    @settings(max_examples=50)
    def test_closed_form_equals_binomial_sum(self, n):
        assert expected_match_ratio(n) == pytest.approx(
            binomial_acceptance_expectation(n), abs=1e-12
        )

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            expected_match_ratio(0)
        with pytest.raises(ValueError):
            binomial_acceptance_expectation(0)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "n, ports, rounds, seed",
        [
            (2, 1, 1, 0),
            (2, 4, 25, 1),
            (3, 1, 1, 2),
            (5, 2, 17, 3),
            (16, 4, 40, 4),
            (33, 3, 5, 5),
            (128, 4, 3, 6),
        ],
    )
    def test_matches_reference_draw_for_draw(self, n, ports, rounds, seed):
        """Same ratio and same RNG state after the call as the original."""
        expected_rng, rng = random.Random(seed), random.Random(seed)
        expected = reference_match_ratio(n, ports, rounds, expected_rng)
        assert monte_carlo_match_ratio(n, ports, rounds, rng) == expected
        assert rng.getstate() == expected_rng.getstate()

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_simulation_matches_theory(self, n):
        ratio = monte_carlo_match_ratio(
            n, ports=4, rounds=400, rng=random.Random(42)
        )
        assert ratio == pytest.approx(expected_match_ratio(n), abs=0.02)

    def test_thinclos_beats_parallel_competition(self):
        """Fewer competitors per port (W=16 vs n=128) -> higher efficiency."""
        rng = random.Random(1)
        small = monte_carlo_match_ratio(16, 4, 300, rng)
        big = monte_carlo_match_ratio(128, 4, 40, rng)
        assert small > big

    def test_validates_arguments(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            monte_carlo_match_ratio(1, 4, 10, rng)
        with pytest.raises(ValueError):
            monte_carlo_match_ratio(8, 0, 10, rng)
        with pytest.raises(ValueError):
            monte_carlo_match_ratio(8, 4, 0, rng)
