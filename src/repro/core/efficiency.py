"""Analytic matching-efficiency model of NegotiaToR Matching (section 3.2.2).

Under saturation on the parallel network — every ToR requesting every other —
grants and accepts are effectively uniform random.  A given grant lands on a
specific source port with probability 1/n, it competes with X ~ B(n-1, 1/n)
other grants for that port, and is accepted with probability 1/(X+1), so

    E[Y] = E[1/(X+1)] = 1 - (1 - 1/n)^n  ──n→∞──▶  1 - 1/e ≈ 0.632.

On thin-clos the competition pool is the W sources a port can hear, so n = W
and the efficiency is slightly higher (0.644 at W = 16 vs 0.634 at n = 128).
This module provides the closed form, the limit, and a Monte Carlo
cross-check mirroring the model's assumptions exactly.
"""

from __future__ import annotations

import math
import random


def expected_match_ratio(n: int) -> float:
    """E[Y] = 1 - (1 - 1/n)^n, the acceptance probability of one grant.

    ``n`` is the number of ToRs competing for a port: the whole fabric on the
    parallel network, one W-ToR group on thin-clos.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 - (1.0 - 1.0 / n) ** n


def asymptotic_match_ratio() -> float:
    """The large-n limit 1 - 1/e."""
    return 1.0 - math.exp(-1.0)


def binomial_acceptance_expectation(n: int) -> float:
    """E[1/(X+1)] with X ~ B(n-1, 1/n), evaluated by direct summation.

    The closed form above uses the identity E[1/(X+1)] =
    (1 - (1-p)^(m+1)) / ((m+1) p) for X ~ B(m, p) with m = n-1 and p = 1/n.
    Summing the binomial pmf term by term provides an independent numerical
    check that the closed form is right (tests compare the two).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    p = 1.0 / n
    m = n - 1
    total = 0.0
    for k in range(m + 1):
        pmf = math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
        total += pmf / (k + 1)
    return total


def monte_carlo_match_ratio(
    n: int, ports: int, rounds: int, rng: random.Random
) -> float:
    """Simulate the section 3.2.2 model directly.

    ``n`` saturated ToRs with ``ports`` uplinks each: every destination deals
    its ports uniformly at random over all sources, every source accepts one
    grant per port uniformly at random.  Returns accepted/granted over all
    rounds — an unbiased estimate of E[Y].

    A call costs one ``rng.choice`` per (round, destination, port), drawn
    in that order, and no work per ring member after setup.
    """
    if n < 2:
        raise ValueError("need at least two ToRs")
    if ports < 1 or rounds < 1:
        raise ValueError("ports and rounds must be positive")
    # A destination never grants to itself: it draws from the other n - 1.
    ring = list(range(n))
    sources_of = [ring[:dst] + ring[dst + 1:] for dst in range(n)]
    choice = rng.choice
    port_range = range(ports)
    accepted = 0
    for _ in range(rounds):
        # Each granted (src, port) accepts exactly one of its grants, so a
        # round accepts as many grants as it has distinct keys.
        accepted += len({
            choice(sources) * ports + port
            for sources in sources_of
            for port in port_range
        })
    return accepted / (rounds * n * ports)
