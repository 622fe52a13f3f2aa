"""Empirical flow-size distributions.

DCN workload papers publish flow sizes as a cumulative distribution over a
handful of anchor points.  :class:`EmpiricalCDF` interpolates log-linearly
between anchors (flow sizes span six orders of magnitude, so straight-line
interpolation in log-size space is the standard choice) and supports exact
mean computation, which the load model needs to convert a target load into a
Poisson arrival rate.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Sequence


class EmpiricalCDF:
    """A flow-size distribution given as (size_bytes, cumulative_prob) anchors.

    The first anchor must have probability 0 (the minimum size) and the last
    probability 1 (the maximum size).  Between anchors the distribution is
    log-uniform in size.
    """

    def __init__(
        self, points: Sequence[tuple[float, float]], name: str = ""
    ) -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF anchors")
        sizes = [float(s) for s, _ in points]
        probs = [float(p) for _, p in points]
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("CDF must start at probability 0 and end at 1")
        if any(b <= a for a, b in zip(probs, probs[1:])):
            raise ValueError("CDF probabilities must be strictly increasing")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("CDF sizes must be strictly increasing")
        if sizes[0] < 1:
            raise ValueError("flow sizes must be at least one byte")
        self._sizes = sizes
        self._log_sizes = [math.log(s) for s in sizes]
        self._probs = probs
        self.name = name

    @property
    def min_bytes(self) -> int:
        """Smallest possible flow size."""
        return int(self._sizes[0])

    @property
    def max_bytes(self) -> int:
        """Largest possible flow size."""
        return int(self._sizes[-1])

    def quantile(self, u: float) -> float:
        """Inverse CDF at ``u`` in [0, 1]."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("quantile argument must be in [0, 1]")
        return self._inverse(u)

    def _inverse(self, u: float) -> float:
        """:meth:`quantile` without the range check."""
        probs = self._probs
        index = bisect.bisect_left(probs, u)
        if index == 0:
            return self._sizes[0]
        lo_p = probs[index - 1]
        lo_log = self._log_sizes[index - 1]
        fraction = (u - lo_p) / (probs[index] - lo_p)
        return math.exp(
            lo_log + fraction * (self._log_sizes[index] - lo_log)
        )

    def cdf(self, size_bytes: float) -> float:
        """Cumulative probability of flows of at most ``size_bytes``."""
        if size_bytes < self._sizes[0]:
            return 0.0
        if size_bytes >= self._sizes[-1]:
            return 1.0
        index = bisect.bisect_right(self._sizes, size_bytes)
        lo_log, hi_log = self._log_sizes[index - 1], self._log_sizes[index]
        lo_p, hi_p = self._probs[index - 1], self._probs[index]
        fraction = (math.log(size_bytes) - lo_log) / (hi_log - lo_log)
        return lo_p + fraction * (hi_p - lo_p)

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size (at least 1 byte)."""
        return max(1, round(self._inverse(rng.random())))

    def mean(self) -> float:
        """Exact mean flow size under log-uniform interpolation.

        The mean of a log-uniform variable on [a, b] is (b - a) / ln(b / a);
        each segment contributes its probability mass times that value.
        """
        total = 0.0
        for i in range(len(self._sizes) - 1):
            a, b = self._sizes[i], self._sizes[i + 1]
            mass = self._probs[i + 1] - self._probs[i]
            total += mass * (b - a) / math.log(b / a)
        return total

    def truncated(self, max_bytes: int) -> "EmpiricalCDF":
        """A copy of this distribution with its size tail capped.

        Anchors above ``max_bytes`` are dropped and the tail probability
        mass is spread log-uniformly up to the cap.  Scaled-down experiment
        runs use this so the largest flow's service time stays small
        relative to the run length, mirroring the ratio of the paper's 30 ms
        runs to its 10 MB maximum flow (see DESIGN.md).
        """
        if max_bytes >= self._sizes[-1]:
            return self
        if max_bytes <= self._sizes[0]:
            raise ValueError("cap below the distribution's minimum size")
        points = [
            (s, p)
            for s, p in zip(self._sizes, self._probs)
            if s < max_bytes and p < 1.0
        ]
        points.append((float(max_bytes), 1.0))
        return EmpiricalCDF(points, name=f"{self.name}-cap{max_bytes}")

    def bytes_fraction_above(self, size_bytes: float) -> float:
        """Fraction of total traffic bytes carried by flows above a size.

        Used to verify headline trace statistics (e.g. Hadoop: more than 80%
        of bytes come from flows larger than 100 KB).
        """
        total = self.mean()
        above = 0.0
        for i in range(len(self._sizes) - 1):
            a, b = self._sizes[i], self._sizes[i + 1]
            mass = self._probs[i + 1] - self._probs[i]
            if b <= size_bytes:
                continue
            lo = max(a, size_bytes)
            # Mean contribution of the sub-segment [lo, b] of a log-uniform
            # segment [a, b]: mass is proportional to log-length.
            sub_mass = mass * (math.log(b) - math.log(lo)) / (
                math.log(b) - math.log(a)
            )
            above += sub_mass * (b - lo) / math.log(b / lo) if b > lo else 0.0
        return above / total

    def __repr__(self) -> str:
        return (
            f"EmpiricalCDF({self.name or 'unnamed'}, "
            f"{self.min_bytes}B..{self.max_bytes}B, mean={self.mean():.0f}B)"
        )


class FixedSize:
    """A degenerate distribution: every flow has the same size.

    Matches :class:`EmpiricalCDF`'s sampling interface so synthetic workloads
    (incast, all-to-all) can flow through the same generators.
    """

    def __init__(self, size_bytes: int, name: str = "") -> None:
        if size_bytes < 1:
            raise ValueError("flow size must be at least one byte")
        self._size = size_bytes
        self.name = name or f"fixed-{size_bytes}B"

    def sample(self, rng: random.Random) -> int:
        """Return the fixed size."""
        return self._size

    def mean(self) -> float:
        """Return the fixed size."""
        return float(self._size)
