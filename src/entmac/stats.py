"""Monte Carlo aggregates: sample mean, unbiased variance, standard error,
and the 95% confidence interval."""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from ._records import is_int

Z95 = 1.96


class RunStats(NamedTuple):
    """Aggregate of n real-valued samples.

    variance is the unbiased sample variance (0 when n == 1),
    std_error = sqrt(variance / n), and ci95 = mean +/- 1.96 * std_error.
    """

    n: int
    mean: float
    variance: float
    std_error: float
    ci95: tuple[float, float]

    @classmethod
    def from_moments(cls, n: int, mean: float, sum_sq_dev: float) -> "RunStats":
        """Build from n, mean and the centered sum of squares."""
        if n < 1:
            raise ValueError("need at least one sample")
        variance = sum_sq_dev / (n - 1) if n > 1 else 0.0
        std_error = math.sqrt(variance / n)
        return cls(
            n=n,
            mean=mean,
            variance=variance,
            std_error=std_error,
            ci95=(mean - Z95 * std_error, mean + Z95 * std_error),
        )

    @classmethod
    def from_two_valued(cls, n: int, n_hi: int, lo: float, hi: float) -> "RunStats":
        """Exact stats for samples that only take the values lo and hi.

        For such samples the centered sum of squares is
        (hi - lo)^2 * n * p * (1 - p) with p = n_hi / n, exactly, which is
        what makes sharded Monte Carlo runs reproducible from integer
        tallies alone. n must be an int >= 1 and n_hi an int in [0, n],
        neither a bool.
        """
        if not is_int(n, 1):
            raise ValueError("need at least one sample")
        if not is_int(n_hi, 0, n):
            raise ValueError(f"n_hi={n_hi} outside [0, {n}]")
        p = n_hi / n
        mean = lo + (hi - lo) * p
        sum_sq_dev = (hi - lo) ** 2 * (n * p * (1.0 - p))
        return cls.from_moments(n, mean, sum_sq_dev)


def aggregate(samples: Iterable[float]) -> RunStats:
    """Single-pass Welford aggregation of a sample stream."""
    n = 0
    mean = 0.0
    m2 = 0.0
    for x in samples:
        n += 1
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)
    if n == 0:
        raise ValueError("need at least one sample")
    return RunStats.from_moments(n, mean, m2)
