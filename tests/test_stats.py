"""RunStats and the single-pass aggregator against two-pass references."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmac.rng import RandomSource
from entmac.stats import RunStats, aggregate

from _support import two_pass_stats


def test_two_point_example():
    stats = aggregate([2.0, 3.0])
    assert stats.n == 2
    assert abs(stats.mean - 2.5) <= 1e-15
    assert abs(stats.variance - 0.5) <= 1e-15


def test_constant_stream_has_zero_variance():
    stats = aggregate([2.0] * 1000)
    assert stats.mean == 2.0
    assert stats.variance == 0.0
    assert stats.std_error == 0.0
    assert stats.ci95 == (2.0, 2.0)


def test_single_sample():
    stats = aggregate([7.5])
    assert stats.n == 1
    assert stats.mean == 7.5
    assert stats.variance == 0.0


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def test_uniform_draws_mean():
    rng = RandomSource(7)
    n = 1_000_000
    stats = aggregate(rng.next_float() for _ in range(n))
    # uniform sigma is 1/sqrt(12)
    assert abs(stats.mean - 0.5) <= 5 * (1.0 / math.sqrt(12.0)) / math.sqrt(n)


def test_welford_matches_two_pass_on_large_stream():
    rng = RandomSource(8)
    samples = [rng.next_float() * 100.0 for _ in range(1_000_000)]
    stats = aggregate(samples)
    ref_mean, ref_var = two_pass_stats(samples)
    assert abs(stats.mean - ref_mean) <= 1e-10
    assert abs(stats.variance - ref_var) <= 1e-10


def test_ci95_structure():
    stats = aggregate([1.0, 2.0, 3.0, 4.0])
    assert stats.std_error == math.sqrt(stats.variance / stats.n)
    assert stats.ci95 == (stats.mean - 1.96 * stats.std_error, stats.mean + 1.96 * stats.std_error)
    assert stats.variance >= 0.0


def test_from_two_valued_matches_aggregate():
    samples = [3.0] * 3 + [2.0] * 7
    direct = aggregate(samples)
    counted = RunStats.from_two_valued(10, 3, lo=2.0, hi=3.0)
    assert counted.n == direct.n
    assert abs(counted.mean - direct.mean) <= 1e-12
    assert abs(counted.variance - direct.variance) <= 1e-12
    assert abs(counted.std_error - direct.std_error) <= 1e-12


@settings(max_examples=200)
@given(n=st.integers(1, 400), n_hi=st.integers(0, 400),
       lo=st.floats(-5, 5, allow_nan=False), hi=st.floats(-5, 5, allow_nan=False))
def test_from_two_valued_matches_aggregate_property(n, n_hi, lo, hi):
    n_hi = min(n_hi, n)
    counted = RunStats.from_two_valued(n, n_hi, lo=lo, hi=hi)
    direct = aggregate([hi] * n_hi + [lo] * (n - n_hi))
    assert abs(counted.mean - direct.mean) <= 1e-9
    assert abs(counted.variance - direct.variance) <= 1e-9


def test_from_two_valued_validation():
    with pytest.raises(ValueError):
        RunStats.from_two_valued(0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RunStats.from_two_valued(5, 6, 0.0, 1.0)
    with pytest.raises(ValueError):
        RunStats.from_two_valued(5, -1, 0.0, 1.0)


@pytest.mark.parametrize("n, n_hi", [(3.5, 1), (4.0, 1), (True, 1), (4, 1.0), (4, True),
                                     (4, "1")])
def test_from_two_valued_takes_only_integer_counts(n, n_hi):
    with pytest.raises(ValueError):
        RunStats.from_two_valued(n, n_hi, 0.0, 1.0)


@settings(max_examples=100)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200))
def test_aggregate_matches_two_pass_property(samples):
    stats = aggregate(samples)
    ref_mean, ref_var = two_pass_stats(samples)
    scale = max(1.0, abs(ref_mean))
    assert abs(stats.mean - ref_mean) <= 1e-9 * scale
    assert abs(stats.variance - ref_var) <= 1e-6 * max(1.0, ref_var)
