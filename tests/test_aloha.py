"""Slotted-Aloha: analytic formulas vs enumeration, argmax, Monte Carlo."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmac import _kernels, aloha
from entmac.aloha import (
    AlohaParams,
    AlohaSlotResult,
    max_throughput,
    optimal_p,
    run_slot,
    simulate,
    success_probability,
    total_throughput,
)
from entmac.rng import RandomSource, _float_threshold
from entmac._kernels import pure

from _support import (
    CHI2_CRITICAL_0_001,
    chi_square,
    enum_total_throughput,
    enum_user_success_probability,
    grid_argmax_throughput,
    law,
)

E_INV = math.exp(-1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        AlohaParams(0, 0.5)
    with pytest.raises(ValueError):
        AlohaParams(2, -0.1)
    with pytest.raises(ValueError):
        AlohaParams(2, 1.5)
    with pytest.raises(ValueError):
        AlohaParams(2.0, 0.5)  # not an integer
    with pytest.raises(ValueError):
        AlohaParams(True, 0.5)  # bool is an int subclass, not a user count
    with pytest.raises(ValueError):
        AlohaParams(2, True)
    with pytest.raises(ValueError):
        AlohaParams(2, False)
    with pytest.raises(ValueError):
        AlohaParams(2, "0.5")
    with pytest.raises(ValueError):
        AlohaParams(2, None)


def test_slot_result_invariant():
    assert AlohaSlotResult(1, True).success
    with pytest.raises(ValueError):
        AlohaSlotResult(2, True)
    with pytest.raises(ValueError):
        AlohaSlotResult(1, False)


def test_success_probability_examples():
    # enumeration oracle values: 0.25 for (2, 1/2), 4/27 for (3, 1/3)
    assert abs(success_probability(AlohaParams(2, 0.5)) - 0.25) <= 1e-15
    assert success_probability(AlohaParams(1, 1.0)) == 1.0
    assert abs(success_probability(AlohaParams(3, 1 / 3)) - 4 / 27) <= 1e-15


def test_total_throughput_examples():
    assert total_throughput(AlohaParams(2, 0.5)) == 0.5
    assert total_throughput(AlohaParams(1, 1.0)) == 1.0
    assert total_throughput(AlohaParams(4, 0.25)) == 0.421875


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.777, 0.9, 1.0])
def test_analytic_equals_pattern_enumeration(m, p):
    params = AlohaParams(m, p)
    assert abs(success_probability(params) - enum_user_success_probability(m, p)) <= 1e-12
    assert abs(total_throughput(params) - enum_total_throughput(m, p)) <= 1e-12


@settings(max_examples=150)
@given(m=st.integers(1, 6), p=st.floats(0.0, 1.0, allow_nan=False))
def test_enumeration_equivalence_property(m, p):
    params = AlohaParams(m, p)
    assert abs(total_throughput(params) - enum_total_throughput(m, p)) <= 1e-12


def test_optimal_p_values():
    assert optimal_p(2) == 0.5
    assert optimal_p(1) == 1.0
    assert optimal_p(5) == 0.2
    with pytest.raises(ValueError):
        optimal_p(0)
    with pytest.raises(ValueError):
        optimal_p(True)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 17, 64])
def test_optimal_p_matches_grid_argmax(m):
    grid_best = grid_argmax_throughput(lambda mm, pp: total_throughput(AlohaParams(mm, pp)), m)
    assert abs(grid_best - optimal_p(m)) <= 1e-4 + 1e-12


def test_max_throughput_values():
    assert max_throughput(2) == 0.5
    assert max_throughput(1) == 1.0
    assert abs(max_throughput(10**6) - E_INV) <= 1e-6
    with pytest.raises(ValueError):
        max_throughput(0)
    with pytest.raises(ValueError):
        max_throughput(True)


def test_max_throughput_monotone_and_bounded():
    previous = max_throughput(1)
    for m in range(2, 201):
        current = max_throughput(m)
        assert current <= previous + 1e-15
        assert current >= E_INV
        assert abs(current - E_INV) < 1.0 / m
        previous = current


def test_max_throughput_consistent_with_total_at_optimum():
    for m in (1, 2, 3, 10, 50):
        params = AlohaParams(m, optimal_p(m))
        assert abs(max_throughput(m) - total_throughput(params)) <= 1e-15


# --- Monte Carlo ---------------------------------------------------------


def test_simulate_nobody_transmits():
    stats = simulate(AlohaParams(1, 0.0), 100, RandomSource(3))
    assert stats.mean == 0.0
    assert stats.variance == 0.0


def test_simulate_guaranteed_collision():
    stats = simulate(AlohaParams(3, 1.0), 500, RandomSource(4))
    assert stats.mean == 0.0


def test_simulate_lone_user_always_succeeds():
    stats = simulate(AlohaParams(1, 1.0), 500, RandomSource(5))
    assert stats.mean == 1.0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,p", [(2, 0.5), (3, 1 / 3), (5, 0.4)])
def test_simulate_tracks_analytic_value(seed, m, p):
    n = 100_000
    params = AlohaParams(m, p)
    q = total_throughput(params)
    sigma = math.sqrt(q * (1.0 - q))
    stats = simulate(params, n, RandomSource(seed))
    assert abs(stats.mean - q) <= 5 * sigma / math.sqrt(n)


@pytest.mark.parametrize("m", [2, 8])
def test_success_counts_fit_total_throughput(monkeypatch, m):
    # chi-square of failure/success counts against the exact law of the
    # kernel's own program, whose transmit threshold rounds p to 2**-53, on
    # the pure kernels (df = 1, alpha = 0.001)
    monkeypatch.setattr(_kernels, "_fast", None)
    n = 1 << 17
    params = AlohaParams(m, optimal_p(m))
    successes = round(simulate(params, n, RandomSource(20120 + m)).mean * n)
    expected = [n * float(q) for q in law(aloha._program(params.m, params.p))]
    statistic = chi_square((n - successes, successes), expected)
    assert statistic < CHI2_CRITICAL_0_001[1], (successes, statistic)


def test_simulate_rejects_empty_run():
    with pytest.raises(ValueError):
        simulate(AlohaParams(2, 0.5), 0, RandomSource(1))


def test_run_slot_composition_matches_kernel():
    # pure.aloha_tally replays run_slot's draws inline: running the public
    # single-slot op over one chunk stream must reproduce the kernel tally
    # exactly (same draws, same decisions), the edge probabilities included;
    # M = 300 counts its silent users past 255, in two-byte index lanes
    n = 2000
    for m, p, seed in [(3, 0.4, 2718), (1, 1.0, 1), (2, 0.5, 12345), (5, 0.0, 7), (8, 0.125, 99),
                         (2, 1, 3), (300, 1 / 300, 4242)]:
        params = AlohaParams(m, p)
        rng = RandomSource(seed)
        successes = sum(1 for _ in range(n) if run_slot(params, rng).success)
        assert successes == pure.aloha_tally(m, p, n, seed), (m, p, seed)


def test_transmit_threshold_agrees_with_next_float():
    # pure.aloha_tally tests a raw word w against the threshold in place of
    # next_float() < p, so the two must agree at, just below and just above
    # each threshold, and one float step of next_float() either side of it
    ps = [0.0, 5e-324, math.nextafter(2**-53, 0), 2**-53, math.nextafter(2**-53, 1),
          math.nextafter(0.5, 0), 0.5, 1 - 2**-53, 1.0, 1]
    for p in ps:
        threshold = _float_threshold(p) << 11
        for w in (threshold - 2048, threshold - 1, threshold, threshold + 1, threshold + 2047):
            if 0 <= w < 2**64:
                assert (w < threshold) == ((w >> 11) * 2**-53 < p), (p, w)
    assert _float_threshold(0.0) == 0
    assert _float_threshold(1.0) == _float_threshold(1) == 2**53


def test_run_slot_counts_transmitters():
    result = run_slot(AlohaParams(4, 1.0), RandomSource(0))
    assert result.transmitters == 4
    assert not result.success
