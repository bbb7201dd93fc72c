"""The exact law of the word programs both kernel backends run.

Every kernel runs a word program (thresholds, weights, offsets, period,
table): a slot reads one uniform 64-bit word per threshold t_i, the word at
offset o_i of its period words, and its bit i is 1 exactly when its top 53
bits are at least t_i, that is with probability 1 - t_i / 2**53, and the
table folds the index sum(w_i * bit_i) into a counter. So the law of each
counter is exact in fractions. These tests compute it from the kernels' own
programs with ``fractions.Fraction`` and show the paper's figures hold
exactly for the simulator itself, not only within a Monte Carlo tolerance.
"""

from fractions import Fraction

from entmac import aloha, hyperdense, superdense
from entmac.hyperdense import CoinPairSource, QubitPairSource
from entmac.rng import _float_threshold

from _support import law

HALF = Fraction(1, 2)

#: positions in each ``_OUTCOME`` entry's tally (collision, idle, single_alice, single_bob)
SINGLE_ALICE, SINGLE_BOB = 2, 3


def hyperdense_law(source, c_threshold=None) -> list[Fraction]:
    """P(each tally) of one hyperdense slot, optionally with c's threshold replaced."""
    program = hyperdense._program(source)
    if c_threshold is not None:
        program = program._replace(thresholds=program.thresholds[:-1] + (c_threshold,))
    return law(program)


def test_single_transmission_has_probability_one_half_for_either_c():
    # a threshold of 2**53 makes c always 0, and one of 0 makes it always 1
    for c_threshold in (2**53, 0):
        tallies = hyperdense_law(CoinPairSource(), c_threshold)
        assert tallies[SINGLE_ALICE] + tallies[SINGLE_BOB] == HALF, c_threshold


def test_hyperdense_delivers_exactly_five_halves_bits_from_either_source():
    qubit_p_c0 = Fraction(hyperdense._program(QubitPairSource()).thresholds[2], 2**53)
    # the qubit source's c is biased by 2**-53, which the law does not feel
    assert qubit_p_c0 == HALF - Fraction(1, 2**53)
    for source in (CoinPairSource(), QubitPairSource()):
        tallies = hyperdense_law(source)
        assert sum(tallies) == 1
        assert tallies[SINGLE_ALICE] == tallies[SINGLE_BOB] == Fraction(1, 4)
        # a slot delivers 3 bits with one transmission and 2 otherwise
        single = tallies[SINGLE_ALICE] + tallies[SINGLE_BOB]
        assert 3 * single + 2 * (1 - single) == Fraction(5, 2)


def test_superdense_delivers_every_dibit():
    assert law(superdense._program()) == [0, 1]


def test_two_user_aloha_succeeds_with_probability_exactly_one_half():
    assert _float_threshold(0.5) == 2**52
    assert law(aloha._program(2, 0.5))[1] == HALF


def test_aloha_at_one_third_differs_from_the_closed_form_only_by_threshold_rounding():
    # ceil(p * 2**53) rounds the float nearest 1/3 up to the next multiple of 2**-53
    q = Fraction(_float_threshold(1 / 3), 2**53)
    assert q == Fraction(1, 3) + Fraction(1, 3 * 2**53)
    # three users at q succeed with 3q(1-q)**2, not the closed form's 4/9;
    # the slope vanishes at 1/3, so the gap is far below one rounding step
    success = law(aloha._program(3, 1 / 3))[1]
    assert success == 3 * q * (1 - q) ** 2
    assert success != Fraction(4, 9)
    assert abs(success - Fraction(4, 9)) < Fraction(1, 2**52)
