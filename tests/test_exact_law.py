"""The exact law of the tables and thresholds both kernel backends consume.

Every kernel draws uniform 64-bit words and reads a table or compares a word
with an integer threshold T, so its per-slot law is exact in fractions: a
top bit is 1 with probability 1/2, and w < T holds with probability
T / 2**64. These tests compute that law with ``fractions.Fraction`` and show
the paper's figures hold exactly for the simulator itself, not only within
a Monte Carlo tolerance.
"""

from fractions import Fraction

from entmac import superdense
from entmac._kernels import pure

HALF = Fraction(1, 2)

#: positions in each ``_OUTCOME`` entry's tally (collision, idle, single_alice, single_bob)
SINGLE_ALICE, SINGLE_BOB = 2, 3


def outcome_law(p_c0: Fraction) -> list[Fraction]:
    """P(each tally) of one hyperdense slot: four fair bits, and c = 0 with probability p_c0."""
    law = [Fraction(0)] * 4
    for index, tally in enumerate(pure._OUTCOME):
        c = index & 1
        law[tally] += Fraction(1, 16) * (p_c0 if c == 0 else 1 - p_c0)
    return law


def test_single_transmission_has_probability_one_half_for_either_c():
    for c in (0, 1):
        singles = sum(pure._OUTCOME[index] in (SINGLE_ALICE, SINGLE_BOB)
                      for index in range(32) if index & 1 == c)
        assert Fraction(singles, 16) == HALF, c


def test_hyperdense_delivers_exactly_five_halves_bits_from_either_source():
    qubit_p_c0 = Fraction(pure._QUBIT_C_THRESHOLD, 2**64)
    # the qubit source's c is biased by 2**-53, which the law does not feel
    assert qubit_p_c0 == HALF - Fraction(1, 2**53)
    for p_c0 in (HALF, qubit_p_c0):
        law = outcome_law(p_c0)
        assert sum(law) == 1
        assert law[SINGLE_ALICE] == law[SINGLE_BOB] == Fraction(1, 4)
        # a slot delivers 3 bits with one transmission and 2 otherwise
        single = law[SINGLE_ALICE] + law[SINGLE_BOB]
        assert 3 * single + 2 * (1 - single) == Fraction(5, 2)


def test_superdense_delivers_every_dibit():
    assert sum(Fraction(ok, 4) for ok in superdense._SD_OK) == 1


def test_two_user_aloha_succeeds_with_probability_exactly_one_half():
    t53 = pure._transmit_threshold(0.5) >> 11
    assert t53 == 2**52
    p = Fraction(t53, 2**53)
    assert 2 * p * (1 - p) == HALF


def test_aloha_at_one_third_differs_from_the_closed_form_only_by_threshold_rounding():
    # ceil(p * 2**53) rounds the float nearest 1/3 up to the next multiple of 2**-53
    q = Fraction(pure._transmit_threshold(1 / 3) >> 11, 2**53)
    assert q == Fraction(1, 3) + Fraction(1, 3 * 2**53)
    # three users at q succeed with 3q(1-q)**2, not the closed form's 4/9;
    # the slope vanishes at 1/3, so the gap is far below one rounding step
    law = 3 * q * (1 - q) ** 2
    assert law != Fraction(4, 9)
    assert abs(law - Fraction(4, 9)) < Fraction(1, 2**52)
