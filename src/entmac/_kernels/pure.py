"""Pure-Python kernels: the reference the compiled backend must match.

No loop here calls the statevector engine or builds an object per slot.
Each replays the draws of the public protocol operations word by word and
reads every result that does not depend on a draw from a table built at
import by those same operations:

* ``_OUTCOME`` holds, for each of the 32 inputs (A1, A2, B1, B2, c), the
  tally its slot counts toward (collision, idle, single_alice,
  single_bob), from one call of the public ``run_slot`` each.
* ``_QUBIT_C_THRESHOLD`` stands in for ``QubitPairSource.draw``: measuring
  qubit A of |beta_00> gives c = 0 exactly when its word is below the
  threshold, and measuring B then gives c again while consuming one more
  word.
* ``superdense._SD_OK`` says whether Bob's Bell measurement decodes each
  encoded dibit.

The compiled kernel knows none of these: the dispatchers in
``entmac._kernels`` pass it the same tables and thresholds.

An engine measurement takes its outcome from one uniform u with
``qubit._sample``, which is monotone in u. So ``qubit._independent_of_u``
proves a measurement's result the same for every u by running it at the
least and the greatest u that ``next_float`` returns, and raises at import
when the two differ. Tests pin each loop to a slot-by-slot replay through
the engine (``tests/test_hyperdense.py``, ``tests/test_superdense.py``),
which keeps these loops the oracle in backend-parity tests.

A hyperdense slot draws its four party bits as the top bits of four words
from the chunk stream, then c as one word against a threshold:
``_QUBIT_C_THRESHOLD`` for a ``QubitPairSource``, which then draws B's word,
and 2**63 for a ``CoinPairSource``, whose ``draw`` is that word's top bit.
These two are the only pair sources, matched by exact type: ``_is_qubit``
rejects any other, subclasses included, for every caller.

The Aloha loop replays ``aloha.run_slot``'s draws and decision inline: a
user transmits when ``next_float() < p``, which it tests as one integer
comparison of the raw word against ``_transmit_threshold(p)``;
tests/test_aloha.py::test_run_slot_composition_matches_kernel pins it to
``run_slot``.
"""

from __future__ import annotations

import math

from ..hyperdense import (
    ChannelState,
    CoinPairSource,
    Party,
    PartyBits,
    QubitPairSource,
    SharedOutcome,
    run_slot,
)
from ..qubit import BETA_00, QubitId, measure_probabilities, measure_qubit
from ..qubit import _U_ENDS, _independent_of_u, _OneUniform
from ..rng import RandomSource


def _tally_index(a1: int, a2: int, b1: int, b2: int, c: int) -> int:
    """Position in (collision, idle, single_alice, single_bob) of one slot's outcome."""
    channel = run_slot(PartyBits(a1, a2), PartyBits(b1, b2), SharedOutcome(c)).channel
    if channel.state is ChannelState.COLLISION:
        return 0
    if channel.state is ChannelState.IDLE:
        return 1
    return 2 if channel.sender is Party.ALICE else 3


#: tally index of the slot with inputs (A1, A2, B1, B2, c), read as the
#: five-bit number A1 A2 B1 B2 c
_OUTCOME = tuple(
    _tally_index(a1, a2, b1, b2, c)
    for a1 in (0, 1) for a2 in (0, 1) for b1 in (0, 1) for b2 in (0, 1) for c in (0, 1)
)


def _is_qubit(source) -> bool:
    """True for a ``QubitPairSource``, False for a ``CoinPairSource``.

    Raises TypeError for any other source, a subclass of either included:
    the kernels read c off a threshold and never call ``draw``.
    """
    if type(source) is QubitPairSource:
        return True
    if type(source) is CoinPairSource:
        return False
    raise TypeError(f"source must be a QubitPairSource or a CoinPairSource, "
                    f"got {type(source).__name__}")


def _transmit_threshold(p: float) -> int:
    """T such that the word w behind next_float() gives next_float() < p exactly when w < T.

    next_float() is (w >> 11) * 2**-53, exact, so it is below p exactly when
    the integer w >> 11 is below p * 2**53 (exact for a float p), that is
    below ceil(p * 2**53), that is when w < ceil(p * 2**53) << 11.
    """
    return math.ceil(p * 2**53) << 11


def _qubit_c_threshold() -> int:
    """T such that QubitPairSource().draw(rng) is 0 exactly when its first word is below T.

    The first word is A's measurement of |beta_00>, which gives 0 exactly when
    next_float() < P(0). Raises RuntimeError unless A gives 0 at u = 0 and 1
    at the greatest u (so no clamp makes either outcome impossible), and B's
    measurement of each state A's collapses to gives A's outcome for every u:
    draw then never raises and consumes one more word.
    """
    for c, u in enumerate(_U_ENDS):
        c_a, collapsed = measure_qubit(BETA_00, QubitId.A, _OneUniform(u))
        c_b, _ = _independent_of_u(measure_qubit, collapsed, QubitId.B)
        if c_a != c or c_b != c:
            raise RuntimeError(f"qubit pair measured ({c_a}, {c_b}) where ({c}, {c}) was due")
    return _transmit_threshold(measure_probabilities(BETA_00, QubitId.A)[0])


_QUBIT_C_THRESHOLD = _qubit_c_threshold()


def aloha_tally(m: int, p: float, n_slots: int, seed: int) -> int:
    """Successful-slot count for one contiguous chunk of an Aloha run."""
    next_u64 = RandomSource(seed).next_u64
    threshold = _transmit_threshold(p)
    users = range(m)
    successes = 0
    for _ in range(n_slots):
        transmitters = 0
        for _ in users:
            if next_u64() < threshold:
                transmitters += 1
        if transmitters == 1:
            successes += 1
    return successes


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts for one chunk.

    Per slot: A1, A2, B1, B2 from the chunk stream, then c = 1 exactly when
    the next word reaches the source's threshold; a ``QubitPairSource`` then
    draws B's word, which gives c again.
    """
    qubit = _is_qubit(source)
    c_threshold = _QUBIT_C_THRESHOLD if qubit else 1 << 63
    next_u64 = RandomSource(seed).next_u64
    outcome = _OUTCOME
    counts = [0, 0, 0, 0]
    for _ in range(n_slots):
        # the top bit of each word, shifted to its place in the table index;
        # operands evaluate left to right, so c is drawn after the four bits
        counts[outcome[
            next_u64() >> 59 & 16 | next_u64() >> 60 & 8 | next_u64() >> 61 & 4
            | next_u64() >> 62 & 2 | (next_u64() >= c_threshold)
        ]] += 1
        if qubit:
            next_u64()
    return tuple(counts)
