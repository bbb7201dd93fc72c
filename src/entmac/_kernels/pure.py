"""Pure-Python kernels: the reference the compiled backend must match.

The hyperdense loop builds no object per slot. At import, ``_OUTCOME`` is
filled by running the public ``run_slot`` once for each of the 32 inputs
(A1, A2, B1, B2, c) and recording which tally its channel outcome counts
toward (collision, idle, single_alice, single_bob). A slot then draws its
four party bits as the top bits of four words from the chunk stream, asks
the pair source for c (so qubit and custom sources consume the stream as
they would one slot at a time), and adds 1 to the tally the table names.
The table is the composition of the protocol operations, which keeps this
loop the oracle in backend-parity tests; tests/test_hyperdense.py pins it
to a slot-by-slot replay through ``run_slot``.

The Aloha loop replays ``aloha.run_slot``'s draws and decision inline: a
user transmits when ``next_float() < p``, which it tests as one integer
comparison of the raw word against ``_transmit_threshold(p)``;
tests/test_aloha.py::test_run_slot_composition_matches_kernel pins it to
``run_slot``.
"""

from __future__ import annotations

import math

from ..hyperdense import ChannelState, Party, PartyBits, SharedOutcome, run_slot
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


class _SharedBit(dict):
    """c -> c for the two valid outcomes; any other c raises as SharedOutcome does."""

    def __missing__(self, c):
        raise ValueError(f"shared outcome must be 0 or 1, got {c}")


_C_BIT = _SharedBit({0: 0, 1: 1})


def _transmit_threshold(p: float) -> int:
    """T such that the word w behind next_float() gives next_float() < p exactly when w < T.

    next_float() is (w >> 11) * 2**-53, exact, so it is below p exactly when
    the integer w >> 11 is below p * 2**53 (exact for a float p), that is
    below ceil(p * 2**53), that is when w < ceil(p * 2**53) << 11.
    """
    return math.ceil(p * 2**53) << 11


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

    Per slot: A1, A2, B1, B2 from the chunk stream, then c from ``source``.
    """
    rng = RandomSource(seed)
    next_u64 = rng.next_u64
    draw = source.draw
    outcome = _OUTCOME
    c_bit = _C_BIT
    counts = [0, 0, 0, 0]
    for _ in range(n_slots):
        # the top bit of each word, shifted to its place in the table index;
        # operands evaluate left to right, so c is drawn after the four bits
        counts[outcome[
            next_u64() >> 59 & 16 | next_u64() >> 60 & 8 | next_u64() >> 61 & 4
            | next_u64() >> 62 & 2 | c_bit[draw(rng)]
        ]] += 1
    return tuple(counts)
