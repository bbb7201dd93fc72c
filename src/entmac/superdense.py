"""Superdense coding over a pre-shared |beta_00> pair.

Alice encodes a classical bitpair into her half of the pair with one of
{I, Z, X, iY}, hands the qubit to Bob, and Bob's Bell-basis measurement
recovers the bitpair exactly: the four encoded states are the four
orthogonal Bell states. Two bits per protocol use, deterministically.

The qubit handover is modeled as lossless and instantaneous; only the
encode -> joint state -> measure pipeline is simulated.
"""

from __future__ import annotations

from ._records import Program, checked_record, is_int
from .qubit import (
    PAULI_I,
    PAULI_IY,
    PAULI_X,
    PAULI_Z,
    BETA_00,
    PauliOp,
    QubitId,
    TwoQubitState,
    _independent_of_u,
    apply_single_qubit,
    measure_bell,
)
from .rng import _BIT_THRESHOLD, RandomSource
from .stats import RunStats

#: classical bits delivered per protocol use
BITS_PER_USE = 2


class Dibit(checked_record("Dibit", "a1 a2")):
    """The classical bitpair (A1, A2) Alice wants to send."""

    __slots__ = ()

    def __new__(cls, a1: int, a2: int):
        if not (is_int(a1, 0, 1) and is_int(a2, 0, 1)):
            raise ValueError(f"dibit components must be 0 or 1, got ({a1}, {a2})")
        return super().__new__(cls, a1, a2)


_ENCODING = {
    (0, 0): PAULI_I,
    (0, 1): PAULI_Z,
    (1, 0): PAULI_X,
    (1, 1): PAULI_IY,
}


def encode(d: Dibit) -> PauliOp:
    """Encoder alphabet: 00 -> I, 01 -> Z, 10 -> X, 11 -> iY."""
    return _ENCODING[(d.a1, d.a2)]


def channel_state_after_encoding(d: Dibit) -> TwoQubitState:
    """Joint state at Bob once Alice's encoded qubit arrives: |beta_{a1 a2}>."""
    return apply_single_qubit(BETA_00, encode(d), QubitId.A)


def roundtrip(d: Dibit, rng: RandomSource) -> Dibit:
    """Encode, hand over, Bell-measure. Always returns the input dibit.

    The pre-measurement state is an exact Bell basis element, so the
    measurement outcome cannot depend on the RandomSource draw.
    """
    idx = measure_bell(channel_state_after_encoding(d), rng)
    return Dibit(idx.k, idx.l)


#: 1 where ``roundtrip`` returns its dibit (A1, A2), read as the two-bit
#: number A1 A2; built by the engine and proved free of the Bell uniform by
#: ``qubit._independent_of_u``
_SD_OK = tuple(int(_independent_of_u(roundtrip, d) == d)
               for d in (Dibit(a1, a2) for a1 in (0, 1) for a2 in (0, 1)))


def _program() -> Program:
    """The word program of one trial (see ``entmac._kernels.pure``).

    A trial is 3 words: A1 and A2 are the top bits of words 0 and 1, weighted
    as the two-bit number A1 A2, and word 2 is the Bell measurement's uniform,
    which is never read. The table is ``_SD_OK``, read at each call, and
    counter 1 counts a success.
    """
    return Program((_BIT_THRESHOLD,) * 2, (2, 1), (0, 1), 3, _SD_OK, 2)


def trial_successes(n_trials: int, seed: int) -> int:
    """Roundtrip successes over one contiguous seeded chunk of trials.

    Each trial draws what ``roundtrip`` on a dibit of two top bits draws: the
    two bits, then the Bell measurement's uniform. Its outcome does not
    depend on that uniform, so the trial adds the ``_SD_OK`` entry of its
    dibit rather than measuring. While every entry is the same, as it is for a
    sound engine, the fold reads no word (``pure._tally``): each trial adds
    that entry.
    """
    from ._kernels.pure import _histogram, _tally

    return _tally(_histogram, n_trials, seed, _program())[1]


def count_successes(n_trials: int, rng: RandomSource, workers: int | str = 1) -> int:
    """Total roundtrip successes over n_trials uniformly random dibits.

    The chunks run in up to ``workers`` processes on either backend (see
    ``_kernels.map_chunks``); the count never depends on ``workers``.
    """
    from . import _kernels

    return sum(_kernels.map_chunks(_kernels.superdense_tally, n_trials, rng, workers))


def simulate(n_trials: int, rng: RandomSource, workers: int | str = 1) -> RunStats:
    """Roundtrip a uniformly random dibit per trial; per-trial success stats.

    Every trial draws its dibit and its Bell uniform from the seeded stream
    and counts the ``_SD_OK`` entry of its dibit. The engine check is
    ``_SD_OK``'s proof at import: the statevector engine builds each entry and
    proves it independent of the uniform, and a broken engine leaves a 0 in
    it. The stream's dibit words are read only when the table is not
    constant; with every entry 1 the mean is exactly 1.0 and no word is read.
    """
    successes = count_successes(n_trials, rng, workers=workers)
    return RunStats.from_two_valued(n_trials, successes, lo=0.0, hi=1.0)
