"""Superdense coding over a pre-shared |beta_00> pair.

Alice encodes a classical bitpair into her half of the pair with one of
{I, Z, X, iY}, hands the qubit to Bob, and Bob's Bell-basis measurement
recovers the bitpair exactly: the four encoded states are the four
orthogonal Bell states. Two bits per protocol use, deterministically.

The qubit handover is modeled as lossless and instantaneous; only the
encode -> joint state -> measure pipeline is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qubit import (
    PAULI_I,
    PAULI_IY,
    PAULI_X,
    PAULI_Z,
    BETA_00,
    PauliOp,
    QubitId,
    TwoQubitState,
    apply_single_qubit,
    measure_bell,
)
from .rng import RandomSource
from .stats import RunStats

#: classical bits delivered per protocol use
BITS_PER_USE = 2


@dataclass(frozen=True, slots=True)
class Dibit:
    """The classical bitpair (A1, A2) Alice wants to send."""

    a1: int
    a2: int

    def __post_init__(self):
        if self.a1 not in (0, 1) or self.a2 not in (0, 1):
            raise ValueError(f"dibit components must be 0 or 1, got ({self.a1}, {self.a2})")


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


def trial_successes(n_trials: int, seed: int) -> int:
    """Roundtrip successes over one contiguous seeded chunk of trials.

    Each trial runs ``roundtrip`` on the dibit (A1, A2) drawn as two top bits
    from the chunk stream, with the same engine calls and draws, but keeps
    the bits as plain ints rather than building Dibits.
    """
    rng = RandomSource(seed)
    next_u64 = rng.next_u64
    successes = 0
    for _ in range(n_trials):
        a1 = next_u64() >> 63
        a2 = next_u64() >> 63
        idx = measure_bell(apply_single_qubit(BETA_00, _ENCODING[a1, a2], QubitId.A), rng)
        if idx.k == a1 and idx.l == a2:
            successes += 1
    return successes


def count_successes(n_trials: int, rng: RandomSource, workers: int = 1) -> int:
    """Total roundtrip successes over n_trials uniformly random dibits.

    There is no compiled superdense kernel, so the chunks always run in this
    thread, whatever ``workers`` says.
    """
    from . import _kernels

    return sum(_kernels.map_chunks("superdense", trial_successes, n_trials, rng, workers))


def simulate(n_trials: int, rng: RandomSource, workers: int = 1) -> RunStats:
    """Roundtrip a uniformly random dibit per trial; per-trial success stats.

    Runs through the statevector engine every trial. The mean is exactly 1.0
    unless the engine is broken, which is the point of simulating it.
    """
    successes = count_successes(n_trials, rng, workers=workers)
    return RunStats.from_two_valued(n_trials, successes, lo=0.0, hi=1.0)
