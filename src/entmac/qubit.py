"""Minimal two-qubit statevector engine.

States live in the computational basis ordered |00>, |01>, |10>, |11>,
with Alice's qubit in the left (most significant) position and Bob's in the
right. That ordering makes the Bell-state table of the superdense encoder
read off directly from the amplitude tuples.

Measurement sampling: every measurement consumes exactly one uniform draw
from the supplied RandomSource, then takes outcome 0 iff u < P(0). Outcome
probabilities below ``PROB_CLAMP`` are clamped to zero first, so outcomes
that are impossible up to rounding are never sampled. The fixed draw count
keeps the pure and compiled simulation backends on identical streams.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .rng import RandomSource

#: probabilities below this are treated as exactly zero when sampling
PROB_CLAMP = 1e-12

#: total outcome mass below this means the state cannot be measured
DEGENERATE_MASS = 1e-12

RSQRT2 = 1.0 / math.sqrt(2.0)


class DegenerateStateError(ValueError):
    """Raised when a state's total outcome probability mass is ~zero."""


class QubitId(Enum):
    """Which tensor slot a single-qubit operation targets."""

    A = "A"
    B = "B"


@dataclass(frozen=True, slots=True)
class BellIndex:
    """Index (k, l) of the Bell state |beta_kl>."""

    k: int
    l: int

    def __post_init__(self):
        if self.k not in (0, 1) or self.l not in (0, 1):
            raise ValueError(f"Bell index bits must be 0 or 1, got ({self.k}, {self.l})")


@dataclass(frozen=True, slots=True)
class TwoQubitState:
    """Four complex amplitudes over |00>, |01>, |10>, |11>.

    The constructor checks finiteness only; normalization is the business of
    the operations that produce states (and of the tests that check them),
    so degenerate inputs remain constructible for error-path coverage. Every
    operation builds its result through it, so a PauliOp whose products
    overflow raises here.
    """

    amps: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        if len(self.amps) != 4:
            raise ValueError(f"expected 4 amplitudes, got {len(self.amps)}")
        amps = tuple(complex(a) for a in self.amps)
        for a in amps:
            if not cmath.isfinite(a):
                raise ValueError(f"non-finite amplitude {a!r}")
        object.__setattr__(self, "amps", amps)

    def norm_sq(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self.amps)


@dataclass(frozen=True, slots=True)
class PauliOp:
    """Single-qubit unitary used by the superdense encoder alphabet."""

    tag: str
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]


PAULI_I = PauliOp("I", ((1, 0), (0, 1)))
PAULI_X = PauliOp("X", ((0, 1), (1, 0)))
# real form of i*Y, so the encoded |beta_11> comes out as (|01> - |10>)/sqrt(2)
PAULI_IY = PauliOp("iY", ((0, 1), (-1, 0)))
PAULI_Z = PauliOp("Z", ((1, 0), (0, -1)))

PAULIS = {op.tag: op for op in (PAULI_I, PAULI_X, PAULI_IY, PAULI_Z)}

_BELL_AMPS = {
    (0, 0): (RSQRT2, 0.0, 0.0, RSQRT2),  # (|00> + |11>)/sqrt(2)
    (0, 1): (RSQRT2, 0.0, 0.0, -RSQRT2),  # (|00> - |11>)/sqrt(2)
    (1, 0): (0.0, RSQRT2, RSQRT2, 0.0),  # (|01> + |10>)/sqrt(2)
    (1, 1): (0.0, RSQRT2, -RSQRT2, 0.0),  # (|01> - |10>)/sqrt(2)
}

#: the four Bell states, built once; states are immutable, so sharing is safe
_BELL_STATES = {
    kl: TwoQubitState(tuple(complex(a) for a in amps)) for kl, amps in _BELL_AMPS.items()
}

#: |beta_00>, the pair every protocol slot starts from
BETA_00 = _BELL_STATES[(0, 0)]

# index pairs (outcome 0, outcome 1) for each measured qubit
_A_INDICES = ((0, 1), (2, 3))
_B_INDICES = ((0, 2), (1, 3))


def _target_indices(target: QubitId) -> tuple[tuple[int, int], tuple[int, int]]:
    """The index pairs of ``target``; a target that is not a QubitId raises TypeError."""
    if target is QubitId.A:
        return _A_INDICES
    if target is QubitId.B:
        return _B_INDICES
    raise TypeError(f"target must be a QubitId, got {target!r}")


def bell_state(idx: BellIndex) -> TwoQubitState:
    """The canonical Bell state |beta_kl>."""
    return _BELL_STATES[(idx.k, idx.l)]


def apply_single_qubit(state: TwoQubitState, op: PauliOp, target: QubitId) -> TwoQubitState:
    """Apply (U x I) for target A, or (I x U) for target B."""
    a0, a1, a2, a3 = state.amps
    (m00, m01), (m10, m11) = op.matrix
    if _target_indices(target) is _A_INDICES:
        new = (
            m00 * a0 + m01 * a2,
            m00 * a1 + m01 * a3,
            m10 * a0 + m11 * a2,
            m10 * a1 + m11 * a3,
        )
    else:
        new = (
            m00 * a0 + m01 * a1,
            m10 * a0 + m11 * a1,
            m00 * a2 + m01 * a3,
            m10 * a2 + m11 * a3,
        )
    return TwoQubitState(new)


def _mass(a: complex) -> float:
    return a.real * a.real + a.imag * a.imag


def measure_probabilities(state: TwoQubitState, target: QubitId) -> tuple[float, float]:
    """Born-rule probabilities (P(0), P(1)) for measuring one qubit."""
    (z0, z1), (o0, o1) = _target_indices(target)
    amps = state.amps
    p0 = _mass(amps[z0]) + _mass(amps[z1])
    p1 = _mass(amps[o0]) + _mass(amps[o1])
    return p0, p1


def measure_qubit(
    state: TwoQubitState, target: QubitId, rng: RandomSource
) -> tuple[int, TwoQubitState]:
    """Measure one qubit in the computational basis, collapsing the state.

    Returns the outcome bit and the renormalized post-measurement state.
    Raises DegenerateStateError when the state carries no probability mass.
    """
    p0, p1 = measure_probabilities(state, target)
    if p0 + p1 < DEGENERATE_MASS:
        raise DegenerateStateError(f"total outcome mass {p0 + p1} is below {DEGENERATE_MASS}")
    u = rng.next_float()
    if p0 < PROB_CLAMP:
        outcome = 1
    elif p1 < PROB_CLAMP:
        outcome = 0
    else:
        outcome = 0 if u < p0 else 1

    keep = _target_indices(target)[outcome]
    norm = math.sqrt(p0 if outcome == 0 else p1)
    amps = state.amps
    new = [complex(0.0, 0.0)] * 4
    for i in keep:
        a = amps[i]
        new[i] = complex(a.real / norm, a.imag / norm)
    return outcome, TwoQubitState(tuple(new))


def bell_probabilities(state: TwoQubitState) -> tuple[float, float, float, float]:
    """Projection probabilities onto |beta_00>, |beta_01>, |beta_10>, |beta_11>.

    Insensitive to a global phase of the input, since only |<beta|state>|^2
    enters.
    """
    a0, a1, a2, a3 = state.amps
    return (
        _mass(RSQRT2 * (a0 + a3)),
        _mass(RSQRT2 * (a0 - a3)),
        _mass(RSQRT2 * (a1 + a2)),
        _mass(RSQRT2 * (a1 - a2)),
    )


_BELL_OUTCOMES = (BellIndex(0, 0), BellIndex(0, 1), BellIndex(1, 0), BellIndex(1, 1))


def measure_bell(state: TwoQubitState, rng: RandomSource) -> BellIndex:
    """Projective measurement in the Bell basis."""
    probs = bell_probabilities(state)
    if sum(probs) < DEGENERATE_MASS:
        raise DegenerateStateError(f"total outcome mass {sum(probs)} is below {DEGENERATE_MASS}")
    u = rng.next_float()
    cum = 0.0
    pick = None
    for idx, p in zip(_BELL_OUTCOMES, probs):
        if p < PROB_CLAMP:
            # impossible up to rounding: never sampled
            continue
        pick = idx
        cum += p
        if u < cum:
            return idx
    if pick is None:
        # every outcome fell below the clamp although the total mass passed
        # the degeneracy gate: the input was unnormalizable junk
        raise DegenerateStateError("no outcome carries measurable probability")
    # u landed past the accumulated mass (possible when the probabilities sum
    # to slightly under 1); fall back to the last feasible outcome
    return pick
