"""Minimal two-qubit statevector engine.

States live in the computational basis ordered |00>, |01>, |10>, |11>,
with Alice's qubit in the left (most significant) position and Bob's in the
right. That ordering makes the Bell-state table of the superdense encoder
read off directly from the amplitude tuples.

Measurement sampling: both measurements pick their outcome with ``_sample``.
A total outcome mass below ``DEGENERATE_MASS`` raises DegenerateStateError
before any draw. Otherwise it draws exactly one uniform u from the supplied
RandomSource, skips the outcomes below ``PROB_CLAMP`` (impossible up to
rounding, so never sampled) and returns the first outcome whose cumulative
probability exceeds u, or the last one not skipped when u lands past the
accumulated mass. If it skipped every outcome it raises
DegenerateStateError. The pick is monotone in u, which ``_independent_of_u``
turns into a proof that a result holds for every u.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple

from ._records import checked_record, is_int
from .rng import _U_ENDS, RandomSource, _Uniforms

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


class BellIndex(checked_record("BellIndex", "k l")):
    """Index (k, l) of the Bell state |beta_kl>."""

    __slots__ = ()

    def __new__(cls, k: int, l: int):
        if not (is_int(k, 0, 1) and is_int(l, 0, 1)):
            raise ValueError(f"Bell index bits must be 0 or 1, got ({k}, {l})")
        return super().__new__(cls, k, l)


class TwoQubitState(checked_record("TwoQubitState", "amps")):
    """Four complex amplitudes over |00>, |01>, |10>, |11>.

    The constructor checks finiteness only; normalization is the business of
    the operations that produce states (and of the tests that check them),
    so degenerate inputs remain constructible for error-path coverage. Every
    operation builds its result through it, so a PauliOp whose products
    overflow raises here.
    """

    __slots__ = ()

    def __new__(cls, amps: tuple[complex, complex, complex, complex]):
        if len(amps) != 4:
            raise ValueError(f"expected 4 amplitudes, got {len(amps)}")
        amps = tuple(complex(a) for a in amps)
        for a in amps:
            if not cmath.isfinite(a):
                raise ValueError(f"non-finite amplitude {a!r}")
        return super().__new__(cls, amps)


class PauliOp(NamedTuple):
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
    (m00, m01), (m10, m11) = op.matrix
    amps = state.amps
    new = [complex(0.0, 0.0)] * 4
    # U mixes each amplitude with target 0 and its partner with target 1
    for z, o in zip(*_target_indices(target)):
        new[z] = m00 * amps[z] + m01 * amps[o]
        new[o] = m10 * amps[z] + m11 * amps[o]
    return TwoQubitState(tuple(new))


def _mass(a: complex) -> float:
    return a.real * a.real + a.imag * a.imag


def _sample(probs: tuple[float, ...], rng: RandomSource) -> int:
    """Index of the outcome picked from ``probs`` by the rule in the module docstring."""
    total = sum(probs)
    if total < DEGENERATE_MASS:
        raise DegenerateStateError(f"total outcome mass {total} is below {DEGENERATE_MASS}")
    u = rng.next_float()
    cum = 0.0
    pick = None
    for i, p in enumerate(probs):
        if p < PROB_CLAMP:
            continue
        pick = i
        cum += p
        if u < cum:
            return i
    if pick is None:
        raise DegenerateStateError("no outcome carries measurable probability")
    return pick


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
    Raises DegenerateStateError when ``_sample`` finds no outcome to pick.
    """
    probs = measure_probabilities(state, target)
    outcome = _sample(probs, rng)
    keep = _target_indices(target)[outcome]
    norm = math.sqrt(probs[outcome])
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
    return _BELL_OUTCOMES[_sample(bell_probabilities(state), rng)]


def _independent_of_u(measure, *args):
    """``measure(*args, rng)``, proved the same for every uniform it draws from rng.

    A measurement draws one uniform u and picks its outcome with ``_sample``,
    which is monotone in u, so a result that is equal at both ends of
    next_float()'s range is the result for every u. Raises RuntimeError when
    the two ends differ.
    """
    lo, hi = (measure(*args, _Uniforms(u)) for u in _U_ENDS)
    if lo != hi:
        raise RuntimeError(
            f"{measure.__name__} depends on the uniform: {lo!r} at u = 0, {hi!r} at u = 1 - 2**-53"
        )
    return lo
