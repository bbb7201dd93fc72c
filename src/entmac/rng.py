"""Deterministic random streams shared by every simulation in the package.

The generator is SplitMix64: a 64-bit counter advanced by a golden-ratio
increment, pushed through an avalanche mix. It is tiny, statistically solid
for Monte Carlo work, and trivial to reimplement in C, which lets the
compiled kernels reproduce the pure-Python streams bit for bit.

Streams are split by label, not by position: ``derive_seed(seed, label)``
hashes the label into a child seed, so child streams depend only on the
parent seed and the label, never on how much of the parent stream was
consumed. Campaign code labels its children ("aloha", "chunk:3", ...) and
stays reproducible no matter how work is scheduled.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# 2**-53, so a 53-bit draw maps exactly onto a double in [0, 1)
_TWO_NEG53 = 1.0 / 9007199254740992.0


def mix64(z: int) -> int:
    """SplitMix64 avalanche finalizer over 64-bit integers."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def fnv1a64(data: bytes) -> int:
    """FNV-1a hash, used to fold stream labels into seeds."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Child seed for the stream named ``label`` under master ``seed``."""
    return mix64((seed & _MASK64) ^ mix64(fnv1a64(label.encode("utf-8"))))


class RandomSource:
    """Seedable SplitMix64 stream.

    All randomness in the package flows through this class (or through the
    compiled kernels, which replay the identical sequence from the same
    seed). Child streams come from ``derive_seed``, never from a stream.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 significant bits."""
        return (self.next_u64() >> 11) * _TWO_NEG53

    def next_bit(self) -> int:
        """Fair bit (the top bit of the next word)."""
        return self.next_u64() >> 63


class _Uniforms(list):
    """Stub rng: its undrawn uniforms, next last; next_float pops one, IndexError past them.

    The import-time proofs run a public operation on it at chosen uniforms.
    """

    __slots__ = ()

    def __init__(self, *us: float):
        super().__init__(reversed(us))

    next_float = list.pop


#: the least and the greatest value RandomSource.next_float returns
_U_ENDS = (0.0, 1.0 - 2.0**-53)


def _float_threshold(p: float) -> int:
    """t such that next_float() < p exactly when next_float() * 2**53 < t.

    Thresholds are in next_float()'s own unit, 2**-53: next_float() is
    (w >> 11) * 2**-53 for the word w behind it, exact, so it is below p
    exactly when the integer w >> 11 is below p * 2**53 (exact for a float p),
    that is below t = ceil(p * 2**53). For p in [0, 1], 0 <= t <= 2**53.
    """
    return math.ceil(p * 2**53)
