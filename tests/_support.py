"""Shared test helpers: scripted random sources, a per-slot hyperdense replay
and independent oracles.

The oracles here recompute expected values by brute force (pattern
enumeration, explicit tensor products, two-pass statistics, the exact law
of a word program) on purpose; they must stay independent of the library
code paths they check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from entmac._kernels import pure
from entmac.hyperdense import PartyBits, SharedOutcome, run_slot
from entmac.rng import _GOLDEN, RandomSource


class ScriptedRng:
    """Random source stub that replays preset draws."""

    def __init__(self, floats=(), bits=()):
        self._floats = list(floats)
        self._bits = list(bits)

    def next_float(self) -> float:
        return self._floats.pop(0)

    def next_bit(self) -> int:
        return self._bits.pop(0)


#: GOLDEN's inverse mod 2**64: GOLDEN is odd, so a counter maps back to its word number
GOLDEN_INVERSE = pow(_GOLDEN, -1, 1 << 64)


def lane_words(counters, low64, seed) -> list[int]:
    """The stream word j of seed's stream in each 128-bit lane of a block, lane 0 first.

    A lane holds the counter c = seed + (j + 1) * GOLDEN mod 2**64 of word j.
    """
    lanes = counters.to_bytes(low64.bit_length() // 8 + 8, "little")
    return [((int.from_bytes(lanes[at:at + 8], "little") - seed) * GOLDEN_INVERSE - 1) % (1 << 64)
            for at in range(0, len(lanes), 16)]


def script_words(monkeypatch, words, seed) -> None:
    """Make the pure evaluator read ``words[j]`` as word j of seed's stream, 0 past the list.

    The words replace what ``pure._mix`` computes from a block's counters,
    so they go straight to the evaluator's bit and index stage. Each lane's
    counter maps back to the stream word it stands for (``lane_words``): the
    evaluator's own lane map still picks which words a slot reads.
    """
    def mix(counters, low64, tail):
        scripted = 0
        for lane, j in enumerate(lane_words(counters, low64, seed)):
            if j < len(words):
                scripted |= words[j] << 128 * lane
        return scripted

    monkeypatch.setattr(pure, "_mix", mix)


def streams_overlap(streams):
    """The first two of the (seed, words) SplitMix64 streams that share a word, else None.

    Word j of the stream seeded s is mix64(s + (j + 1) * GOLDEN), so in units
    of GOLDEN, x = s * GOLDEN_INVERSE mod 2**64, a stream of W words is the
    arc (x, x + W] of the ring of 2**64 counters. Two streams share a word
    exactly when their arcs meet: sorted by x, each arc must end before the
    next one starts, and the last before the first one's start comes round.
    """
    arcs = sorted((seed * GOLDEN_INVERSE % (1 << 64), words, seed) for seed, words in streams
                  if words)
    if len(arcs) < 2:
        return None
    for (x, words, seed), (y, _, other) in zip(arcs, arcs[1:] + arcs[:1]):
        if (y - x) % (1 << 64) < words:
            return (seed, other)
    return None


class CountingRng:
    """Wraps a real source and counts how many draws of each kind happen."""

    def __init__(self, inner):
        self.inner = inner
        self.float_calls = 0
        self.bit_calls = 0
        self.u64_calls = 0

    def next_float(self) -> float:
        self.float_calls += 1
        return self.inner.next_float()

    def next_bit(self) -> int:
        self.bit_calls += 1
        return self.inner.next_bit()

    def next_u64(self) -> int:
        self.u64_calls += 1
        return self.inner.next_u64()


#: word-program weights small enough for one-byte index lanes, and large enough for wider ones
WEIGHTS = st.one_of(st.integers(0, 31), st.integers(0, 2**20))


def layouts(k: int):
    """(offsets, period) of k reads: 0 to 3 unread words before each read and after the last."""
    def layout(gaps):
        offsets = tuple(sum(gaps[:i + 1]) + i for i in range(k))
        return offsets, offsets[-1] + 1 + gaps[k]

    return st.lists(st.integers(0, 3), min_size=k + 1, max_size=k + 1).map(layout)


# largest float below 1.0 that next_float can produce
MAX_UNIFORM = (2**53 - 1) / 2**53

#: adversarial uniform draws covering the edges of [0, 1)
ADVERSARIAL_UNIFORMS = (0.0, 1e-300, 0.25, 0.5, 0.75, 1.0 - 1e-12, MAX_UNIFORM)


#: chi-square critical values at alpha = 0.001, by degrees of freedom
CHI2_CRITICAL_0_001 = {1: 10.828, 3: 16.266}


def chi_square(observed, expected) -> float:
    """Pearson's statistic: sum of (observed - expected)^2 / expected."""
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected, strict=True))


def law(program) -> list[Fraction]:
    """[P(a slot of ``program`` adds to counter k) for each k < program.size].

    Each read is of its own word, at its own offset, so the reads' bits are
    independent: the index law is the convolution over the reads of bit i,
    worth w_i, being 1 with probability 1 - t_i / 2**53, and a word no
    offset names does not matter. The table then folds it as
    ``pure._tally`` folds a histogram.
    """
    assert len(set(program.offsets)) == len(program.thresholds), "two reads share a word"
    index_law = [Fraction(1)]
    for threshold, weight in zip(program.thresholds, program.weights):
        one = 1 - Fraction(threshold, 2**53)
        step = [Fraction(0)] * (len(index_law) + weight)
        for index, p in enumerate(index_law):
            step[index] += p * (1 - one)
            step[index + weight] += p * one
        index_law = step
    counters = [Fraction(0)] * program.size
    for index, p in enumerate(index_law):
        counters[program.table[index]] += p
    return counters


def enum_user_success_probability(m: int, p: float) -> float:
    """Brute force over all 2^m transmit patterns: P(user 0 alone transmits)."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=m):
        if pattern[0] == 1 and sum(pattern) == 1:
            weight = 1.0
            for t in pattern:
                weight *= p if t else (1.0 - p)
            total += weight
    return total


def enum_total_throughput(m: int, p: float) -> float:
    """Brute force over all 2^m transmit patterns: P(exactly one transmits)."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=m):
        if sum(pattern) == 1:
            weight = 1.0
            for t in pattern:
                weight *= p if t else (1.0 - p)
            total += weight
    return total


def grid_argmax_throughput(total_throughput_fn, m: int, step: float = 1e-4) -> float:
    """Argmax of the throughput function over the grid {0, step, ..., 1}."""
    best_p = 0.0
    best_value = -1.0
    n_points = round(1.0 / step)
    for i in range(n_points + 1):
        p = i * step
        value = total_throughput_fn(m, p)
        if value > best_value:
            best_value = value
            best_p = p
    return best_p


def kron2(u: list[list[complex]], v: list[list[complex]]) -> list[list[complex]]:
    """Tensor product of two 2x2 matrices as an explicit 4x4 matrix."""
    out = [[0j] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = u[i][j] * v[k][l]
    return out


def matvec4(m: list[list[complex]], vec) -> tuple[complex, ...]:
    return tuple(sum(m[i][j] * vec[j] for j in range(4)) for i in range(4))


def inner(u, v) -> complex:
    """<u|v> over 4-amplitude vectors."""
    return sum(a.conjugate() * b for a, b in zip(u, v))


def two_pass_stats(samples: list[float]) -> tuple[float, float]:
    """Reference mean and unbiased variance via fsum in two passes."""
    n = len(samples)
    mean = math.fsum(samples) / n
    if n == 1:
        return mean, 0.0
    variance = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, variance


def replay_hyperdense_slots(n_slots: int, seed: int, source) -> list:
    """Per-slot SlotOutcome records of one hyperdense chunk.

    Draws as the tally kernels do: A1, A2, B1, B2 from the chunk stream, then
    c from ``source``, and runs each slot through the public run_slot.
    """
    rng = RandomSource(seed)
    outcomes = []
    for _ in range(n_slots):
        a1, a2, b1, b2 = rng.next_bit(), rng.next_bit(), rng.next_bit(), rng.next_bit()
        c = source.draw(rng)
        outcomes.append(run_slot(PartyBits(a1, a2), PartyBits(b1, b2), SharedOutcome(c)))
    return outcomes
