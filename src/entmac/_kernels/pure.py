"""Pure-Python kernels: the reference the compiled backend must match.

Every kernel runs one word program (thresholds t_0 .. t_{k-1}, weights
w_0 .. w_{k-1}, skip s, table) over its chunk stream: a slot reads k words,
then draws s more it ignores, and its index is the sum of w_i * [word_i >> 11
>= t_i]. A threshold is in ``next_float``'s unit, 2**-53, as
``rng._float_threshold`` states it. ``_histogram`` counts each index over a
chunk's slots, and ``_tally`` folds those counts through the table. Each
protocol module states its own program, built from its public operations
at import, so no kernel calls the statevector engine and neither evaluator
holds a protocol's table or threshold: ``aloha._program``,
``hyperdense._program`` and ``superdense._program``.

No word is drawn one at a time. SplitMix64 is counter-based: word j (from
0) of the stream seeded s is ``mix64(s + (j + 1) * GOLDEN)``. So a block of
``_BLOCK_WORDS`` words is one Python int with one 128-bit lane per word,
word j in bits 128 j .. 128 j + 63, and each step of ``mix64`` is one
operation on the whole int: a lane's 64-bit value times a 64-bit constant
fits in its 128 bits, and masking every lane to its low 64 bits after each
xorshift drops the bits the shift brought in from the next lane. Adding
2**64 - (t_i << 11) to a word's lane (0 to a skipped word's) carries into
bit 64 exactly when word >> 11 >= t_i, so byte 8 of each lane is that
word's bit. Those bytes, spread over lanes as many bytes wide as the largest
index needs and multiplied by the weights read as a polynomial, give each
slot's index in the lane of its last word, and one slice picks them out.

The compiled kernel's one loop, ``_fast.histogram``, takes the same
arguments as ``_histogram`` and runs the same programs a word at a time:
the dispatchers in ``entmac._kernels`` fold its histogram with ``_tally``
too, so the backend-parity tests check this evaluator against an
independent implementation. Tests pin each kernel to a slot-by-slot replay
through the public operations (``tests/test_hyperdense.py``,
``tests/test_superdense.py``, ``tests/test_aloha.py``), which keeps these
kernels the oracle in backend-parity tests.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from typing import NamedTuple

from .. import aloha, hyperdense
from ..rng import _GOLDEN, _MASK64, _MIX1, _MIX2


#: words per block of the evaluator, unless one slot needs more; a block runs whole slots
_BLOCK_WORDS = 512

#: the largest sum(weights) ``_fast.histogram`` takes, PY_SSIZE_T_MAX / sizeof(Py_ssize_t) - 1:
#: it sizes its count array by it
_MAX_INDEX = sys.maxsize // ((sys.maxsize.bit_length() + 1) // 8) - 1


def _check_u64s(values, top: int, name: str) -> None:
    """Raise as ``_fast.histogram`` does for an entry that is not an int in [0, top]."""
    for v in values:
        if not isinstance(v, int):
            raise TypeError(f"{name} must be an int, got {type(v).__name__}")
        if not 0 <= v < 1 << 64:
            raise OverflowError(f"{name} {v} is outside [0, 2**64)")
        if v > top:
            raise ValueError(f"{name} {v} must be <= {top}")


def _check_count(value, name: str) -> None:
    """Raise as ``_fast.histogram`` does for a count that is not an int in [0, sys.maxsize]."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not -sys.maxsize - 1 <= value <= sys.maxsize:
        raise OverflowError(f"{name} {value} does not fit a C ssize_t")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


class _Block(NamedTuple):
    """Per-block constants of one word program."""

    period: int  # words per slot, skipped ones included
    lanes: int  # words per block
    slots: int  # whole slots per block
    width: int  # bytes per index lane
    carry: int  # 2**64 - (t_i << 11) in the lane of each read word, 0 in a skipped one
    weights: int  # w_i in index lane period - 1 - i
    advance: int  # what one block adds to each lane's counter, mod 2**64


@functools.lru_cache(maxsize=32)
def _block(thresholds: tuple[int, ...], weights: tuple[int, ...], skip: int) -> _Block:
    """Constants of the program, by its word period and thresholds; never by table.

    Rejects a program as ``_fast.histogram`` does, with the same exception
    type: a threshold outside [0, 2**53], a negative weight or skip, no
    threshold, a weight count unlike the threshold count, or an index
    (sum of the weights) too large to count.
    """
    _check_count(skip, "skip")
    _check_u64s(thresholds, 1 << 53, "threshold")
    _check_u64s(weights, _MAX_INDEX, "weight")
    if not thresholds or len(thresholds) != len(weights):
        raise ValueError(f"a program needs at least one threshold and one weight per "
                         f"threshold, got {len(thresholds)} and {len(weights)}")
    top = sum(weights)
    if top > _MAX_INDEX:
        raise OverflowError("sum(weights) is too large")
    period = len(thresholds) + skip
    lanes = max(_BLOCK_WORDS, period)
    slots = lanes // period
    width = max(1, -(-top.bit_length() // 8))
    read = [((1 << 64) - (t << 11)).to_bytes(16, "little") for t in thresholds]
    carry = b"".join(read + [bytes(16)] * skip) * slots
    poly = b"".join(w.to_bytes(width, "little") for w in reversed(weights + (0,) * skip))
    advance = (slots * period * _GOLDEN & _MASK64) * _lane_masks(lanes)[1]
    return _Block(period, lanes, slots, width, int.from_bytes(carry, "little"),
                  int.from_bytes(poly, "little"), advance)


@functools.lru_cache(maxsize=4)
def _lane_masks(lanes: int) -> tuple[int, int, int]:
    """(2**64 - 1, 1, j * GOLDEN mod 2**64) in each lane j of ``lanes`` 128-bit lanes."""
    low64 = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    steps = b"".join((j * _GOLDEN & _MASK64).to_bytes(16, "little") for j in range(lanes))
    return low64, ones, int.from_bytes(steps, "little")


def _mix(z: int, low64: int) -> int:
    """``rng.mix64`` of the counter in each 128-bit lane of z, all lanes at once."""
    z = (z ^ z >> 30) & low64
    z = z * _MIX1 & low64
    z = (z ^ z >> 27) & low64
    z = z * _MIX2 & low64
    return (z ^ z >> 31) & low64


def _slot_indices(words: int, n_slots: int, block: _Block):
    """Index of each of the first n_slots slots whose words fill ``words``'s lanes.

    ``words`` holds one word below 2**64 per 128-bit lane, slot 0's first
    word in lane 0, in at most ``block.lanes`` lanes; n_slots is at most
    ``block.slots``. The indices come as bytes when they fit one byte.
    """
    bits = (words + block.carry).to_bytes(16 * block.lanes, "little")[8::16]
    width, period = block.width, block.period
    if width > 1:
        spread = bytearray(width * block.lanes)
        spread[::width] = bits
        bits = spread
    sums = (int.from_bytes(bits, "little") * block.weights).to_bytes(
        width * (block.lanes + period), "little")
    if width == 1:
        return sums[period - 1:period * n_slots:period]
    return [int.from_bytes(sums[at:at + width], "little")
            for at in range(width * (period - 1), width * period * n_slots, width * period)]


def _histogram(n_slots: int, seed: int, thresholds: tuple[int, ...],
               weights: tuple[int, ...], skip: int) -> list[int]:
    """[number of the n_slots slots of seed's stream with index i for each i <= sum(weights)].

    Runs the word program (thresholds, weights, skip) block by block; see
    the module docstring. Raises what ``_fast.histogram`` raises for the
    same arguments.
    """
    _check_count(n_slots, "count")
    _check_u64s((seed,), _MASK64, "seed")
    block = _block(tuple(thresholds), tuple(weights), skip)
    low64, ones, steps = _lane_masks(block.lanes)
    counters = ((seed + _GOLDEN & _MASK64) * ones + steps) & low64
    counts = Counter()
    for first in range(0, n_slots, block.slots):
        counts.update(_slot_indices(_mix(counters, low64), min(block.slots, n_slots - first),
                                    block))
        counters = (counters + block.advance) & low64
    return [counts[index] for index in range(sum(weights) + 1)]


def _tally(histogram, n_slots: int, seed: int, program, size: int = 2) -> list[int]:
    """[number of the n_slots slots whose index has table entry k, for each k < size].

    ``program`` is (thresholds, weights, skip, table); ``histogram`` runs its
    first three over the chunk: ``_histogram`` here, or ``_fast.histogram``,
    which takes the same arguments. This fold is the same on both.
    """
    thresholds, weights, skip, table = program
    counts = [0] * size
    for index, count in enumerate(histogram(n_slots, seed, thresholds, weights, skip)):
        counts[table[index]] += count
    return counts


def aloha_tally(m: int, p: float, n_slots: int, seed: int) -> int:
    """Successful-slot count for one contiguous chunk of an Aloha run."""
    return _tally(_histogram, n_slots, seed, aloha._program(m, p))[1]


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts for one chunk."""
    return tuple(_tally(_histogram, n_slots, seed, hyperdense._program(source), 4))
