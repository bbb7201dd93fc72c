"""Pure-Python kernels: the reference the compiled backend must match.

Every kernel runs one word program, a ``_records.Program`` (thresholds
t_0 .. t_{k-1}, weights w_0 .. w_{k-1}, offsets o_0 < .. < o_{k-1}, period
P, table, size), over its chunk stream: slot s is stream words s P ..
s P + P - 1, its read i is the word at offset o_i among them, and its index
is the sum of w_i * [word_i >> 11 >= t_i]. A word no offset names is never
read. A threshold is in ``next_float``'s unit, 2**-53, as
``rng._float_threshold`` states it. ``_histogram`` counts each index over
a chunk's slots, and ``_tally`` folds those counts through the table into
``size`` counters. Each protocol module states its own program, built from
its public operations, so no kernel calls the statevector engine and
neither evaluator holds a protocol's table or threshold: ``aloha._program``,
``hyperdense._program`` and ``superdense._program``. ``Program`` checks a
program where it is built, so the fold checks nothing; ``_histogram`` still
rejects raw arguments as ``_fast.histogram`` does, by the same
``_records.check_program``.

No word is drawn one at a time. SplitMix64 is counter-based: word j (from
0) of the stream seeded s is ``mix64(s + (j + 1) * GOLDEN)``. So a block is
one Python int of 128-bit lanes, one per word the program reads: lane
s k + i holds the counter of stream word s P + o_i, read word i of the
block's slot s, and an unread word is never mixed. Each step of
``mix64`` is one operation on the whole int: a lane's 64-bit value times a
64-bit constant fits in its 128 bits, and masking every lane to its low 64
bits after each step drops the product's high half and the bits a shift
brought in from the next lane.

A block does no work its program does not read. mix64's last step,
w = z ^ z >> 31, changes only bits 0..32 of z. When t is a multiple of
2**22, w >> 11 >= t and w >> 33 >= t >> 22 both say w >= t << 11, and the
second reads only bits 33..63 of w, which equal those of z. So when every
threshold of a program is a multiple of 2**22 (``_Block.tail`` is false),
a block compares z itself and leaves out that step and its mask.

A chunk's blocks go in groups of eight, and one ``to_bytes`` turns a
whole group's bits into bytes. Block b of a group (b = 0..7) adds
C_b = 2**(64 + 8 b) - (t_i << 11) to read word i's lane, whose word w is
in bits 0..63 with the rest of the lane clear; t_i << 11 is at most 2**64.
If w >= t_i << 11, the sum is 2**(64 + 8 b) plus less than 2**64: the
carry out of bit 63 runs through the ones C_b holds in bits
64 .. 64 + 8 b - 1 and sets bit 64 + 8 b. Otherwise the sum is
2**(64 + 8 b) less at most 2**64, below 2**(64 + 8 b), so that bit is
clear. Either way the sum is below 2**121 and stays in its lane. A lane
must be clear above bit 63 for this, and mix64's last step brings the next
lane's bits 0..30 into bits 97..127, where the ones of b >= 5 reach, so
``_mix`` masks after that step too. Masking each sum to bit 64 + 8 b of
every lane and OR-ing the group's eight blocks leaves block b's bits at
byte 8 + b of each lane, so one conversion and the slice [8 + b::16] give
block b's bits, one byte per read word. Those bytes, spread over lanes as
many bytes wide as the largest index needs and multiplied by the weights
read as a polynomial, give each slot's index in the lane of its last read
word, and one slice picks them out. The indices of a whole chunk are
gathered first and counted once: by one ``bytes.count`` pass per index
when there are few, else by one ``Counter``.

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
from collections import Counter
from typing import NamedTuple

from .. import aloha, hyperdense
from .._records import check_count, check_program, check_u64s
from ..rng import _GOLDEN, _MASK64, _MIX1, _MIX2


#: lanes per block, one per read word (an unread word gets none), unless one slot reads more;
#: a block runs whole slots
_BLOCK_WORDS = 512

#: blocks whose bits one ``to_bytes`` converts, one per byte 8..15 of a 128-bit lane
_GROUP_BLOCKS = 8

#: sum(weights) below which a chunk's indices are counted one ``bytes.count`` pass per index;
#: one ``Counter`` pass over the chunk is faster from about 64 indices on when they are
#: uniform, and from about 80 when they are as skewed as Aloha's binomial
_COUNT_PASSES = 64

class _Block(NamedTuple):
    """Per-block constants of one word program."""

    reads: int  # words a slot reads, k
    lanes: int  # read words per block
    slots: int  # whole slots per block
    width: int  # bytes per index lane
    tail: bool  # whether a threshold is no multiple of 2**22, so needs mix64's last step
    low64: int  # 2**64 - 1 in each lane
    ones: int  # 1 in each lane
    steps: int  # (s * period + offset_i) * GOLDEN mod 2**64 in lane s * k + i
    advance: int  # what one block adds to each lane's counter, mod 2**64
    carry: int  # 2**64 - (t_i << 11) in lane s * k + i
    weights: int  # w_i in index lane k - 1 - i


@functools.lru_cache(maxsize=32)
def _block(thresholds: tuple[int, ...], weights: tuple[int, ...], offsets: tuple[int, ...],
           period: int) -> _Block:
    """Constants of the program, by its read words and thresholds; never by table.

    The caller has checked the program with ``_records.check_program``.
    """
    top = sum(weights)
    reads = len(thresholds)
    slots = max(1, _BLOCK_WORDS // reads)
    lanes = slots * reads
    width = max(1, -(-top.bit_length() // 8))
    tail = any(t % (1 << 22) for t in thresholds)
    low64, ones = (int.from_bytes(lane * lanes, "little")
                   for lane in (b"\xff" * 8 + bytes(8), b"\x01" + bytes(15)))
    # the number s * period + offset_i of the stream word in lane s * reads + i, mod 2**64 so
    # that its product with GOLDEN stays in the lane, times GOLDEN
    words = b"".join((s * period + o & _MASK64).to_bytes(16, "little")
                     for s in range(slots) for o in offsets)
    steps = int.from_bytes(words, "little") * _GOLDEN & low64
    carry = b"".join(((1 << 64) - (t << 11)).to_bytes(16, "little") for t in thresholds)
    poly = b"".join(w.to_bytes(width, "little") for w in reversed(weights))
    return _Block(reads, lanes, slots, width, tail, low64, ones, steps,
                  (slots * period * _GOLDEN & _MASK64) * ones,
                  int.from_bytes(carry * slots, "little"), int.from_bytes(poly, "little"))


def _mix(z: int, low64: int, tail: bool) -> int:
    """``rng.mix64`` of the counter in each 128-bit lane of z, all lanes at once.

    Each lane's result is in its bits 0..63, and its other bits are clear.
    Without ``tail`` it is the value before mix64's last step, z ^ z >> 31.
    """
    z = (z ^ z >> 30) & low64
    z = z * _MIX1 & low64
    z = (z ^ z >> 27) & low64
    z = z * _MIX2 & low64
    return (z ^ z >> 31) & low64 if tail else z


def _slot_indices(bits: bytes, n_slots: int, block: _Block):
    """Index of each of the first n_slots slots of a block whose read words gave ``bits``.

    ``bits`` holds one byte per lane of the block, slot 0's first read word
    first: 1 where that word passes its threshold, else 0. n_slots is at
    most ``block.slots``. The indices come as bytes when they fit one byte.
    """
    width, reads = block.width, block.reads
    if width > 1:
        spread = bytearray(width * block.lanes)
        spread[::width] = bits
        bits = spread
    sums = (int.from_bytes(bits, "little") * block.weights).to_bytes(
        width * (block.lanes + reads), "little")
    if width == 1:
        return sums[reads - 1:reads * n_slots:reads]
    return [int.from_bytes(sums[at:at + width], "little")
            for at in range(width * (reads - 1), width * reads * n_slots, width * reads)]


def _histogram(n_slots: int, seed: int, thresholds: tuple[int, ...],
               weights: tuple[int, ...], offsets: tuple[int, ...], period: int) -> list[int]:
    """[number of the n_slots slots of seed's stream with index i for each i <= sum(weights)].

    Runs the word program (thresholds, weights, offsets, period) in groups of blocks and
    counts the chunk's indices once; see the module docstring. Raises what
    ``_fast.histogram`` raises for the same arguments.
    """
    check_count(n_slots, "count")
    check_u64s((seed,), _MASK64, "seed")
    thresholds, weights, offsets = check_program(thresholds, weights, offsets, period)
    block = _block(thresholds, weights, offsets, period)
    low64, tail, advance, ones, slots = (block.low64, block.tail, block.advance, block.ones,
                                         block.slots)
    # block b of a group: C_b, the carry plus ones in lane bits 64 .. 64 + 8b - 1, and the
    # mask of lane bit 64 + 8b, where the sum leaves that block's bits
    runs = [(block.carry + ((1 << 8 * b) - 1 << 64) * ones, ones << 64 + 8 * b)
            for b in range(_GROUP_BLOCKS)]
    counters = ((seed + _GOLDEN & _MASK64) * ones + block.steps) & low64
    chunk = bytearray() if block.width == 1 else []
    for group in range(0, n_slots, _GROUP_BLOCKS * slots):
        firsts = range(group, min(n_slots, group + _GROUP_BLOCKS * slots), slots)
        bits = 0
        for _, (carry, bit) in zip(firsts, runs):
            bits |= (_mix(counters, low64, tail) + carry) & bit
            counters = (counters + advance) & low64
        raw = bits.to_bytes(16 * block.lanes, "little")
        for b, first in enumerate(firsts):
            chunk += _slot_indices(raw[8 + b::16], min(slots, n_slots - first), block)
    top = sum(weights)
    if top < _COUNT_PASSES:
        return [chunk.count(index) for index in range(top + 1)]
    counts = [0] * (top + 1)
    for index, count in Counter(chunk).items():
        counts[index] = count
    return counts


def _tally(histogram, n_slots: int, seed: int, program) -> list[int]:
    """[number of the n_slots slots whose index has table entry k, for each k < program.size].

    ``histogram`` runs the ``Program``'s thresholds, weights, offsets and period over
    the chunk: ``_histogram`` here, or ``_fast.histogram``, which takes the
    same arguments. This fold is the same on both, and it checks nothing:
    ``Program`` checked the table where it was built.
    """
    counts = [0] * program.size
    by_index = histogram(n_slots, seed, program.thresholds, program.weights, program.offsets,
                         program.period)
    for entry, count in zip(program.table, by_index):
        counts[entry] += count
    return counts


def aloha_tally(m: int, p: float, n_slots: int, seed: int) -> int:
    """Successful-slot count for one contiguous chunk of an Aloha run."""
    return _tally(_histogram, n_slots, seed, aloha._program(m, p))[1]


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts for one chunk."""
    return tuple(_tally(_histogram, n_slots, seed, hyperdense._program(source)))
