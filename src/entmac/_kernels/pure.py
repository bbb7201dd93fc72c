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
program where it is built, so the fold checks only the count and seed of a
chunk it counts without a histogram; ``_histogram`` still rejects raw
arguments as ``_fast.histogram`` does, by the same ``_records.check_program``.

No word is drawn one at a time. SplitMix64 is counter-based: word j (from
0) of the stream seeded s is ``mix64(s + (j + 1) * GOLDEN)``. So a block
of ``_SLOTS`` slots holds one Python int of 128-bit lanes per read: lane s
of read i's int holds the counter of stream word s P + o_i, read i of the
block's slot s, and an unread word is never mixed. A chunk's last block
may run past its last slot; no index of those lanes is counted. Each step of
``mix64`` is one operation on the whole int: a lane's 64-bit value times a
64-bit constant fits in its 128 bits, and masking every lane to its low 64
bits after each step drops the product's high half and the bits a shift
brought in from the next lane.

A block does no work its program does not read. mix64's last step,
w = z ^ z >> 31, changes only bits 0..32 of z. When t is a multiple of
2**22, w >> 11 >= t and w >> 33 >= t >> 22 both say w >= t << 11, and the
second reads only bits 33..63 of w, which equal those of z. So a read whose
threshold is a multiple of 2**22 (its ``tail`` is false) compares z itself
and leaves out that step and its mask, whatever the program's other reads
need. And a program whose table names one counter for every index reads no
word at all: ``_tally`` counts every slot there without a histogram.

A slot's index is summed inside its lane. Read i adds C_i = 2**64 -
(t_i << 11) to each lane of its int, whose word w is in bits 0..63 with the
rest of the lane clear; t_i << 11 is at most 2**64. The sum is below
2**65, and its bit 64 is set exactly when w >= t_i << 11, so masking
every lane to bit 64 leaves read i's bit there. The block adds that
w_i times (a weight of 1 needs no multiply), which leaves each slot's
index in bits 64 and up of its lane, below 2**(64 + 8 width): ``width`` is
the bytes the largest index, sum(weights), needs. A group of
8 // width blocks shifts block b's indices up 8 width b bits and ORs
them into one int, so they stay in their lanes, and one ``to_bytes``
turns the group into bytes: block b's index of slot s is bytes
16 s + 8 + width b onward, ``width`` of them, and at width 1 the slice
[8 + b::16] gives the block's indices, one byte per slot. The indices of
a whole chunk are gathered first and counted once: by one ``bytes.count``
pass per index but the top one, whose count is the rest, when each index
is one byte, else by one ``Counter``.

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

from collections import Counter

from .. import aloha, hyperdense
from .._records import check_count, check_program, check_u64s
from ..rng import _GOLDEN, _MASK64, _MIX1, _MIX2


#: slots per block, one per 128-bit lane of each read's int
_SLOTS = 512

#: ints of _SLOTS 128-bit lanes: 1 in each lane, 2**64 - 1 in each, and s in lane s
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _SLOTS, "little")
_LOW64 = _MASK64 * _ONES
_RAMP = int.from_bytes(b"".join(s.to_bytes(16, "little") for s in range(_SLOTS)), "little")


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


def _histogram(n_slots: int, seed: int, thresholds: tuple[int, ...],
               weights: tuple[int, ...], offsets: tuple[int, ...], period: int) -> list[int]:
    """[number of the n_slots slots of seed's stream with index i for each i <= sum(weights)].

    Runs the word program (thresholds, weights, offsets, period) over blocks of _SLOTS
    slots, one int per read, sums each slot's index in its lane, converts a group of
    blocks at once and counts the chunk's indices once; see the module docstring. Raises what
    ``_fast.histogram`` raises for the same arguments.
    """
    check_count(n_slots, "count")
    check_u64s((seed,), _MASK64, "seed")
    thresholds, weights, offsets = check_program(thresholds, weights, offsets, period)
    top = sum(weights)
    width = max(1, -(-top.bit_length() // 8))
    low64, bit64 = _LOW64, _ONES << 64
    # lane s holds s times a value below 2**64, below 2**73: it stays in its 128 bits
    steps = _RAMP * (period * _GOLDEN & _MASK64) & low64
    advance = (_SLOTS * period * _GOLDEN & _MASK64) * _ONES
    # read i's counters: seed + (s * period + o_i + 1) * GOLDEN mod 2**64 in lane s
    counters = [((seed + (o + 1) * _GOLDEN & _MASK64) * _ONES + steps) & low64 for o in offsets]
    # reads of one threshold share one carry: a wide Aloha program holds one, not m
    carries = {t: ((1 << 64) - (t << 11)) * _ONES for t in set(thresholds)}
    # a read runs mix64's last step only when its own threshold is no multiple of 2**22
    reads = tuple(zip(range(len(offsets)), (carries[t] for t in thresholds), weights,
                      (t % (1 << 22) != 0 for t in thresholds)))
    group_slots = 8 // width * _SLOTS
    chunk = bytearray() if width == 1 else []
    for group in range(0, n_slots, group_slots):
        firsts = range(group, min(n_slots, group + group_slots), _SLOTS)
        indices = 0
        for b in range(len(firsts)):
            index = 0
            for i, carry, weight, tail in reads:
                passed = (_mix(counters[i], low64, tail) + carry) & bit64
                index += passed if weight == 1 else weight * passed
                counters[i] = counters[i] + advance & low64
            indices |= index << 8 * width * b
        raw = indices.to_bytes(16 * _SLOTS, "little")
        for b, first in enumerate(firsts):
            at = 8 + width * b
            end = at + 16 * min(_SLOTS, n_slots - first)
            if width == 1:
                chunk += raw[at:end:16]
            else:
                chunk += [int.from_bytes(raw[j:j + width], "little") for j in range(at, end, 16)]
    if width == 1:
        # the top index, all reads passing, is the most common in Aloha: it is the rest
        counts = [chunk.count(index) for index in range(top)]
        return counts + [n_slots - sum(counts)]
    counts = [0] * (top + 1)
    for index, count in Counter(chunk).items():
        counts[index] = count
    return counts


def _tally(histogram, n_slots: int, seed: int, program) -> list[int]:
    """[number of the n_slots slots whose index has table entry k, for each k < program.size].

    ``histogram`` runs the ``Program``'s thresholds, weights, offsets and period over
    the chunk: ``_histogram`` here, or ``_fast.histogram``, which takes the
    same arguments. This fold is the same on both. When every table entry names
    one counter, every slot adds to it whatever its words, so the fold counts
    n_slots there and calls no ``histogram``; it still rejects the count and
    the seed as ``histogram`` would, with the same exception types.
    ``Program`` checked the rest of the program, table included, where it was
    built.
    """
    counts = [0] * program.size
    if program.table.count(program.table[0]) == len(program.table):
        check_count(n_slots, "count")
        check_u64s((seed,), _MASK64, "seed")
        counts[program.table[0]] = n_slots
        return counts
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
