"""Pure vs compiled kernels: bit-for-bit stream and tally parity.

The pure kernels are the reference semantics, so equality here pins the
compiled evaluator and the dispatchers' compiled branches to them exactly.
When the package was installed without its compiled kernel, ``_fast.c`` is
built into a temporary directory by ``entmac._kernels.build``, with every
warning an error; the module skips only when there is no C compiler with
the Python headers. The build script itself is checked here too: run by
its path, it replaces a kernel that cannot load.
"""

import hashlib
import importlib.util
import math
import os
import shutil
import signal
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entmac import _kernels, aloha, cli, hyperdense, superdense
from entmac._kernels import build, pure
from entmac._records import MAX_INDEX, Program
from entmac.aloha import AlohaParams, simulate as aloha_simulate
from entmac.campaign import PROTOCOLS, compare
from entmac.hyperdense import CoinPairSource, QubitPairSource, simulate as hd_simulate
from entmac.rng import _BIT_THRESHOLD, _GOLDEN, RandomSource

from _support import WEIGHTS, WIDTH_PROGRAMS, layouts, seed_for_word

CHUNK = _kernels.CHUNK_SLOTS

#: c's threshold in the hyperdense program of each built-in source
C_THRESHOLD = {"qubit": hyperdense._QUBIT_C_THRESHOLD, "coin": _BIT_THRESHOLD}


@pytest.fixture(scope="session")
def compiled_module(tmp_path_factory):
    """The compiled kernel: the installed one, else one built from _fast.c."""
    if _kernels._fast is not None:
        return _kernels._fast
    target = tmp_path_factory.mktemp("fast") / "_fast.so"
    try:
        build.build(target, flags=("-Wall", "-Wextra", "-Werror"))
    except FileNotFoundError as err:
        pytest.skip(str(err))
    spec = importlib.util.spec_from_file_location("entmac._kernels._fast", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def compiled(compiled_module, monkeypatch):
    """Route the dispatchers to the compiled kernel for the length of a test."""
    monkeypatch.setattr(_kernels, "_fast", compiled_module)
    return compiled_module


SEEDS = [0, 1, 42, 999, 2**64 - 1]


def first_draw(histogram, seed):
    """w >> 11 of the first word from seed, by bisection on a one-threshold program.

    A slot counts exactly when its word's w >> 11 reaches the threshold, so the
    largest threshold it reaches is w >> 11 itself; 2**53 is reached by no word.
    """
    low, high = 0, 2**53
    while high - low > 1:
        mid = (low + high) // 2
        if histogram(1, seed, (mid,), (1,), (0,), 1)[1]:
            low = mid
        else:
            high = mid
    return low


def test_the_compiled_kernel_exports_only_histogram(compiled):
    assert [name for name in dir(compiled) if not name.startswith("_")] == ["histogram"]


@pytest.mark.parametrize("seed", SEEDS)
def test_u64_stream_parity(compiled, seed):
    # word j from seed is word 0 from seed + j * golden. The low 11 bits of a word reach no
    # output of the compiled kernel, so w >> 11 is all there is to compare
    rng = RandomSource(seed)
    draws = [first_draw(compiled.histogram, (seed + j * _GOLDEN) % 2**64) for j in range(256)]
    assert draws == [rng.next_u64() >> 11 for _ in range(256)]


#: a threshold t in next_float's unit, so 0, 2**52 and 2**53 among them; None
#: puts it on the first slot's own word w, t = w >> 11, where w >> 11 >= t
#: and w >> 11 > t part
THRESHOLDS = st.one_of(st.sampled_from([0, 2**52, 2**53, None]), st.integers(0, 2**53))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(program=st.integers(1, 10).flatmap(lambda k: st.tuples(
           st.lists(THRESHOLDS, min_size=k, max_size=k),
           st.lists(WEIGHTS, min_size=k, max_size=k),
           layouts(k))),
       seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)))
# groups of 8 blocks of one-byte indices and of 4 blocks of two-byte ones
@example(program=WIDTH_PROGRAMS[1], seed=0)
@example(program=WIDTH_PROGRAMS[2], seed=2**64 - 1)
def test_compiled_histogram_matches_the_pure_evaluator(compiled, program, seed):
    thresholds, weights, (offsets, period) = program
    rng = RandomSource(seed)
    first_slot = [rng.next_u64() for _ in range(period)]
    thresholds = tuple(first_slot[o] >> 11 if t is None else t
                       for t, o in zip(thresholds, offsets))
    program = thresholds, tuple(weights), offsets, period
    # the pure evaluator converts the indices of a group of 8 // width blocks at once: end a
    # run on a group boundary and one slot either side
    group = 8 // max(1, -(-sum(weights).bit_length() // 8)) * pure._SLOTS
    for n_slots in (0, 1, group - 1, group, group + 1, CHUNK):
        assert (compiled.histogram(n_slots, seed, *program)
                == pure._histogram(n_slots, seed, *program)), n_slots


#: every distinct threshold of the protocols' programs at the paper's and some awkward (m, p)
PROGRAM_THRESHOLDS = sorted({t for program in (
    *(aloha._program(m, p) for m, p in ((2, 1 / 2), (8, 1 / 8), (3, 0.3), (3, 1 / 3))),
    hyperdense._program(QubitPairSource()), hyperdense._program(CoinPairSource()),
    superdense._program()) for t in program.thresholds})


def boundary_words(t):
    """(word, one-threshold histogram at t of the slot that reads it) at the edges of t.

    A slot counts exactly when its word w has w >> 11 >= t, so (t << 11) - 1 gives
    [1, 0] and t << 11 gives [0, 1]. For t a multiple of 2**22 the pure evaluator
    compares the word before mix64's last step, z, and the two words whose z sits
    either side of that edge, w = z ^ z >> 31, count as w >> 11 >= t says.
    """
    words = [((t << 11) - 1, [1, 0]), (t << 11, [0, 1])]
    if t % (1 << 22) == 0:
        words += [(w, [1, 0] if w >> 11 < t else [0, 1])
                  for w in (z ^ z >> 31 for z in ((t << 11) - 1, t << 11))]
    return words


def test_program_thresholds_cover_the_boundary_cases():
    assert {2**50, 2**52 - 1, _BIT_THRESHOLD, math.ceil(0.3 * 2**53),
            math.ceil(2**53 / 3)} == set(PROGRAM_THRESHOLDS)
    # next_bit flips where a read at _BIT_THRESHOLD does, at the word 2**63
    for w, bit in (((_BIT_THRESHOLD << 11) - 1, 0), (_BIT_THRESHOLD << 11, 1)):
        assert RandomSource(seed_for_word(w)).next_bit() == bit


@pytest.mark.parametrize("evaluator", ["pure", "compiled"])
@pytest.mark.parametrize("t", PROGRAM_THRESHOLDS)
def test_words_at_a_threshold_count_on_each_side(compiled, evaluator, t):
    histogram = pure._histogram if evaluator == "pure" else compiled.histogram
    for w, counts in boundary_words(t):
        seed = seed_for_word(w)
        assert RandomSource(seed).next_u64() == w
        assert histogram(1, seed, (t,), (1,), (0,), 1) == counts, hex(w)


def test_each_read_of_the_qubit_program_counts_the_words_at_its_own_threshold(compiled):
    # reads 0 and 1 (A1, B1) have thresholds that are multiples of 2**22 and the c read's is
    # not, so the pure evaluator runs mix64's last step on the c read alone
    program = hyperdense._program(QubitPairSource())
    assert [t % (1 << 22) != 0 for t in program.thresholds] == [False, False, True]
    for t, o in zip(program.thresholds, program.offsets):
        for w in ((t << 11) - 1, t << 11):
            # word o of the stream seeded s is word 0 of the one seeded s + o * GOLDEN
            seed = (seed_for_word(w) - o * _GOLDEN) % 2**64
            rng = RandomSource(seed)
            words = [rng.next_u64() for _ in range(program.period)]
            assert words[o] == w
            index = sum(weight for t_i, weight, o_i in
                        zip(program.thresholds, program.weights, program.offsets)
                        if words[o_i] >> 11 >= t_i)
            counts = [int(i == index) for i in range(sum(program.weights) + 1)]
            for histogram in (pure._histogram, compiled.histogram):
                assert histogram(1, seed, *program[:4]) == counts, (o, hex(w))


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("m,p", [(1, 1.0), (2, 0.5), (3, 1 / 3), (5, 0.0), (4, 0.999),
                                 (8, 0.125)])
def test_aloha_tally_parity(seed, m, p):
    assert pure.aloha_tally(m, p, CHUNK, seed) == _kernels.aloha_tally(m, p, CHUNK, seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 31337])
@pytest.mark.parametrize("source_cls,c_source", [(QubitPairSource, "qubit"),
                                                 (CoinPairSource, "coin")])
def test_hyperdense_tally_parity(seed, source_cls, c_source):
    assert hyperdense._program(source_cls()).thresholds[-1] == C_THRESHOLD[c_source]
    assert (pure.hyperdense_tally(CHUNK, seed, source_cls())
            == _kernels.hyperdense_tally(CHUNK, seed, source_cls()))


@pytest.mark.parametrize("seed", [1, 2, 3, 31337])
def test_superdense_tally_parity(monkeypatch, seed):
    assert _kernels.superdense_tally(CHUNK, seed) == CHUNK
    # _SD_OK is all ones, so a one-hot table counts the trials of each dibit
    for k in range(4):
        monkeypatch.setattr(superdense, "_SD_OK", tuple(int(i == k) for i in range(4)))
        assert superdense.trial_successes(CHUNK, seed) == _kernels.superdense_tally(CHUNK, seed), k


def test_golden_tallies():
    # the pure pins of test_golden.py, through the compiled dispatchers
    assert _kernels.aloha_tally(2, 0.5, 10_000, 12345) == 5009
    assert _kernels.hyperdense_tally(10_000, 999, QubitPairSource()) == (2441, 2568, 2518, 2473)
    assert _kernels.hyperdense_tally(10_000, 999, CoinPairSource()) == (2356, 2521, 2562, 2561)
    for seed, tally in ((999, (16335, 16460, 16282, 16459)), (12345, (16475, 16209, 16404, 16448)),
                        (7, (16444, 16246, 16340, 16506))):
        assert _kernels.hyperdense_tally(CHUNK, seed, QubitPairSource()) == tally
    assert superdense.count_successes(10_000, RandomSource(999)) == 10_000
    text = compare(16_384, 42).render("text")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "d15f34ed33ac59dc777ea6dd9ed6bdab79d78ff09172011809b15765c06bd728"
    )


def test_simulate_results_identical_across_backends(monkeypatch, compiled):
    def run_all():
        return (aloha_simulate(AlohaParams(2, 0.5), 100_000, RandomSource(5)),
                hd_simulate(50_000, RandomSource(6), source=QubitPairSource()),
                superdense.count_successes(100_000, RandomSource(7)))

    monkeypatch.setattr(_kernels, "_fast", None)
    pure_aloha, pure_hd, pure_sd = run_all()
    monkeypatch.setattr(_kernels, "_fast", compiled)
    fast_aloha, fast_hd, fast_sd = run_all()
    assert pure_aloha == fast_aloha
    assert pure_hd.total == fast_hd.total
    assert pure_hd.channel_counts == fast_hd.channel_counts
    assert pure_sd == fast_sd


def test_aloha_with_many_users_is_identical_across_backends(monkeypatch, compiled):
    # 300 users: the pure evaluator spreads its indices over two-byte lanes,
    # and the compiled loop sizes 300 thresholds, 300 weights and 301 counts
    # from the program
    params = AlohaParams(300, 1 / 300)
    program = aloha._program(300, 1 / 300)
    assert sum(program.weights) > 255
    monkeypatch.setattr(_kernels, "_fast", None)
    pure_stats = aloha_simulate(params, 10_000, RandomSource(8))
    monkeypatch.setattr(_kernels, "_fast", compiled)
    assert aloha_simulate(params, 10_000, RandomSource(8)) == pure_stats


BAD_CALLS = {
    # the compiled kernel's own checks
    "negative-n": ("histogram", (-1, 1, (0,), (1,), (0,), 1), ValueError),
    "t53-negative": ("histogram", (10, 1, (-1,), (1,), (0,), 1), OverflowError),
    "c-threshold-above-2**53": ("histogram", (10, 1, (2**52, 2**52, 2**53 + 1), (4, 2, 1),
                                              (0, 2, 4), 6), ValueError),
    "weight-negative": ("histogram", (10, 1, (0, 0), (1, -1), (0, 1), 2), OverflowError),
    "weights-sum-too-large": ("histogram", (10, 1, (0, 0), (2**59, 2**59), (0, 1), 2),
                              OverflowError),
    "period-negative": ("histogram", (10, 1, (0,), (1,), (0,), -1), ValueError),
    "offset-negative": ("histogram", (10, 1, (0,), (1,), (-1,), 1), OverflowError),
    "offsets-not-rising": ("histogram", (10, 1, (0, 0), (1, 1), (1, 1), 2), ValueError),
    "offset-at-the-period": ("histogram", (10, 1, (0,), (1,), (4,), 4), ValueError),
    "more-offsets-than-thresholds": ("histogram", (10, 1, (0,), (1,), (0, 1), 2), ValueError),
    "more-thresholds-than-weights": ("histogram", (10, 1, (0, 0), (1,), (0, 1), 2), ValueError),
    "more-weights-than-thresholds": ("histogram", (10, 1, (0,), (1, 1), (0,), 1), ValueError),
    "empty-program": ("histogram", (10, 1, (), (), (), 0), ValueError),
    "thresholds-not-a-sequence": ("histogram", (10, 1, None, (1,), (0,), 1), TypeError),
    "weights-not-a-sequence": ("histogram", (10, 1, (0,), 1, (0,), 1), TypeError),
    "offsets-not-a-sequence": ("histogram", (10, 1, (0,), (1,), 0, 1), TypeError),
    "histogram-seed-above-64-bits": ("histogram", (10, 2**64, (0,), (1,), (0,), 1),
                                     OverflowError),
    # the same checks, reached through a dispatcher's program
    "aloha-m-0": ("aloha_tally", (0, 0.5, 10, 1), ValueError),
    "aloha-m-negative": ("aloha_tally", (-1, 0.5, 10, 1), ValueError),
    "aloha-negative-n": ("aloha_tally", (2, 0.5, -1, 1), ValueError),
    "aloha-threshold-above-2**53": ("aloha_tally", (2, 1.5, 10, 1), ValueError),
    "aloha-threshold-negative": ("aloha_tally", (2, -0.5, 10, 1), OverflowError),
    "hyperdense-negative-n": ("hyperdense_tally", (-1, 1, CoinPairSource()), ValueError),
    "superdense-negative-n": ("superdense_tally", (-1, 1), ValueError),
    # superdense's table is constant, so its fold checks the seed without a histogram
    "superdense-seed-above-64-bits": ("superdense_tally", (10, 2**64), OverflowError),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_compiled_rejects_out_of_range_input(compiled, case):
    name, args, error = BAD_CALLS[case]
    with pytest.raises(error):
        getattr(_kernels if name.endswith("_tally") else compiled, name)(*args)


#: histogram arguments outside what a word program allows, and the one
#: exception type both evaluators raise for them
BAD_PROGRAMS = {
    "threshold-above-2**53": ((10, 1, (2**53 + 1,), (1,), (0,), 1), ValueError),
    "threshold-negative": ((10, 1, (-5,), (1,), (0,), 1), OverflowError),
    "threshold-above-64-bits": ((10, 1, (2**64,), (1,), (0,), 1), OverflowError),
    "threshold-not-an-int": ((10, 1, (0.5,), (1,), (0,), 1), TypeError),
    "thresholds-not-a-sequence": ((10, 1, None, (1,), (0,), 1), TypeError),
    # the count, then the period, then the thresholds, the weights and the offsets come
    # before a later argument's type
    "count-negative-thresholds-not-a-sequence": ((-1, 1, None, (1,), (0,), 1), ValueError),
    "period-negative-weights-not-a-sequence": ((10, 1, (0,), None, (0,), -1), ValueError),
    "threshold-negative-weights-not-a-sequence": ((10, 1, (-1,), None, (0,), 1), OverflowError),
    "weight-negative-offsets-not-a-sequence": ((10, 1, (0,), (-1,), None, 1), OverflowError),
    "offset-negative-no-weights": ((10, 1, (0,), (), (-1,), 1), OverflowError),
    "no-thresholds": ((10, 1, (), (), (), 1), ValueError),
    "more-thresholds-than-weights": ((10, 1, (0, 0), (1,), (0, 1), 2), ValueError),
    "more-weights-than-thresholds": ((10, 1, (0,), (1, 1), (0,), 1), ValueError),
    "more-offsets-than-thresholds": ((10, 1, (0,), (1,), (0, 1), 2), ValueError),
    "fewer-offsets-than-thresholds": ((10, 1, (0, 0), (1, 1), (0,), 2), ValueError),
    "weight-negative": ((10, 1, (0, 0), (1, -1), (0, 1), 2), OverflowError),
    "weight-above-the-index-bound": ((10, 1, (0,), (2**62,), (0,), 1), ValueError),
    "weights-sum-too-large": ((10, 1, (0, 0), (2**59, 2**59), (0, 1), 2), OverflowError),
    # the offsets come before the weights' sum
    "offsets-not-rising-weights-sum-too-large": ((10, 1, (0, 0), (2**59, 2**59), (1, 0), 2),
                                                 ValueError),
    "offsets-repeated": ((10, 1, (0, 0), (1, 1), (1, 1), 3), ValueError),
    "offset-at-the-period": ((10, 1, (0, 0), (1, 1), (0, 3), 3), ValueError),
    "offset-above-64-bits": ((10, 1, (0,), (1,), (2**64,), 1), OverflowError),
    "offset-not-an-int": ((10, 1, (0,), (1,), (0.0,), 1), TypeError),
    "period-zero": ((10, 1, (0,), (1,), (0,), 0), ValueError),
    "period-negative": ((10, 1, (0,), (1,), (0,), -1), ValueError),
    "period-not-an-int": ((10, 1, (0,), (1,), (0,), 1.0), TypeError),
    "count-negative": ((-1, 1, (0,), (1,), (0,), 1), ValueError),
    "seed-negative": ((10, -1, (0,), (1,), (0,), 1), OverflowError),
    "seed-above-64-bits": ((10, 2**64, (0,), (1,), (0,), 1), OverflowError),
}


@pytest.mark.parametrize("case", sorted(BAD_PROGRAMS))
@pytest.mark.parametrize("evaluator", ["pure", "compiled"])
def test_both_evaluators_reject_a_bad_program_alike(compiled, evaluator, case):
    args, error = BAD_PROGRAMS[case]
    histogram = pure._histogram if evaluator == "pure" else compiled.histogram
    with pytest.raises(error) as err:
        histogram(*args)
    assert type(err.value) is error


#: a program whose table names counter 2 for every index, as superdense's names counter 1
CONSTANT = Program((_BIT_THRESHOLD,) * 2, (2, 1), (0, 1), 3, (2,) * 4, 3)


def no_histogram(*args):
    raise AssertionError("a constant table is folded without a histogram")


@pytest.mark.parametrize("n_slots", [0, 1, CHUNK])
def test_a_constant_table_is_folded_without_a_histogram(n_slots):
    assert pure._tally(no_histogram, n_slots, 5, CONSTANT) == [0, 0, n_slots]


#: a chunk's count and seed that the compiled kernel rejects, and the exception type
BAD_CHUNKS = {
    "count-negative": ((-1, 1), ValueError),
    "count-above-ssize_t": ((sys.maxsize + 1, 1), OverflowError),
    "count-not-an-int": ((10.0, 1), TypeError),
    "seed-above-64-bits": ((10, 2**64), OverflowError),
}


@pytest.mark.parametrize("case", sorted(BAD_CHUNKS))
def test_the_fold_of_a_constant_table_rejects_a_bad_chunk_as_the_kernel_does(compiled, case):
    args, error = BAD_CHUNKS[case]
    for reject in (lambda: compiled.histogram(*args, *CONSTANT[:4]),
                   lambda: pure._tally(no_histogram, *args, CONSTANT)):
        with pytest.raises(error) as err:
            reject()
        assert type(err.value) is error


#: values that neither evaluator takes for an int
NOT_INTS = st.sampled_from([0.5, float(2**52), "1", None, b"\x01"])
#: counts (n_slots and period) that are negative, beyond a C ssize_t or no int
BAD_COUNTS = st.one_of(st.integers(max_value=-1), st.integers(min_value=sys.maxsize + 1),
                       NOT_INTS)
BAD_SEEDS = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64), NOT_INTS)
#: weights that are negative, above the largest index _fast.histogram counts, not 64-bit
#: or no int
BAD_WEIGHTS = st.one_of(st.integers(max_value=-1), st.integers(MAX_INDEX + 1, 2**64 - 1),
                        st.integers(min_value=2**64), NOT_INTS)
BAD_THRESHOLDS = st.one_of(st.integers(2**53 + 1, 2**64 - 1), st.integers(max_value=-1),
                           st.integers(min_value=2**64), NOT_INTS)
#: offsets that are negative, not 64-bit or no int
BAD_OFFSETS = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64), NOT_INTS)


def replace_one(data, values, bad):
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(bad)


def too_heavy(data, args):
    """Every weight at the largest index, and at least two of them: their sum is too large."""
    if len(args["weights"]) == 1:
        args["thresholds"].append(0)
        args["weights"].append(0)
        args["offsets"].append(args["period"])
        args["period"] += 1
    args["weights"][:] = [MAX_INDEX] * len(args["weights"])


def disorder(data, args):
    """An offset at or below the one before it, or the last one at or past the period."""
    offsets = args["offsets"]
    at = data.draw(st.integers(0, len(offsets) - 1))
    if at == 0:
        offsets[-1] = args["period"] + data.draw(st.integers(0, 3))
    else:
        offsets[at] = offsets[at - 1] - data.draw(st.integers(0, offsets[at - 1]))


def uneven(data, args):
    """One threshold, weight or offset more than the other two have."""
    args[data.draw(st.sampled_from(["thresholds", "weights", "offsets"]))].append(0)


#: each turns a good program's arguments into a bad one, in this order; none undoes another
FAULTS = {
    "weights-sum": too_heavy,
    "offset-order": disorder,
    "threshold": lambda data, args: replace_one(data, args["thresholds"], BAD_THRESHOLDS),
    "weight": lambda data, args: replace_one(data, args["weights"], BAD_WEIGHTS),
    "offset": lambda data, args: replace_one(data, args["offsets"], BAD_OFFSETS),
    "count": lambda data, args: args.update(count=data.draw(BAD_COUNTS)),
    "period": lambda data, args: args.update(period=data.draw(BAD_COUNTS)),
    "seed": lambda data, args: args.update(seed=data.draw(BAD_SEEDS)),
    "lengths": uneven,
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), k=st.integers(1, 4),
       faults=st.sets(st.sampled_from(sorted(FAULTS)), min_size=1))
def test_both_evaluators_reject_a_drawn_bad_program_alike(compiled, data, k, faults):
    # both check count, seed, period, the thresholds, the weights, the offsets, their
    # lengths, the offsets' order and the weights' sum in that order, so the first fault
    # decides the exception of each
    offsets, period = data.draw(layouts(k))
    args = {"count": data.draw(st.integers(0, 100)),
            "seed": data.draw(st.integers(0, 2**64 - 1)),
            "thresholds": data.draw(st.lists(st.integers(0, 2**53), min_size=k, max_size=k)),
            "weights": data.draw(st.lists(st.integers(0, 31), min_size=k, max_size=k)),
            "offsets": list(offsets), "period": period}
    for name, fault in FAULTS.items():
        if name in faults:
            fault(data, args)
    program = (tuple(args["thresholds"]), tuple(args["weights"]), tuple(args["offsets"]),
               args["period"])
    call = (args["count"], args["seed"], *program)
    with pytest.raises((TypeError, ValueError, OverflowError)) as fast:
        compiled.histogram(*call)

    def no_work(*_):
        raise AssertionError("the pure evaluator mixed words of a bad program")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pure, "_mix", no_work)
        with pytest.raises((TypeError, ValueError, OverflowError)) as ref:
            pure._histogram(*call)
    assert type(ref.value) is type(fast.value)
    if faults - {"count", "seed"}:
        # the program's own fault raises where it is built, before any table check, as the
        # compiled loop raises it for a good count and seed
        with pytest.raises((TypeError, ValueError, OverflowError)) as fast:
            compiled.histogram(0, 0, *program)
        with pytest.raises((TypeError, ValueError, OverflowError)) as built:
            Program(*program, (0,), 1)
        assert type(built.value) is type(fast.value)


#: tables that do not fold the histogram of the program ((2**52, 2**52), (2, 1), (0, 1), 2),
#: whose indices are 0 .. 3, into a tally of size 2
BAD_TABLES = {
    "entry-negative": (0, 1, 1, -1),
    "entry-equal-to-size": (0, 1, 2, 1),
    "entry-a-bool": (0, True, 1, 0),
    "entry-a-float": (0, 1.0, 1, 0),
    "one-entry-too-many": (0, 1, 1, 0, 0),
    "one-entry-too-few": (0, 1, 1),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_a_program_rejects_a_bad_table_where_it_is_built(compiled, case):
    with pytest.raises(ValueError, match="table"):
        Program((2**52, 2**52), (2, 1), (0, 1), 2, BAD_TABLES[case], 2)
    # the same program with a good table builds, and folds on either backend
    program = Program([2**52, 2**52], [2, 1], [0, 1], 2, [0, 1, 1, 0], 2)
    assert program == ((2**52, 2**52), (2, 1), (0, 1), 2, (0, 1, 1, 0), 2)
    for histogram in (pure._histogram, compiled.histogram):
        assert sum(pure._tally(histogram, 100, 1, program)) == 100


@pytest.mark.parametrize("args", [
    (100, 3, (0,), (1,), (0,), 1),
    (100, 3, [2**53, 0], [1, 2], [0, 1], 2),
    (100, 3, (2**53,) * 3, (1,) * 3, (0, 1, 2), 5),
    (100, 3, (2**52,) * 2, (1, 2), (3, 7), 8),
    (100, 3, (2**52,), (1,), (2**63 - 2,), 2**63 - 1),
    (0, 2**64 - 1, (2**52,), (1,), (0,), 1),
], ids=["t-0", "lists-and-t-2**53", "unread-tail", "unread-gaps", "largest-period", "empty-run"])
def test_both_evaluators_accept_the_extreme_programs_alike(compiled, args):
    assert pure._histogram(*args) == compiled.histogram(*args)


def test_both_evaluators_read_iterator_arguments_alike(compiled):
    def args():
        return 10, 1, iter((2**52, 2**52)), iter((2, 1)), iter((0, 2)), 3

    assert (pure._histogram(*args()) == compiled.histogram(*args())
            == pure._histogram(10, 1, (2**52, 2**52), (2, 1), (0, 2), 3))


def test_compiled_accepts_the_extreme_thresholds_and_an_empty_run(compiled):
    # t = 0 passes every word and t = 2**53 none
    assert compiled.histogram(100, 3, (0,), (1,), (0,), 1) == [0, 100]
    assert compiled.histogram(100, 3, (2**53,) * 3, (1,) * 3, (0, 1, 2), 3) == [100, 0, 0, 0]
    assert _kernels.aloha_tally(1, 1.0, 100, 3) == 100
    assert _kernels.aloha_tally(3, 0.0, 100, 3) == 0
    assert compiled.histogram(0, 1, (2**53,), (1,), (2,), 3) == [0, 0]


@pytest.fixture(params=["pure", "compiled"])
def either_backend(request, monkeypatch):
    """Each backend in turn: the pure one, then the compiled kernel."""
    if request.param == "pure":
        monkeypatch.setattr(_kernels, "_fast", None)


@pytest.mark.parametrize("source_cls", [QubitPairSource, CoinPairSource])
def test_hyperdense_runs_on_two_processes(either_backend, forks, source_cls):
    n = 2 * CHUNK
    two = hd_simulate(n, RandomSource(4), source=source_cls(), workers=2)
    one = hd_simulate(n, RandomSource(4), source=source_cls())
    assert forks == [1, 0]
    assert two == one


def test_superdense_runs_on_two_processes(either_backend, forks, monkeypatch):
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 16)
    assert superdense.count_successes(100, RandomSource(3), workers=2) == 100
    assert forks == [1]


def test_aloha_runs_on_two_processes(either_backend, forks, monkeypatch):
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 16)
    params = AlohaParams(2, 0.5)
    assert (aloha_simulate(params, 100, RandomSource(3), workers=2)
            == aloha_simulate(params, 100, RandomSource(3)))
    assert forks == [1, 0]


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_a_flagless_cli_run_prints_what_one_process_prints(either_backend, forks, capsys, name):
    # two chunks on two usable CPUs: --workers auto forks one child per chunk run on the pure
    # backend, and none on the compiled one
    argv = [name, "--slots", str(CHUNK + 1), "--seed", "8", "--format", "json"]
    assert cli.main(argv + ["--workers", "1"]) == 0
    lone = capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr() == lone
    runs = len(forks) // 2
    assert forks == [0] * runs + [int(_kernels._fast is None)] * runs


#: forced into a build by ``-include``: a ``_fast`` that aborts the process as it loads
ABORT_ON_LOAD = """#include <stdlib.h>
__attribute__((constructor)) static void abort_on_load(void) { abort(); }
"""


def test_the_build_script_replaces_a_kernel_that_cannot_load(tmp_path):
    # in a copy of the package whose _fast aborts as it loads, importing entmac._kernels
    # dies, and so would a build run as ``-m entmac._kernels.build``; build.py run by its
    # path imports only the standard library, so it replaces that _fast with one that loads
    package = tmp_path / "entmac"
    shutil.copytree(Path(build.__file__).parents[1], package,
                    ignore=shutil.ignore_patterns("_fast*.so", "__pycache__"))
    header = tmp_path / "abort_on_load.h"
    header.write_text(ABORT_ON_LOAD)
    target = package / "_kernels" / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    try:
        build.build(target, flags=("-include", str(header)))
    except FileNotFoundError as err:
        pytest.skip(str(err))
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    no_core = "import resource; resource.setrlimit(resource.RLIMIT_CORE, (0, 0)); "
    assert run("-c", no_core + "import entmac._kernels").returncode == -signal.SIGABRT
    rebuilt = run(str(package / "_kernels" / "build.py"))
    assert rebuilt.returncode == 0, rebuilt.stderr
    assert rebuilt.stdout.strip() == str(target)
    loaded = run("-c", "from entmac._kernels import backend_name; print(backend_name())")
    assert loaded.stdout == "compiled\n", loaded.stderr
