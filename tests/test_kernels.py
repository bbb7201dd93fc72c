"""Kernel helpers: the chunk plan, the chunk runner map_chunks, the shape of
each protocol's word program, and the proof the pure kernels' tables rest on."""

import errno
import os
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmac import _kernels, aloha, hyperdense, qubit, superdense
from entmac._kernels import pure
from entmac._records import Program
from entmac.qubit import BETA_00, BellIndex, QubitId, TwoQubitState, measure_bell, measure_qubit
from entmac.rng import _GOLDEN, RandomSource, derive_seed

from _support import WEIGHTS, lane_words, layouts


def test_chunk_plan_covers_exactly():
    plan = _kernels.chunk_plan(123, 200_000)
    assert sum(count for _, count in plan) == 200_000
    assert all(count >= 1 for _, count in plan)
    seeds = [seed for seed, _ in plan]
    assert len(set(seeds)) == len(seeds)
    assert _kernels.chunk_plan(123, 200_000) == plan
    chunk = _kernels.CHUNK_SLOTS
    assert _kernels.chunk_plan(123, 2 * chunk + 5) == [
        (derive_seed(123, "chunk:0"), chunk),
        (derive_seed(123, "chunk:1"), chunk),
        (derive_seed(123, "chunk:2"), 5),
    ]
    assert _kernels.chunk_plan(123, 2 * chunk) == plan[:2]


def chunk_echo(n_chunks, workers):
    """Drive an n_chunks run whose chunks return (slot_count, seed)."""
    n_slots = (n_chunks - 1) * _kernels.CHUNK_SLOTS + 1
    return _kernels.map_chunks(lambda count, seed: (count, seed), n_slots, RandomSource(5),
                               workers)


#: the CPU count map_chunks reads, kept before the forks fixture replaces it
usable_cpus = _kernels._usable_cpus


def test_process_count_is_capped_by_chunks_and_cpus(monkeypatch, forks):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    for n_chunks, workers in ((10, 1), (2, 2), (10, 3), (3, 1_000_000), (10, 1_000_000)):
        chunk_echo(n_chunks, workers)
    # one chunk per process at most, and no fork at all for a single process
    assert forks == [0, 1, 2, 2, 3]


def test_process_count_without_a_cpu_count(monkeypatch, forks):
    monkeypatch.setattr(_kernels, "_usable_cpus", usable_cpus)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    chunk_echo(8, 8)
    assert forks == [0]


def test_process_count_counts_only_the_cpus_this_process_may_run_on(monkeypatch, forks):
    # pinned to one CPU of four, as under `taskset -c 0`
    monkeypatch.setattr(_kernels, "_usable_cpus", usable_cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    chunk_echo(16, 2)
    assert forks == [0]


def test_process_count_keeps_two_processes_for_two_chunks_on_two_cpus(monkeypatch, forks):
    # `hyperdense --workers 2` over two 65536-slot chunks
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    chunk_echo(2, 2)
    assert forks == [1]


def test_map_chunks_keeps_plan_order(monkeypatch, forks):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    plan = _kernels.chunk_plan(RandomSource(5).next_u64(), 33)
    expected = [(count, seed) for seed, count in plan]
    assert [count for count, _ in expected] == [8, 8, 8, 8, 1]
    # two shares of three and two chunks, then four shares of two, one, one and one
    for workers in (1, 2, 4):
        assert chunk_echo(5, workers) == expected
    assert forks == [0, 1, 3]


def test_a_result_marshal_cannot_write_is_computed_in_the_parent(monkeypatch, forks):
    # the child fails to write its share, so the parent runs that share itself
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    plan = _kernels.chunk_plan(RandomSource(5).next_u64(), 16)
    assert (_kernels.map_chunks(lambda count, seed: Fraction(seed, count), 16, RandomSource(5), 2)
            == [Fraction(seed, count) for seed, count in plan])
    assert forks == [1]


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_exception_in_a_childs_share_reaches_the_caller(monkeypatch, forks):
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    (_, count), (seed, _) = _kernels.chunk_plan(RandomSource(5).next_u64(), 16)

    def fn(count, chunk_seed):
        if chunk_seed == seed:
            raise LookupError(f"chunk {chunk_seed} of {count} slots")
        return count

    with pytest.raises(LookupError, match=f"^chunk {seed} of {count} slots$"):
        _kernels.map_chunks(fn, 16, RandomSource(5), 2)
    assert forks == [1]
    assert_no_child_is_left()


#: how the parent's own share ends; when it raises, the children are still asleep
PARENT_ENDINGS = {"returns": None, "raises": ValueError, "is-interrupted": KeyboardInterrupt}


@pytest.mark.parametrize("ending", sorted(PARENT_ENDINGS))
def test_no_child_outlives_map_chunks(monkeypatch, forks, ending):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    parent, error = os.getpid(), PARENT_ENDINGS[ending]
    first = _kernels.chunk_plan(RandomSource(5).next_u64(), 24)[0][0]

    def fn(count, seed):
        if os.getpid() != parent and error is not None:
            time.sleep(60)  # outlives the test unless the parent kills it
        if seed == first and error is not None:
            raise error("in the parent's share")
        return count

    start = time.monotonic()
    if error is None:
        assert _kernels.map_chunks(fn, 24, RandomSource(5), 3) == [8, 8, 8]
    else:
        with pytest.raises(error, match="in the parent's share"):
            _kernels.map_chunks(fn, 24, RandomSource(5), 3)
    assert time.monotonic() - start < 30
    assert forks == [2]
    assert_no_child_is_left()


def test_a_fork_that_fails_leaves_no_pipe_or_child(monkeypatch, forks):
    # the second of two forks fails, as under a process limit
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 3)
    fork, pipe, fds = os.fork, os.pipe, []
    error = BlockingIOError(errno.EAGAIN, "fork refused")

    def fork_once():
        if forks[-1]:
            raise error
        return fork()

    def recording_pipe():
        ends = pipe()
        fds.extend(ends)
        return ends

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "pipe", recording_pipe)
    with pytest.raises(BlockingIOError) as raised:
        chunk_echo(3, 3)
    assert raised.value is error
    assert forks == [1] and len(fds) == 4
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert_no_child_is_left()


def test_no_fork_while_another_thread_runs(forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert chunk_echo(2, 2) == chunk_echo(2, 1)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert forks == [0, 0]


def test_no_fork_where_the_os_has_none(monkeypatch, forks):
    monkeypatch.delattr(os, "fork")
    assert chunk_echo(2, 2) == chunk_echo(2, 1)
    assert forks == [0, 0]


@pytest.mark.parametrize("n_chunks, workers, cpus", [(3, 1, 4), (1, 4, 4), (3, 4, 1)],
                         ids=["one-worker", "one-chunk", "one-cpu"])
def test_a_one_process_run_opens_no_pipe_and_forks_nothing(monkeypatch, n_chunks, workers,
                                                           cpus):
    def forbidden():
        raise AssertionError("a one-process run must neither fork nor open a pipe")

    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(os, "pipe", forbidden)
    plan = _kernels.chunk_plan(RandomSource(5).next_u64(), (n_chunks - 1) * 8 + 1)
    assert chunk_echo(n_chunks, workers) == [(count, seed) for seed, count in plan]


def test_map_chunks_rejects_an_empty_run():
    rng = RandomSource(1)
    with pytest.raises(ValueError, match="n_slots must be an integer >= 1, got 0"):
        _kernels.map_chunks(lambda count, seed: 0, 0, rng, 1)
    # the check comes before the run's one draw
    assert rng.next_u64() == RandomSource(1).next_u64()


ENTRY_POINTS = {
    "aloha": lambda n, rng, workers: aloha.simulate(aloha.AlohaParams(2, 0.5), n, rng, workers),
    "hyperdense": lambda n, rng, workers: hyperdense.simulate(
        n, rng, hyperdense.CoinPairSource(), workers),
    "superdense": lambda n, rng, workers: superdense.simulate(n, rng, workers),
}


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("workers", [0, -3, "2", 2.5, True])
def test_map_chunks_rejects_a_bad_worker_count(monkeypatch, backend, entry, workers):
    # a stand-in for the compiled module: the check must fire before any kernel runs
    monkeypatch.setattr(_kernels, "_fast", None if backend == "pure" else object())
    rng = RandomSource(1)
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        ENTRY_POINTS[entry](10, rng, workers)
    # the check comes before the run's one draw
    assert rng.next_u64() == RandomSource(1).next_u64()


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("n_slots", [0, -1, True, 2.0, "3"])
def test_map_chunks_rejects_a_bad_slot_count(monkeypatch, backend, entry, n_slots):
    monkeypatch.setattr(_kernels, "_fast", None if backend == "pure" else object())
    rng = RandomSource(1)
    with pytest.raises(ValueError, match="n_slots must be an integer >= 1"):
        ENTRY_POINTS[entry](n_slots, rng, 1)
    assert rng.next_u64() == RandomSource(1).next_u64()


def test_backend_name_follows_the_compiled_module(monkeypatch):
    monkeypatch.setattr(_kernels, "_fast", None)
    assert _kernels.backend_name() == "pure"
    monkeypatch.setattr(_kernels, "_fast", object())
    assert _kernels.backend_name() == "compiled"


class StubSource:
    """An object with a ``draw``, which is not one of the two pair sources."""

    def draw(self, rng):
        return 0


TALLY_CALLERS = {
    "simulate": lambda source, rng: hyperdense.simulate(10, rng, source),
    "pure.hyperdense_tally": lambda source, rng: _kernels.pure.hyperdense_tally(10, 1, source),
    "_kernels.hyperdense_tally": lambda source, rng: _kernels.hyperdense_tally(10, 1, source),
}


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("caller", sorted(TALLY_CALLERS))
@pytest.mark.parametrize("source_cls", [
    StubSource,
    type("CoinSubclass", (hyperdense.CoinPairSource,), {}),
    type("QubitSubclass", (hyperdense.QubitPairSource,), {}),
], ids=lambda cls: cls.__name__)
def test_only_the_two_built_in_pair_sources_are_accepted(monkeypatch, backend, caller,
                                                         source_cls):
    monkeypatch.setattr(_kernels, "_fast", None if backend == "pure" else object())
    rng = RandomSource(1)
    with pytest.raises(TypeError, match=f"a CoinPairSource, got {source_cls.__name__}"):
        TALLY_CALLERS[caller](source_cls(), rng)
    # simulate checks before the run's one draw
    assert rng.next_u64() == RandomSource(1).next_u64()


def test_independent_of_u_returns_a_result_that_holds_for_every_uniform():
    assert qubit._independent_of_u(measure_bell, BETA_00) == BellIndex(0, 0)
    c, collapsed = measure_qubit(BETA_00, QubitId.A, RandomSource(1))
    assert qubit._independent_of_u(measure_qubit, collapsed, QubitId.B)[0] == c


def test_independent_of_u_rejects_a_measurement_that_depends_on_u():
    with pytest.raises(RuntimeError, match="measure_qubit depends on the uniform"):
        qubit._independent_of_u(measure_qubit, BETA_00, QubitId.A)
    with pytest.raises(RuntimeError, match="measure_bell depends on the uniform"):
        qubit._independent_of_u(measure_bell, TwoQubitState((1, 0, 0, 0)))


#: every program a protocol module states, with the tally size its dispatcher folds it into
PROGRAMS = [
    *(pytest.param(aloha._program(m, p), 2, id=f"aloha-{m}-{p:.3g}")
      for m in (1, 2, 8, 300) for p in (0, 1 / 3, 1 / 2, 1)),
    pytest.param(hyperdense._program(hyperdense.QubitPairSource()), 4, id="hyperdense-qubit"),
    pytest.param(hyperdense._program(hyperdense.CoinPairSource()), 4, id="hyperdense-coin"),
    pytest.param(superdense._program(), 2, id="superdense"),
]


@pytest.mark.parametrize("program,size", PROGRAMS)
def test_each_protocol_program_is_one_both_evaluators_run(program, size):
    # a Program was checked where it was built: thresholds within the compiled kernel's
    # bound, one table entry per index the histogram counts, each a counter of the tally
    assert type(program) is Program
    assert program.size == size


def naive_histogram(n_slots, seed, thresholds, weights, offsets, period):
    """The word program run one next_float at a time, every word of every slot drawn."""
    rng = RandomSource(seed)
    counts = [0] * (sum(weights) + 1)
    for _ in range(n_slots):
        words = [rng.next_float() for _ in range(period)]
        counts[sum(w for t, w, o in zip(thresholds, weights, offsets)
                   if words[o] >= t * 2**-53)] += 1
    return counts


THRESHOLDS = st.one_of(st.sampled_from([0, 1, 2**52 - 1, 2**52, 2**53 - 1, 2**53]),
                       st.integers(0, 2**53))
SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))

#: thresholds at a drawn word's w >> 11: on it and one above, where that word
#: passes and fails; on the multiples of 2**22 either side, the only thresholds
#: with which a block may leave out mix64's last step; and on an odd multiple of
#: 2**21 next to it, the coarsest threshold that reads a bit that step changes
EDGES = {
    "on": lambda t: t,
    "above": lambda t: t + 1,
    "multiple-of-2**22-below": lambda t: t >> 22 << 22,
    "multiple-of-2**22-above": lambda t: (t >> 22) + 1 << 22,
    "odd-multiple-of-2**21": lambda t: (t >> 21 | 1) << 21,
}


@settings(max_examples=100, deadline=None)
@given(program=st.integers(1, 10).flatmap(lambda k: st.tuples(
           st.lists(THRESHOLDS, min_size=k, max_size=k),
           st.lists(WEIGHTS, min_size=k, max_size=k),
           layouts(k))),
       seed=SEEDS,
       blocks=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 7), (7, -1), (7, 1), (8, 0),
                               (8, 1), (16, -1), (17, 3)]))
# a threshold no multiple of 2**22 over a full group of blocks: mix64's last step runs and
# the carries of group positions 5..7 cross lane bits 97..127
@example(program=([2**52 + 1, 3 << 50, 12345], [1, 2, 4], ((0, 1, 2), 4)), seed=2**64 - 1,
         blocks=(8, 0))
# the hyperdense layout: reads at 0, 2 and 4 of six words
@example(program=([2**52, 2**52, 2**52 - 1], [4, 2, 1], ((0, 2, 4), 6)), seed=5, blocks=(8, 1))
def test_word_program_histogram_matches_a_naive_loop(program, seed, blocks):
    # n_slots falls on and either side of a block boundary of the evaluator, and of a
    # group of _GROUP_BLOCKS blocks, whose bits one conversion turns into bytes
    thresholds, weights, (offsets, period) = tuple(program[0]), tuple(program[1]), program[2]
    whole, extra = blocks
    n_slots = whole * pure._block(thresholds, weights, offsets, period).slots + extra
    assert (pure._histogram(n_slots, seed, thresholds, weights, offsets, period)
            == naive_histogram(n_slots, seed, thresholds, weights, offsets, period))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(1, 10), coarse=st.booleans(), seed=SEEDS)
def test_word_program_histogram_matches_a_naive_loop_at_drawn_words(data, k, coarse, seed):
    # each threshold sits at the word read i reads in the first slot, in the slot after
    # it or in the first slot of the second block; ``coarse`` keeps every threshold a
    # multiple of 2**21
    weights = tuple(data.draw(st.lists(WEIGHTS, min_size=k, max_size=k)))
    offsets, period = data.draw(layouts(k))
    slots = pure._block((0,) * k, weights, offsets, period).slots
    rng = RandomSource(seed)
    stream = [rng.next_u64() for _ in range((slots + 1) * period)]
    edges = sorted(name for name in EDGES if "multiple" in name or not coarse)
    thresholds = tuple(
        EDGES[data.draw(st.sampled_from(edges))](
            stream[data.draw(st.sampled_from([0, 1, slots])) * period + offset] >> 11)
        for offset in offsets)
    assert (pure._histogram(slots + 1, seed, thresholds, weights, offsets, period)
            == naive_histogram(slots + 1, seed, thresholds, weights, offsets, period))


@pytest.mark.parametrize("top", [pure._COUNT_PASSES - 1, pure._COUNT_PASSES])
def test_histogram_counts_alike_on_either_side_of_the_count_pass_bound(top):
    # below the bound a chunk is counted one bytes.count pass per index, from it on by one
    # Counter; words of weights 1, 2, 4, .. and the rest reach every index 0..top
    powers = [1 << i for i in range(top.bit_length() - 1)]
    weights = (*powers, top - sum(powers))
    thresholds = (2**52,) * len(weights)
    offsets = tuple(range(len(weights)))
    for n_slots in (1, 3000):
        assert (pure._histogram(n_slots, 11, thresholds, weights, offsets, len(weights))
                == naive_histogram(n_slots, 11, thresholds, weights, offsets, len(weights)))


def test_a_slot_longer_than_a_block_gets_a_block_of_its_own():
    thresholds, weights, offsets = (1 << 52,) * 600, (1,) * 600, tuple(range(600))
    assert pure._block(thresholds, weights, offsets, 602).slots == 1
    for seed in (0, 2**64 - 1):
        assert (pure._histogram(3, seed, thresholds, weights, offsets, 602)
                == naive_histogram(3, seed, thresholds, weights, offsets, 602))


@pytest.mark.parametrize("k,skip", [(1, 0), (2, 0), (2, 1), (3, 2), (8, 0), (600, 2)])
def test_contiguous_offsets_give_the_block_constants_of_a_skip(k, skip):
    # reads at 0 .. k - 1 of k + skip words: lane s k + i holds word s (k + skip) + i, as it
    # did when a program read k words and then skipped ``skip``, so such a program (every
    # Aloha program among them) runs the same lanes and steps as before offsets
    thresholds, weights = (1 << 52,) * k, (1,) * k
    block = pure._block(thresholds, weights, tuple(range(k)), k + skip)
    slots = max(1, pure._BLOCK_WORDS // k)
    steps = sum(((s * (k + skip) + i) * _GOLDEN % 2**64) << 128 * (s * k + i)
                for s in range(slots) for i in range(k))
    assert (block.slots, block.lanes, block.steps) == (slots, slots * k, steps)
    assert block.advance == sum((slots * (k + skip) * _GOLDEN % 2**64) << 128 * lane
                                for lane in range(slots * k))


@pytest.mark.parametrize("program,reads", [
    pytest.param(hyperdense._program(hyperdense.QubitPairSource()), 3, id="hyperdense-qubit"),
    pytest.param(hyperdense._program(hyperdense.CoinPairSource()), 3, id="hyperdense-coin"),
    pytest.param(aloha._program(8, 0.125), 8, id="aloha-8"),
    pytest.param(superdense._program(), 2, id="superdense"),
])
def test_the_pure_evaluator_mixes_only_the_words_a_program_reads(monkeypatch, program, reads):
    # every lane _mix gets holds a read word: word o_i of each slot the blocks run, each once
    assert len(program.offsets) == reads
    seed, mixed = 2**64 - 3, []

    def recording_mix(counters, low64, tail):
        mixed.extend(lane_words(counters, low64, seed))
        return mix(counters, low64, tail)

    mix = pure._mix
    monkeypatch.setattr(pure, "_mix", recording_mix)
    block = pure._block(program.thresholds, program.weights, program.offsets, program.period)
    pure._histogram(3 * block.slots, seed, program.thresholds, program.weights,
                    program.offsets, program.period)
    assert mixed == [s * program.period + o for s in range(3 * block.slots)
                     for o in program.offsets]
