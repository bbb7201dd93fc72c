"""Kernel helpers: the chunk plan, the chunk runner map_chunks, the shape of
each protocol's word program, and the proof the pure kernels' tables rest on."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmac import _kernels, aloha, hyperdense, qubit, superdense
from entmac._kernels import pure
from entmac.qubit import BETA_00, BellIndex, QubitId, TwoQubitState, measure_bell, measure_qubit
from entmac.rng import RandomSource, derive_seed


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


#: the CPU count map_chunks reads, kept before the pools fixture replaces it
usable_cpus = _kernels._usable_cpus


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch, pools):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    for n_chunks, workers in ((10, 1), (2, 2), (10, 3), (3, 1_000_000), (10, 1_000_000)):
        chunk_echo(n_chunks, workers)
    # one chunk per thread at most, and no pool at all for a single thread
    assert pools == [2, 3, 3, 4]


def test_pool_size_without_a_cpu_count(monkeypatch, pools):
    monkeypatch.setattr(_kernels, "_usable_cpus", usable_cpus)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    chunk_echo(8, 8)
    assert pools == []


def test_pool_size_counts_only_the_cpus_this_process_may_run_on(monkeypatch, pools):
    # pinned to one CPU of four, as under `taskset -c 0`
    monkeypatch.setattr(_kernels, "_usable_cpus", usable_cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    chunk_echo(16, 2)
    assert pools == []


def test_pool_size_keeps_two_threads_for_two_chunks_on_two_cpus(monkeypatch, pools):
    # `hyperdense --workers 2` over two 65536-slot chunks
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    chunk_echo(2, 2)
    assert pools == [2]


def test_map_chunks_keeps_plan_order(monkeypatch, pools):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 8)
    plan = _kernels.chunk_plan(RandomSource(5).next_u64(), 33)
    expected = [(count, seed) for seed, count in plan]
    assert [count for count, _ in expected] == [8, 8, 8, 8, 1]
    for workers in (1, 2):
        assert chunk_echo(5, workers) == expected
    assert pools == [2]


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


@pytest.fixture
def no_pool(monkeypatch):
    """Pure backend, 16-slot chunks, and a thread pool that fails if started."""

    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started for GIL-bound chunks")

    monkeypatch.setattr(_kernels, "_fast", None)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", refuse)
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 16)


def test_pure_aloha_starts_no_pool(no_pool):
    params = aloha.AlohaParams(2, 0.5)
    assert (aloha.simulate(params, 100, RandomSource(3), workers=2)
            == aloha.simulate(params, 100, RandomSource(3)))


def test_pure_superdense_starts_no_pool(no_pool):
    assert superdense.count_successes(100, RandomSource(3), workers=2) == 100


@pytest.mark.parametrize("source_cls", [hyperdense.QubitPairSource, hyperdense.CoinPairSource])
def test_pure_hyperdense_starts_no_pool(no_pool, source_cls):
    two = hyperdense.simulate(100, RandomSource(3), source=source_cls(), workers=2)
    one = hyperdense.simulate(100, RandomSource(3), source=source_cls())
    assert two.channel_counts == one.channel_counts


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
    thresholds, weights, skip, table = program
    assert len(thresholds) == len(weights)
    # one table entry per index the histogram counts, each a counter of the tally
    assert len(table) == sum(weights) + 1
    assert all(0 <= entry < size for entry in table)
    # each threshold is in next_float's unit, within the compiled kernel's bound
    assert all(0 <= t <= 2**53 for t in thresholds)


def naive_histogram(n_slots, seed, thresholds, weights, skip):
    """The word program run one next_float at a time."""
    rng = RandomSource(seed)
    counts = [0] * (sum(weights) + 1)
    for _ in range(n_slots):
        counts[sum(w for t, w in zip(thresholds, weights) if rng.next_float() >= t * 2**-53)] += 1
        for _ in range(skip):
            rng.next_u64()
    return counts


THRESHOLDS = st.one_of(st.sampled_from([0, 1, 2**52 - 1, 2**52, 2**53 - 1, 2**53]),
                       st.integers(0, 2**53))
#: weights small enough for one-byte index lanes, and large enough for wider ones
WEIGHTS = st.one_of(st.integers(0, 31), st.integers(0, 2**20))


@settings(max_examples=100, deadline=None)
@given(program=st.integers(1, 10).flatmap(lambda k: st.tuples(
           st.lists(THRESHOLDS, min_size=k, max_size=k),
           st.lists(WEIGHTS, min_size=k, max_size=k))),
       skip=st.integers(0, 2),
       seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
       blocks=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]))
def test_word_program_histogram_matches_a_naive_loop(program, skip, seed, blocks):
    # n_slots falls on and either side of a block boundary of the evaluator
    thresholds, weights = map(tuple, program)
    whole, extra = blocks
    n_slots = whole * pure._block(thresholds, weights, skip).slots + extra
    assert (pure._histogram(n_slots, seed, thresholds, weights, skip)
            == naive_histogram(n_slots, seed, thresholds, weights, skip))


def test_a_slot_longer_than_a_block_gets_a_block_of_its_own():
    thresholds, weights = (1 << 52,) * 600, (1,) * 600
    assert pure._block(thresholds, weights, 2).slots == 1
    for seed in (0, 2**64 - 1):
        assert (pure._histogram(3, seed, thresholds, weights, 2)
                == naive_histogram(3, seed, thresholds, weights, 2))
