"""Pure vs compiled kernels: bit-for-bit stream and tally parity.

The pure kernels are the reference semantics, so equality here pins the
compiled shortcuts to them exactly. When the package was installed without
its compiled kernel, ``_fast.c`` is built into a temporary directory by
``entmac._kernels.build``, with every warning an error; the module skips
only when there is no C compiler with the Python headers.
"""

import hashlib
import importlib.util

import pytest

from entmac import _kernels, superdense
from entmac._kernels import build, pure
from entmac.aloha import AlohaParams, simulate as aloha_simulate
from entmac.campaign import compare
from entmac.hyperdense import CoinPairSource, QubitPairSource, simulate as hd_simulate
from entmac.rng import RandomSource

CHUNK = _kernels.CHUNK_SLOTS

#: the compiled hyperdense kernel's c argument for each built-in source
C_T53 = {"qubit": pure._QUBIT_C_THRESHOLD >> 11, "coin": None}


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


def aloha_t53(p):
    """The compiled Aloha kernel's threshold argument for transmit probability p."""
    return pure._transmit_threshold(p) >> 11


SEEDS = [0, 1, 42, 999, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_u64_stream_parity(compiled, seed):
    rng = RandomSource(seed)
    assert [rng.next_u64() for _ in range(2000)] == compiled.words(seed, 2000)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_stream_parity(compiled, seed):
    # the compiled kernels draw no floats: they compare w >> 11 with an integer
    # threshold, which must decide every draw as next_float() < p does
    rng = RandomSource(seed)
    floats = [rng.next_float() for _ in range(2000)]
    draws = [w >> 11 for w in compiled.words(seed, 2000)]
    assert floats == [d * 2.0**-53 for d in draws]
    for p in (0.0, 1 / 3, 0.5, 0.999, 1.0, floats[0], floats[-1]):
        assert [f < p for f in floats] == [d < aloha_t53(p) for d in draws], p


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("m,p", [(1, 1.0), (2, 0.5), (3, 1 / 3), (5, 0.0), (4, 0.999),
                                 (8, 0.125)])
def test_aloha_tally_parity(compiled, seed, m, p):
    assert pure.aloha_tally(m, p, CHUNK, seed) == compiled.aloha_tally(m, aloha_t53(p), CHUNK,
                                                                       seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 31337])
@pytest.mark.parametrize("source_cls,c_source", [(QubitPairSource, "qubit"),
                                                 (CoinPairSource, "coin")])
def test_hyperdense_tally_parity(compiled, seed, source_cls, c_source):
    assert pure.hyperdense_tally(CHUNK, seed, source_cls()) == compiled.hyperdense_tally(
        CHUNK, seed, pure._OUTCOME, C_T53[c_source]
    )


@pytest.mark.parametrize("seed", [1, 2, 3, 31337])
def test_superdense_tally_parity(compiled, monkeypatch, seed):
    assert compiled.superdense_tally(CHUNK, seed, superdense._SD_OK) == CHUNK
    # _SD_OK is all ones, so a one-hot table counts the trials of each dibit
    for k in range(4):
        table = tuple(int(i == k) for i in range(4))
        monkeypatch.setattr(superdense, "_SD_OK", table)
        assert superdense.trial_successes(CHUNK, seed) == compiled.superdense_tally(
            CHUNK, seed, table), k


def test_golden_tallies(compiled):
    # the pure pins of test_golden.py
    assert compiled.aloha_tally(2, aloha_t53(0.5), 10_000, 12345) == 5009
    assert compiled.hyperdense_tally(10_000, 999, pure._OUTCOME, C_T53["qubit"]) == (
        2441, 2568, 2518, 2473)
    assert compiled.hyperdense_tally(10_000, 999, pure._OUTCOME, None) == (
        2356, 2521, 2562, 2561)
    for seed, tally in ((999, (16335, 16460, 16282, 16459)), (12345, (16475, 16209, 16404, 16448)),
                        (7, (16444, 16246, 16340, 16506))):
        assert compiled.hyperdense_tally(CHUNK, seed, pure._OUTCOME, C_T53["qubit"]) == tally
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


BAD_CALLS = {
    "outcome-table-short": ("hyperdense_tally", (10, 1, pure._OUTCOME[:31], None), ValueError),
    "outcome-table-long": ("hyperdense_tally", (10, 1, pure._OUTCOME + (0,), None), ValueError),
    "outcome-entry-4": ("hyperdense_tally", (10, 1, (4,) * 32, None), ValueError),
    "outcome-entry-negative": ("hyperdense_tally", (10, 1, (-1,) * 32, None), ValueError),
    "outcome-not-a-sequence": ("hyperdense_tally", (10, 1, None, None), TypeError),
    "ok-table-short": ("superdense_tally", (10, 1, (1, 1, 1)), ValueError),
    "ok-entry-2": ("superdense_tally", (10, 1, (1, 1, 1, 2)), ValueError),
    "ok-entry-negative": ("superdense_tally", (10, 1, (1, -1, 1, 1)), ValueError),
    "aloha-threshold-above-2**53": ("aloha_tally", (2, 2**53 + 1, 10, 1), ValueError),
    "aloha-threshold-negative": ("aloha_tally", (2, -1, 10, 1), OverflowError),
    "c-threshold-above-2**53": ("hyperdense_tally", (10, 1, pure._OUTCOME, 2**53 + 1),
                                ValueError),
    "aloha-m-0": ("aloha_tally", (0, 2**52, 10, 1), ValueError),
    "aloha-m-negative": ("aloha_tally", (-1, 2**52, 10, 1), ValueError),
    "aloha-negative-n": ("aloha_tally", (2, 2**52, -1, 1), ValueError),
    "hyperdense-negative-n": ("hyperdense_tally", (-1, 1, pure._OUTCOME, None), ValueError),
    "superdense-negative-n": ("superdense_tally", (-1, 1, superdense._SD_OK), ValueError),
    "words-negative-n": ("words", (1, -1), ValueError),
    "seed-negative": ("words", (-1, 3), OverflowError),
    "seed-above-64-bits": ("words", (2**64, 3), OverflowError),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_compiled_rejects_out_of_range_input(compiled, case):
    name, args, error = BAD_CALLS[case]
    with pytest.raises(error):
        getattr(compiled, name)(*args)


def test_compiled_accepts_the_extreme_thresholds_and_an_empty_run(compiled):
    assert compiled.aloha_tally(1, aloha_t53(1.0), 100, 3) == 100
    assert compiled.aloha_tally(3, aloha_t53(0.0), 100, 3) == 0
    assert compiled.hyperdense_tally(0, 1, pure._OUTCOME, 2**53) == (0, 0, 0, 0)
    assert compiled.words(3, 0) == []


def test_compiled_hyperdense_runs_on_a_two_thread_pool(pools):
    n = 2 * CHUNK
    two = hd_simulate(n, RandomSource(4), source=CoinPairSource(), workers=2)
    assert pools == [2]
    one = hd_simulate(n, RandomSource(4), source=CoinPairSource())
    assert pools == [2]
    assert two.channel_counts == one.channel_counts


def test_compiled_superdense_runs_on_a_two_thread_pool(pools, monkeypatch):
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 16)
    assert superdense.count_successes(100, RandomSource(3), workers=2) == 100
    assert pools == [2]
