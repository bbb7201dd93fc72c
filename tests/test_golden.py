"""Golden pins of the pure backend: its tallies, outcome table and superdense count.

The pure kernels are the oracle the compiled backend replays, so any change
to the engine or protocol code that moves a floating-point operation or a
random draw shows up here first. test_backends.py pins the compiled kernel
to the same numbers when it is built. The CLI's output is pinned in
tests/cli_runs.py, every serializer of every subcommand included, and
test_backends.py checks it on both backends.
"""

from entmac import hyperdense, superdense
from entmac._kernels import pure
from entmac.hyperdense import CoinPairSource, QubitPairSource
from entmac.rng import RandomSource


def test_golden_pure_tallies():
    assert pure.aloha_tally(2, 0.5, 10_000, 12345) == 5009
    assert pure.hyperdense_tally(10_000, 999, QubitPairSource()) == (2441, 2568, 2518, 2473)
    assert pure.hyperdense_tally(10_000, 999, CoinPairSource()) == (2356, 2521, 2562, 2561)


def test_golden_pure_qubit_chunks():
    # full chunks of the qubit-sourced loop, whose c comes from the two
    # measurement words of QubitPairSource.draw
    assert pure.hyperdense_tally(65_536, 999, QubitPairSource()) == (16335, 16460, 16282, 16459)
    assert pure.hyperdense_tally(65_536, 12345, QubitPairSource()) == (16475, 16209, 16404, 16448)
    assert pure.hyperdense_tally(65_536, 7, QubitPairSource()) == (16444, 16246, 16340, 16506)


def test_golden_outcome_table():
    # the table every hyperdense kernel reads, built at import from run_slot;
    # the engine-built superdense._SD_OK and the c threshold of the qubit program,
    # proved on its first use, are pinned in test_superdense.py and
    # test_hyperdense.py. The outcome of each of
    # the 32 inputs, read as the five-bit number A1 A2 B1 B2 c, is the entry of its
    # (A1, B1, c) in the table, read as the three-bit number A1 B1 c
    full = (
        0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3,
        3, 2, 3, 2, 1, 0, 1, 0, 3, 2, 3, 2, 1, 0, 1, 0,
    )
    assert hyperdense._OUTCOME == (0, 1, 2, 3, 3, 2, 1, 0)
    assert full == tuple(hyperdense._OUTCOME[(i >> 2 & 4) | (i >> 1 & 2) | (i & 1)]
                         for i in range(32))


def test_golden_superdense_successes():
    assert superdense.count_successes(10_000, RandomSource(999)) == 10_000
