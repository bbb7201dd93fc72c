"""Golden pins of the pure backend: tallies and the headline report, bit for bit.

The pure kernels are the oracle the compiled backend replays, so any change
to the engine or protocol code that moves a floating-point operation or a
random draw shows up here first. test_backends.py pins the compiled kernel
to the same numbers when it is built.
"""

import hashlib

from entmac import superdense
from entmac._kernels import pure
from entmac.campaign import compare
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


def test_golden_superdense_successes():
    assert superdense.count_successes(10_000, RandomSource(999)) == 10_000


def test_golden_compare_report():
    # the same figure the benchmark pins for `entmac compare --slots 16384 --seed 42`
    text = compare(16_384, 42).render("text")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "d15f34ed33ac59dc777ea6dd9ed6bdab79d78ff09172011809b15765c06bd728"
    )
