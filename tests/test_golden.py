"""Golden pins of the pure backend: tallies and every serializer's output, bit for bit.

The pure kernels are the oracle the compiled backend replays, so any change
to the engine or protocol code that moves a floating-point operation or a
random draw shows up here first. test_backends.py pins the compiled kernel
to the same numbers when it is built.
"""

import hashlib

import pytest

from entmac import hyperdense, superdense
from entmac._kernels import pure
from entmac.campaign import CampaignConfig, compare, enumerate_table, run_campaign
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_compare_report():
    # the same figure the benchmark pins for `entmac compare --slots 16384 --seed 42`
    text = compare(16_384, 42).render("text")
    assert _sha256(text) == "d15f34ed33ac59dc777ea6dd9ed6bdab79d78ff09172011809b15765c06bd728"


_TABLE_SHA256 = {
    "text": "7dfd392abdd54a8b3d4fb08942490c98e3a93da6aec0e379b7277aafe2723ffb",
    "csv": "add9fbcfb576c41dc53b5ba440132fa5aa58b4c748501ea4446b296a8bbbcd0a",
    "json": "fcafc0a46516eefa23cf8ce7466caaf0246185352a7fbd249ebfc63d6356813c",
}


@pytest.mark.parametrize("fmt", sorted(_TABLE_SHA256))
def test_golden_scenario_table(fmt):
    assert _sha256(enumerate_table(fmt)) == _TABLE_SHA256[fmt]


_COMPARE_SHA256 = {
    "csv": "062def1fa99f3403a15d005825739136736f7e32abd85b5fc875c5c4ccd3ac39",
    "json": "52164a69de6baaf99cabac10230b9b37541b05ccb69a8bf0b1513976a9612893",
}


def test_golden_compare_report_csv_and_json():
    report = compare(16_384, 42)
    assert {fmt: _sha256(report.render(fmt)) for fmt in _COMPARE_SHA256} == _COMPARE_SHA256


# `entmac <protocol> --slots 16384 --seed 42 --format <fmt>` for each protocol
_CAMPAIGN_SHA256 = {
    "aloha": {
        "text": "123d1c9a7806150ff902c075f778b995c9347d2e71da33041d2bd47aa88094f3",
        "csv": "257ba7b8de89af85252744ce44ad4e2482f14fc9f2cd8fe320ab810e804e4473",
        "json": "af5527cb71b8ff53d632d07a212be65f37e3f0a9fbdc5d0f10b54d4ef629eb42",
    },
    "superdense": {
        "text": "a060dc6831d182b47a5990b4bf8bc850064e2a77e71f6327c2592a69cfdc3e02",
        "csv": "8fb4b7ff69e4b4dffdcb2e98535be1c082bce3057038fb5e2d9d8f2430969e01",
        "json": "58f36e9e0bd269cce9d198d876846bc372f3eb983fe8bfc5b0ae3c7237af078e",
    },
    "hyperdense": {
        "text": "d66235369a2c1980908e3bfa68d26266921d48e48198c700b3355d0b0a337883",
        "csv": "498b438af78f63268c644c8ee5c701e4b3fdbe31084ec5b443c6ccc1f8ee4377",
        "json": "e57976b6caad8e95c82790941ecc473c056557b45b97da7675275ccc8f7498e9",
    },
}


@pytest.mark.parametrize("protocol", sorted(_CAMPAIGN_SHA256))
def test_golden_campaign_outputs(protocol):
    result = run_campaign(CampaignConfig(protocol, n_slots=16_384, seed=42))
    expected = _CAMPAIGN_SHA256[protocol]
    assert {fmt: _sha256(result.render(fmt)) for fmt in expected} == expected
