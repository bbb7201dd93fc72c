"""Pure vs compiled kernels: bit-for-bit stream and tally parity.

The pure kernels compose the public protocol operations, so equality here
pins the compiled shortcuts to the reference semantics exactly.
"""

import pytest

from entmac import _kernels
from entmac._kernels import pure
from entmac.aloha import AlohaParams, simulate as aloha_simulate
from entmac.hyperdense import CoinPairSource, QubitPairSource, simulate as hd_simulate
from entmac.rng import RandomSource

compiled = pytest.importorskip("entmac._kernels._fast")

SEEDS = [0, 1, 42, 999, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_u64_stream_parity(seed):
    rng = RandomSource(seed)
    assert [rng.next_u64() for _ in range(2000)] == compiled.splitmix_stream(seed, 2000)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_stream_parity(seed):
    rng = RandomSource(seed)
    assert [rng.next_float() for _ in range(2000)] == compiled.float_stream(seed, 2000)


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("m,p", [(1, 1.0), (2, 0.5), (3, 1 / 3), (5, 0.0), (4, 0.999)])
def test_aloha_tally_parity(seed, m, p):
    assert pure.aloha_tally(m, p, 30_000, seed) == compiled.aloha_tally(m, p, 30_000, seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 31337])
@pytest.mark.parametrize("source_cls,kind", [(QubitPairSource, "qubit"), (CoinPairSource, "coin")])
def test_hyperdense_tally_parity(seed, source_cls, kind):
    assert pure.hyperdense_tally(30_000, seed, source_cls()) == compiled.hyperdense_tally(
        30_000, seed, kind
    )


def test_golden_tallies():
    # frozen from the pure composition kernels, which test_golden.py pins
    assert compiled.aloha_tally(2, 0.5, 10_000, 12345) == 5009
    assert compiled.hyperdense_tally(10_000, 999, "qubit") == (2441, 2568, 2518, 2473)
    assert compiled.hyperdense_tally(10_000, 999, "coin") == (2356, 2521, 2562, 2561)


def test_simulate_results_identical_across_backends(force_backend):
    force_backend("pure")
    pure_aloha = aloha_simulate(AlohaParams(2, 0.5), 100_000, RandomSource(5))
    pure_hd = hd_simulate(50_000, RandomSource(6), source=QubitPairSource())
    force_backend("compiled")
    fast_aloha = aloha_simulate(AlohaParams(2, 0.5), 100_000, RandomSource(5))
    fast_hd = hd_simulate(50_000, RandomSource(6), source=QubitPairSource())
    assert pure_aloha == fast_aloha
    assert pure_hd.total == fast_hd.total
    assert pure_hd.channel_counts == fast_hd.channel_counts


def test_backend_forcing_and_restore(force_backend):
    assert _kernels.backend_name() in ("pure", "compiled")
    force_backend("pure")
    assert _kernels.backend_name() == "pure"
    force_backend("compiled")
    assert _kernels.backend_name() == "compiled"
    with pytest.raises(ValueError):
        force_backend("turbo")


def test_custom_pair_source_falls_back_to_pure(force_backend):
    class StubSource:
        kind = "stub"

        def __init__(self):
            self.calls = 0

        def draw(self, rng):
            self.calls += 1
            return 0

    force_backend("compiled")
    source = StubSource()
    tally = _kernels.hyperdense_tally(500, 99, source)
    # the compiled path cannot drive a custom source, so it must have been
    # consulted 500 times through the pure composition
    assert source.calls == 500
    assert tally == pure.hyperdense_tally(500, 99, StubSource())


def test_compiled_rejects_unknown_source_kind():
    with pytest.raises(ValueError):
        compiled.hyperdense_tally(10, 1, "dice")
