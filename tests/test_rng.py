"""RandomSource: determinism, reference vectors, labelled child seeds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entmac.rng import RandomSource, _float_threshold, derive_seed, fnv1a64, mix64


def test_splitmix64_reference_vector():
    # canonical first outputs of SplitMix64 from state 0
    rng = RandomSource(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_fnv1a64_reference_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_same_seed_same_stream():
    a = RandomSource(987654321)
    b = RandomSource(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_seed_is_masked_to_64_bits():
    wide = RandomSource(2**64 + 5)
    narrow = RandomSource(5)
    assert [wide.next_u64() for _ in range(8)] == [narrow.next_u64() for _ in range(8)]


def test_float_range_and_granularity():
    rng = RandomSource(13)
    values = [rng.next_float() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # 53-bit draws: every value is an exact multiple of 2**-53
    assert all((v * 2.0**53) == int(v * 2.0**53) for v in values)


def test_bits_are_binary_and_roughly_fair():
    rng = RandomSource(14)
    n = 100_000
    ones = sum(rng.next_bit() for _ in range(n))
    assert abs(ones / n - 0.5) < 5 * 0.5 / n**0.5


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "aloha") == derive_seed(42, "aloha")
    labels = ["aloha", "superdense", "hyperdense", "chunk:0", "chunk:1"]
    seeds = {derive_seed(42, label) for label in labels}
    assert len(seeds) == len(labels)
    assert all(0 <= s < 2**64 for s in seeds)


def test_mix64_stays_in_range():
    for z in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= mix64(z) < 2**64


@given(p=st.floats(0.0, 1.0))
def test_float_threshold_is_p_rounded_up_to_next_floats_unit(p):
    # next_float() < p exactly when next_float() * 2**53 < t
    t = _float_threshold(p)
    assert (t - 1) * 2**-53 < p <= t * 2**-53


def test_float_threshold_ends():
    assert _float_threshold(0.0) == 0
    assert _float_threshold(1.0) == 2**53
    assert _float_threshold(5e-324) == 1


@pytest.mark.parametrize("seed", [0, 1, 42, 999, 2**64 - 1])
def test_float_threshold_decides_each_draw_as_next_float_does(seed):
    # the kernels draw no floats: they compare w >> 11 with an integer threshold
    rng = RandomSource(seed)
    floats = [rng.next_float() for _ in range(2000)]
    rng = RandomSource(seed)
    draws = [rng.next_u64() >> 11 for _ in range(2000)]
    assert floats == [d * 2.0**-53 for d in draws]
    for p in (0.0, 1 / 3, 0.5, 0.999, 1.0, floats[0], floats[-1]):
        t = _float_threshold(p)
        assert [f < p for f in floats] == [d < t for d in draws], p
