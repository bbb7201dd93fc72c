"""Superdense coding: encoding table, channel states, deterministic roundtrip."""

import itertools

import pytest

from entmac import _kernels, cli, superdense
from entmac._kernels import pure
from entmac.qubit import BellIndex, bell_state
from entmac.rng import RandomSource
from entmac.superdense import (
    BITS_PER_USE,
    Dibit,
    channel_state_after_encoding,
    encode,
    roundtrip,
    simulate,
)

from _support import ADVERSARIAL_UNIFORMS, CountingRng, ScriptedRng, inner, script_words

ALL_DIBITS = [Dibit(a1, a2) for a1 in (0, 1) for a2 in (0, 1)]


def test_encode_table():
    assert encode(Dibit(0, 0)).tag == "I"
    assert encode(Dibit(0, 1)).tag == "Z"
    assert encode(Dibit(1, 0)).tag == "X"
    assert encode(Dibit(1, 1)).tag == "iY"


def test_dibit_validation():
    with pytest.raises(ValueError):
        Dibit(2, 0)
    with pytest.raises(ValueError):
        Dibit(0, "1")


@pytest.mark.parametrize("d", ALL_DIBITS)
def test_channel_state_is_matching_bell_state(d):
    got = channel_state_after_encoding(d)
    want = bell_state(BellIndex(d.a1, d.a2))
    for g, w in zip(got.amps, want.amps):
        assert abs(g - w) <= 1e-12


def test_beta11_sign_convention():
    # encoded 11 must be (|01> - |10>)/sqrt(2), not its negative
    amps = channel_state_after_encoding(Dibit(1, 1)).amps
    assert amps[1].real > 0 and amps[2].real < 0


def test_encoding_is_bijective_onto_bell_basis():
    states = [channel_state_after_encoding(d) for d in ALL_DIBITS]
    for i, s1 in enumerate(states):
        for j, s2 in enumerate(states):
            ip = abs(inner(s1.amps, s2.amps))
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-12


@pytest.mark.parametrize("d", ALL_DIBITS)
def test_roundtrip_with_adversarial_draws(d):
    # outcome may not depend on the uniform draw in any way
    for u in ADVERSARIAL_UNIFORMS:
        assert roundtrip(d, ScriptedRng(floats=[u])) == d


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_roundtrip_seeded_trials(seed):
    rng = RandomSource(seed)
    for _ in range(1000):
        for d in ALL_DIBITS:
            assert roundtrip(d, rng) == d


def test_roundtrip_consumes_exactly_one_uniform():
    stub = ScriptedRng(floats=[0.3])
    roundtrip(Dibit(1, 0), stub)
    assert stub._floats == []


def test_trial_successes_replays_roundtrip():
    # per trial the chunk kernel reads the words roundtrip consumes on a dibit
    # of two next_bit draws: the two bits, then the Bell uniform
    rng = CountingRng(RandomSource(31))
    replayed = 0
    for _ in range(200):
        d = Dibit(rng.next_bit(), rng.next_bit())
        replayed += roundtrip(d, rng) == d
    assert superdense.trial_successes(200, 31) == replayed == 200
    assert (rng.bit_calls, rng.float_calls) == (2 * 200, 200)


@pytest.mark.parametrize("k", range(4))
def test_trial_reads_two_dibit_words_and_skips_the_third(monkeypatch, k):
    # trial t carries the dibit t mod 4 in its first two words and an
    # all-ones third word, the Bell uniform: a trial that read any word but
    # its own first two would shift every later trial's dibit
    words = []
    for t in range(12):
        words += [(t >> 1 & 1) << 63, (t & 1) << 63, 2**64 - 1]
    script_words(monkeypatch, words, 0)
    monkeypatch.setattr(superdense, "_SD_OK", tuple(int(i == k) for i in range(4)))
    assert superdense.trial_successes(12, 0) == 3


@pytest.mark.parametrize("k", range(4))
def test_trial_successes_reads_each_trials_dibit(monkeypatch, k):
    # with only the dibit A1 A2 = k marked decodable, the kernel counts the
    # trials whose replayed dibit is k
    monkeypatch.setattr(superdense, "_SD_OK", tuple(int(i == k) for i in range(4)))
    rng = RandomSource(77)
    hits = 0
    for _ in range(400):
        d = Dibit(rng.next_bit(), rng.next_bit())
        roundtrip(d, rng)
        hits += 2 * d.a1 + d.a2 == k
    assert superdense.trial_successes(400, 77) == hits
    assert 0 < hits < 400


@pytest.mark.parametrize("table, histograms", [((1, 1, 1, 1), 0), ((0, 1, 0, 0), 16)],
                         ids=["sound", "one-hot"])
def test_a_run_reads_the_dibit_words_only_when_the_table_is_not_constant(
        monkeypatch, capsys, table, histograms):
    # a sound engine's table counts every trial a success whatever its words; a broken one
    # makes each of the 16 chunks of the run read its dibit words
    calls, histogram = [], pure._histogram

    def counting_histogram(*args):
        calls.append(args)
        return histogram(*args)

    monkeypatch.setattr(_kernels, "_fast", None)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(pure, "_histogram", counting_histogram)
    monkeypatch.setattr(superdense, "_SD_OK", table)
    assert cli.main(["superdense", "--slots", "1000000"]) == 0
    capsys.readouterr()
    assert len(calls) == histograms


def test_every_encoded_dibit_decodes_in_the_table():
    assert superdense._SD_OK == (1, 1, 1, 1)


def test_throughput_constant():
    assert BITS_PER_USE == 2


def test_simulate_success_rate_is_exactly_one():
    stats = simulate(5000, RandomSource(9))
    assert stats.n == 5000
    assert stats.mean == 1.0
    assert stats.variance == 0.0
    assert stats.ci95 == (1.0, 1.0)


def test_simulate_rejects_empty_run():
    with pytest.raises(ValueError):
        simulate(0, RandomSource(1))


def test_all_dibit_pairs_distinct():
    # sanity on the alphabet itself
    assert len(set(ALL_DIBITS)) == 4
    assert set(itertools.product((0, 1), repeat=2)) == {(d.a1, d.a2) for d in ALL_DIBITS}
