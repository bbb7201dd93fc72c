"""Hyperdense coding: send rule, channel resolution, decoding, scenarios,
and the Monte Carlo slot simulation."""

import itertools
import math
import re

import pytest

import entmac.qubit
from entmac import _kernels, hyperdense
from entmac.hyperdense import (
    ChannelObservation,
    ChannelState,
    CoinPairSource,
    DecodedView,
    PairCorrelationError,
    PartyBits,
    Party,
    ProtocolViolationError,
    QubitPairSource,
    SharedOutcome,
    decide_send,
    decode,
    enumerate_scenarios,
    expected_bits_analytic,
    expected_bits_per_direction,
    resolve_channel,
    run_slot,
    simulate,
)
from entmac.qubit import BETA_00, QubitId, measure_probabilities, measure_qubit
from entmac.rng import RandomSource, _float_threshold, derive_seed

from _support import (
    CHI2_CRITICAL_0_001,
    MAX_UNIFORM,
    CountingRng,
    ScriptedRng,
    chi_square,
    law,
    replay_hyperdense_slots,
    script_words,
)

ALL_BITS = (0, 1)


def all_slot_inputs():
    for a1, a2, b1, b2, c in itertools.product(ALL_BITS, repeat=5):
        yield PartyBits(a1, a2), PartyBits(b1, b2), SharedOutcome(c)


# --- send rule -----------------------------------------------------------


def test_decide_send_on_match():
    assert decide_send(PartyBits(0, 1), SharedOutcome(0)) == 1
    assert decide_send(PartyBits(1, 0), SharedOutcome(1)) == 0


def test_decide_send_on_mismatch_is_silent():
    assert decide_send(PartyBits(1, 0), SharedOutcome(0)) is None
    assert decide_send(PartyBits(0, 1), SharedOutcome(1)) is None


def test_decide_send_payload_is_independent_of_match_test():
    for c in ALL_BITS:
        assert decide_send(PartyBits(c, 0), SharedOutcome(c)) == 0
        assert decide_send(PartyBits(c, 1), SharedOutcome(c)) == 1


# --- channel resolution --------------------------------------------------


def test_resolve_channel_collision():
    obs = resolve_channel(1, 0)
    assert obs.state is ChannelState.COLLISION
    assert obs.payload is None and obs.sender is None


def test_resolve_channel_idle():
    assert resolve_channel(None, None).state is ChannelState.IDLE


def test_resolve_channel_single():
    obs = resolve_channel(1, None)
    assert obs == ChannelObservation.single(1, Party.ALICE)
    obs = resolve_channel(None, 0)
    assert obs == ChannelObservation.single(0, Party.BOB)


def test_channel_observation_invariants():
    with pytest.raises(ValueError):
        ChannelObservation(ChannelState.SINGLE)  # payload missing
    with pytest.raises(ValueError):
        ChannelObservation(ChannelState.IDLE, payload=1, sender=Party.ALICE)


# --- decoding ------------------------------------------------------------


def test_decode_collision_gives_peer_first_from_c():
    view = decode(1, SharedOutcome(0), ChannelObservation.collision(), Party.ALICE)
    assert view == DecodedView(peer_first=0, peer_second=None)


def test_decode_idle_inverts_c():
    view = decode(None, SharedOutcome(0), ChannelObservation.idle(), Party.BOB)
    assert view == DecodedView(peer_first=1, peer_second=None)


def test_decode_single_from_peer_delivers_payload():
    obs = ChannelObservation.single(1, Party.ALICE)
    view = decode(None, SharedOutcome(1), obs, Party.BOB)
    assert view == DecodedView(peer_first=1, peer_second=1)


def test_decode_single_from_self_inverts_c():
    obs = ChannelObservation.single(0, Party.ALICE)
    view = decode(0, SharedOutcome(1), obs, Party.ALICE)
    assert view == DecodedView(peer_first=0, peer_second=None)


@pytest.mark.parametrize(
    "own_sent,obs,who",
    [
        (1, ChannelObservation.idle(), Party.ALICE),
        (None, ChannelObservation.collision(), Party.BOB),
        (None, ChannelObservation.single(0, Party.BOB), Party.BOB),
        (1, ChannelObservation.single(1, Party.BOB), Party.ALICE),
    ],
)
def test_decode_rejects_inconsistent_observations(own_sent, obs, who):
    with pytest.raises(ProtocolViolationError):
        decode(own_sent, SharedOutcome(0), obs, who)


@pytest.mark.parametrize("self_id", ["bob", "alice", None, 1])
def test_decode_rejects_a_self_id_that_is_not_a_party(self_id):
    # with "bob" in place of Party.BOB, the channel's credit to Bob would read as the peer's
    # payload and hand Bob's own bit back to him
    obs = ChannelObservation.single(1, Party.BOB)
    with pytest.raises(TypeError, match="self_id must be a Party"):
        decode(None, SharedOutcome(0), obs, self_id)


# --- single slot ---------------------------------------------------------


def test_run_slot_single_transmission_from_alice():
    out = run_slot(PartyBits(0, 1), PartyBits(1, 0), SharedOutcome(0))
    assert out.a_sent == 1 and out.b_sent is None
    assert out.channel == ChannelObservation.single(1, Party.ALICE)
    assert out.k == 3
    assert out.delivered_to_bob == {"A1": 0, "A2": 1}
    assert out.delivered_to_alice == {"B1": 1}


def test_run_slot_collision_for_all_payloads():
    for a2, b2 in itertools.product(ALL_BITS, repeat=2):
        out = run_slot(PartyBits(0, a2), PartyBits(0, b2), SharedOutcome(0))
        assert out.channel.state is ChannelState.COLLISION
        assert out.k == 2
        assert out.delivered_to_bob == {"A1": 0}
        assert out.delivered_to_alice == {"B1": 0}


def test_run_slot_idle_for_all_payloads():
    for a2, b2 in itertools.product(ALL_BITS, repeat=2):
        out = run_slot(PartyBits(1, a2), PartyBits(1, b2), SharedOutcome(0))
        assert out.channel.state is ChannelState.IDLE
        assert out.k == 2
        assert out.delivered_to_bob == {"A1": 1}
        assert out.delivered_to_alice == {"B1": 1}


def test_every_delivered_bit_is_correct_exhaustively():
    # all 32 input combinations: delivered values match the sender's true
    # bits, nothing undeliverable is claimed, K stays in {2, 3}
    for alice, bob, c in all_slot_inputs():
        out = run_slot(alice, bob, c)
        truth = {"A1": alice.first, "A2": alice.second, "B1": bob.first, "B2": bob.second}
        for label, value in {**out.delivered_to_alice, **out.delivered_to_bob}.items():
            assert value == truth[label], (alice, bob, c, label)
        assert set(out.delivered_to_bob) <= {"A1", "A2"}
        assert set(out.delivered_to_alice) <= {"B1", "B2"}
        assert "A1" in out.delivered_to_bob and "B1" in out.delivered_to_alice
        assert out.k in (2, 3)
        assert out.k == len(out.delivered_to_alice) + len(out.delivered_to_bob)
        assert (out.k == 3) == (out.channel.state is ChannelState.SINGLE)


def test_second_bit_arrives_exactly_on_single_transmission():
    for alice, bob, c in all_slot_inputs():
        out = run_slot(alice, bob, c)
        assert ("A2" in out.delivered_to_bob) == (
            out.channel.state is ChannelState.SINGLE and out.channel.sender is Party.ALICE
        )
        assert ("B2" in out.delivered_to_alice) == (
            out.channel.state is ChannelState.SINGLE and out.channel.sender is Party.BOB
        )


def test_role_swap_symmetry():
    swap = {"A1": "B1", "A2": "B2", "B1": "A1", "B2": "A2"}
    for alice, bob, c in all_slot_inputs():
        out = run_slot(alice, bob, c)
        mirrored = run_slot(bob, alice, c)
        assert mirrored.k == out.k
        assert mirrored.channel.state is out.channel.state
        if out.channel.state is ChannelState.SINGLE:
            assert mirrored.channel.sender is not out.channel.sender
            assert mirrored.channel.payload == out.channel.payload
        assert mirrored.delivered_to_bob == {
            swap[label]: v for label, v in out.delivered_to_alice.items()
        }
        assert mirrored.delivered_to_alice == {
            swap[label]: v for label, v in out.delivered_to_bob.items()
        }


def test_party_bits_validation():
    with pytest.raises(ValueError):
        PartyBits(0, 2)
    with pytest.raises(ValueError):
        SharedOutcome(2)


# --- scenario enumeration ------------------------------------------------


def test_scenario_table_channel_and_k_columns():
    scenarios = enumerate_scenarios()
    assert [s.scenario_index for s in scenarios] == list(range(1, 9))
    assert [s.channel.state.table_label for s in scenarios] == [
        "Collision", "Unused", "Transm.", "Transm.", "Transm.", "Transm.", "Unused", "Collision",
    ]
    assert [s.k for s in scenarios] == [2, 2, 3, 3, 3, 3, 2, 2]
    assert sum(s.k for s in scenarios) == 20


def test_scenario_table_row_order_and_details():
    scenarios = enumerate_scenarios()
    assert [(s.alice.first, s.bob.first, s.c) for s in scenarios] == [
        (a1, b1, c) for a1 in (0, 1) for b1 in (0, 1) for c in (0, 1)
    ]
    row1 = scenarios[0]
    assert row1.channel.state is ChannelState.COLLISION and row1.k == 2
    row4 = scenarios[3]
    assert (row4.alice.first, row4.bob.first, row4.c) == (0, 1, 1)
    assert row4.channel.state is ChannelState.SINGLE
    assert row4.channel.sender is Party.BOB
    assert set(row4.delivered_to_bob) == {"A1"}
    assert set(row4.delivered_to_alice) == {"B1", "B2"}
    assert row4.k == 3


def test_rows_3_and_6_deliver_both_first_bits():
    # the single-transmission rows where Alice sends: Bob gets A1 and A2,
    # Alice still learns B1 from the silence
    scenarios = enumerate_scenarios()
    for row in (scenarios[2], scenarios[5]):
        assert row.channel.sender is Party.ALICE
        assert set(row.delivered_to_bob) == {"A1", "A2"}
        assert set(row.delivered_to_alice) == {"B1"}


def test_expected_bits_exact():
    assert expected_bits_analytic() == 2.5
    per_direction = expected_bits_per_direction()
    assert per_direction["alice_to_bob"] == 1.25
    assert per_direction["bob_to_alice"] == 1.25


def test_to_bob_counts_per_row():
    counts = [len(s.delivered_to_bob) for s in enumerate_scenarios()]
    assert counts == [1, 1, 2, 1, 1, 2, 1, 1]
    assert sum(counts) == 10


# --- pair sources --------------------------------------------------------


def test_qubit_pair_source_correlation_and_fairness():
    source = QubitPairSource()
    rng = RandomSource(31337)
    n = 20_000
    zeros = 0
    for _ in range(n):
        # draw raises PairCorrelationError unless both halves measure c
        zeros += 1 - source.draw(rng)
    assert abs(zeros / n - 0.5) <= 5 * 0.5 / math.sqrt(n)


def test_qubit_pair_source_uses_two_single_qubit_measurements(monkeypatch):
    counter = CountingRng(RandomSource(4))

    def forbidden(*args, **kwargs):
        raise AssertionError("joint Bell measurement must not be used for pair sourcing")

    monkeypatch.setattr(entmac.qubit, "measure_bell", forbidden)
    source = QubitPairSource()
    source.draw(counter)
    # one uniform per single-qubit measurement, nothing else
    assert counter.float_calls == 2
    assert counter.bit_calls == 0


def test_qubit_c_threshold_is_the_measurement_boundary():
    threshold = hyperdense._QUBIT_C_THRESHOLD
    p0 = measure_probabilities(BETA_00, QubitId.A)[0]
    assert threshold == 2**52 - 1 == _float_threshold(p0)
    # A's uniform just below and at the threshold, B's at either end
    for t, c in ((threshold - 1, 0), (threshold, 1)):
        for u_b in (0.0, MAX_UNIFORM):
            rng = ScriptedRng(floats=[t * 2**-53, u_b])
            assert QubitPairSource().draw(rng) == c, (t, u_b)


@pytest.mark.parametrize("flipped,error,message", [
    ({QubitId.A}, PairCorrelationError, "half-pair measurements disagree: 1 vs 0"),
    ({QubitId.B}, PairCorrelationError, "half-pair measurements disagree: 0 vs 1"),
    ({QubitId.A, QubitId.B}, RuntimeError, "qubit pair drew 1 from (0.0, 0.0)"),
], ids=["A", "B", "both"])
def test_qubit_c_threshold_rejects_a_pair_that_does_not_give_c_twice(monkeypatch, flipped,
                                                                    error, message):
    # the proof runs draw: A giving 1 at u = 0, or B disagreeing with A, stops the import
    def measure_flipped(state, target, rng):
        c, collapsed = measure_qubit(state, target, rng)
        return (1 - c if target in flipped else c), collapsed

    monkeypatch.setattr(hyperdense, "measure_qubit", measure_flipped)
    with pytest.raises(error, match=re.escape(message)):
        hyperdense._qubit_c_threshold()


def test_qubit_c_threshold_rejects_a_draw_that_leaves_a_uniform(monkeypatch):
    # a draw that measures A alone gives c but leaves the word the program never reads
    def draw_a_only(self, rng):
        return measure_qubit(BETA_00, QubitId.A, rng)[0]

    monkeypatch.setattr(QubitPairSource, "draw", draw_a_only)
    with pytest.raises(RuntimeError, match=re.escape("and left 1 uniform(s)")):
        hyperdense._qubit_c_threshold()


def test_outcome_table_rejects_a_slot_whose_payload_changes_the_channel(monkeypatch):
    # A2 = 1 flips Alice's first bit, so her payload decides whether she transmits and
    # the program could no longer leave A2's word unread
    def run_slot_a2_flips(alice, bob, c):
        return run_slot(PartyBits(alice.first ^ alice.second, alice.second), bob, c)

    monkeypatch.setattr(hyperdense, "run_slot", run_slot_a2_flips)
    with pytest.raises(RuntimeError, match=re.escape(
            "the payload bits change the outcome of the slot (A1, B1, c) = (0, 0, 0)")):
        hyperdense._outcome_table()


def test_a_program_reads_a1_b1_and_c_only():
    for source, period in ((QubitPairSource(), 6), (CoinPairSource(), 5)):
        program = hyperdense._program(source)
        assert (program.offsets, program.period, program.weights) == ((0, 2, 4), period, (4, 2, 1))
        assert program.table == hyperdense._OUTCOME


def test_qubit_pair_source_raises_when_the_halves_disagree(monkeypatch):
    def measure_b_flipped(state, target, rng):
        c, collapsed = measure_qubit(state, target, rng)
        return (1 - c if target is QubitId.B else c), collapsed

    monkeypatch.setattr(hyperdense, "measure_qubit", measure_b_flipped)
    with pytest.raises(PairCorrelationError, match="half-pair measurements disagree"):
        QubitPairSource().draw(RandomSource(1))


def test_qubit_tally_reads_c_at_the_threshold(monkeypatch):
    # A1 = B1 = 0 in both slots: c = 0 collides, c = 1 leaves the slot idle;
    # B's word is never read whatever it holds: a slot that read it would read
    # the next slot's bits off by one
    threshold = hyperdense._QUBIT_C_THRESHOLD << 11
    for b_word in (0, 2**64 - 1):
        script_words(monkeypatch, [0, 0, 0, 0, threshold - 1, b_word,
                                   0, 0, 0, 0, threshold, b_word], 0)
        assert _kernels.pure.hyperdense_tally(2, 0, QubitPairSource()) == (1, 1, 0, 0), b_word


def test_coin_pair_source_is_fair():
    source = CoinPairSource()
    rng = RandomSource(99)
    n = 20_000
    zeros = sum(1 - source.draw(rng) for _ in range(n))
    assert abs(zeros / n - 0.5) <= 5 * 0.5 / math.sqrt(n)


# --- Monte Carlo ---------------------------------------------------------


def _first_chunk_outcome(seed):
    base = RandomSource(seed).next_u64()
    chunk_seed = derive_seed(base, "chunk:0")
    return replay_hyperdense_slots(1, chunk_seed, QubitPairSource())[0], chunk_seed


def test_single_slot_forced_collision_scores_two_bits():
    # find a seed whose first slot is the (A1=0, B1=0, c=0) collision row,
    # then check the simulated mean is exactly 2
    seed = next(
        s
        for s in range(5000)
        if (lambda o: (o.alice.first, o.bob.first, o.c) == (0, 0, 0))(_first_chunk_outcome(s)[0])
    )
    stats = simulate(1, RandomSource(seed))
    assert stats.total.mean == 2.0
    assert stats.channel_counts["collision"] == 1


@pytest.mark.parametrize("source_cls", [QubitPairSource, CoinPairSource])
def test_simulate_tracks_analytic_values(source_cls):
    n = 200_000
    stats = simulate(n, RandomSource(616), source=source_cls())
    assert abs(stats.total.mean - 2.5) <= 10 * 0.5 / math.sqrt(n)
    sigma_dir = math.sqrt(0.1875)  # per-direction values are 1 or 2, P(2) = 1/4
    assert abs(stats.alice_to_bob.mean - 1.25) <= 10 * sigma_dir / math.sqrt(n)
    assert abs(stats.bob_to_alice.mean - 1.25) <= 10 * sigma_dir / math.sqrt(n)


def test_qubit_and_coin_paths_statistically_indistinguishable():
    n = 200_000
    qubit_stats = simulate(n, RandomSource(7001), source=QubitPairSource())
    coin_stats = simulate(n, RandomSource(7002), source=CoinPairSource())
    tolerance = 5 * 0.5 * math.sqrt(2.0 / n)
    assert abs(qubit_stats.total.mean - coin_stats.total.mean) <= tolerance


@pytest.mark.parametrize("source_cls,n", [(CoinPairSource, 1 << 17), (QubitPairSource, 1 << 16)])
def test_channel_counts_fit_uniform_quarters(monkeypatch, source_cls, n):
    # chi-square of collision / idle / single_alice / single_bob against the
    # exact law of the kernel's own program, a quarter each up to the qubit
    # source's 2**-53 bias in c, on the pure kernels (df = 3, alpha = 0.001)
    monkeypatch.setattr(_kernels, "_fast", None)
    source = source_cls()
    counts = simulate(n, RandomSource(2012), source=source).channel_counts
    expected = [n * float(q) for q in law(hyperdense._program(source))]
    statistic = chi_square(counts.values(), expected)
    assert statistic < CHI2_CRITICAL_0_001[3], (counts, statistic)


def test_channel_counts_sum_to_slots():
    n = 50_000
    stats = simulate(n, RandomSource(88))
    assert sum(stats.channel_counts.values()) == n
    n_single = stats.channel_counts["single_alice"] + stats.channel_counts["single_bob"]
    assert stats.total.mean == 2.0 + n_single / n


def test_simulate_rejects_empty_run():
    with pytest.raises(ValueError):
        simulate(0, RandomSource(1))


def test_tally_matches_slot_outcome_log():
    # the coin's c is the top bit of each slot's fifth word, and the qubit
    # pair's c is read before B's word, so both pin the order of the draws
    for source in (CoinPairSource(), QubitPairSource()):
        tally = _kernels.pure.hyperdense_tally(3000, 424242, source)
        outcomes = replay_hyperdense_slots(3000, 424242, source)
        assert tally == (
            sum(1 for o in outcomes if o.channel.state is ChannelState.COLLISION),
            sum(1 for o in outcomes if o.channel.state is ChannelState.IDLE),
            sum(1 for o in outcomes if o.channel.sender is Party.ALICE),
            sum(1 for o in outcomes if o.channel.sender is Party.BOB),
        ), type(source).__name__
