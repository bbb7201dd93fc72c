"""Acceptance suite: one test per release criterion, each printed as a
PASS line with its runtime (run with -s to see them inline).

Tolerances are fixed here, not tuned: exact equality for enumerations and
closed forms, 10 derived standard errors for the 10^6-slot Monte Carlo
means, 5 standard errors for the 10^5-trial frequency checks.
"""

import csv
import io
import itertools
import math
import time

from entmac import aloha, hyperdense, superdense
from entmac.campaign import CampaignConfig, compare, enumerate_table, run_campaign
from entmac.hyperdense import ChannelState, PartyBits, SharedOutcome, run_slot
from entmac.qubit import BellIndex, QubitId, bell_state, measure_qubit
from entmac.rng import RandomSource

from _support import grid_argmax_throughput, enum_user_success_probability


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(criterion, detail, timer, limit):
    print(f"PASS criterion {criterion}: {detail} [{timer.elapsed:.2f}s < {limit:.0f}s]")
    assert timer.elapsed < limit


def test_criterion_1_exact_scenario_table():
    with Timer() as t:
        rows = list(csv.reader(io.StringIO(enumerate_table("csv"))))[1:]
        channel = [r[6] for r in rows]
        ks = [int(r[8]) for r in rows]
    assert channel == ["Collision", "Unused", "Transm.", "Transm.",
                       "Transm.", "Transm.", "Unused", "Collision"]
    assert ks == [2, 2, 3, 3, 3, 3, 2, 2]
    assert sum(ks) == 20
    report(1, "table channel/K columns exact, sum K = 20", t, 1.0)


def test_criterion_2_analytic_expected_throughput():
    with Timer() as t:
        total = hyperdense.expected_bits_analytic()
        per_direction = hyperdense.expected_bits_per_direction()
    assert total == 2.5
    assert per_direction["alice_to_bob"] == 1.25
    assert per_direction["bob_to_alice"] == 1.25
    report(2, "expected bits 2.5 total, 1.25 per direction, exact", t, 1.0)


def test_criterion_3_monte_carlo_hyperdense():
    with Timer() as t:
        result = run_campaign(CampaignConfig(protocol="hyperdense", n_slots=10**6, seed=42))
    total_err = abs(result.empirical.mean - 2.5)
    ab_err = abs(result.directions["alice_to_bob"].mean - 1.25)
    ba_err = abs(result.directions["bob_to_alice"].mean - 1.25)
    assert total_err < 0.005
    assert ab_err < 0.004
    assert ba_err < 0.004
    report(3, f"10^6 qubit-sourced slots: |mean-2.5|={total_err:.5f}, "
              f"directions {ab_err:.5f}/{ba_err:.5f}", t, 60.0)


def test_criterion_4_superdense_determinism():
    with Timer() as t:
        failures = 0
        for a1, a2 in itertools.product((0, 1), repeat=2):
            d = superdense.Dibit(a1, a2)
            rng = RandomSource(1000 + 2 * a1 + a2)
            for _ in range(10_000):
                if superdense.roundtrip(d, rng) != d:
                    failures += 1
    assert failures == 0
    report(4, "4 dibits x 10^4 statevector roundtrips, success rate 1.0", t, 5.0)


def test_criterion_5_aloha_analytics():
    with Timer() as t:
        assert aloha.max_throughput(2) == 0.5
        for m in range(1, 65):
            grid_best = grid_argmax_throughput(
                lambda mm, pp: aloha.total_throughput(aloha.AlohaParams(mm, pp)), m
            )
            assert abs(grid_best - aloha.optimal_p(m)) <= 1e-4 + 1e-12, m
        limit_gap = abs(aloha.max_throughput(10**6) - math.exp(-1.0))
    assert limit_gap < 1e-6
    report(5, f"max(2)=0.5 exact, argmax grid 1..64 ok, |max(10^6)-1/e|={limit_gap:.2e}", t, 5.0)


def test_criterion_6_aloha_oracle_equivalence():
    with Timer() as t:
        for m in range(1, 9):
            for p in (0.0, 0.2, 1 / 3, 0.5, 0.85, 1.0):
                analytic = aloha.success_probability(aloha.AlohaParams(m, p))
                assert abs(analytic - enum_user_success_probability(m, p)) <= 1e-12
        stats = aloha.simulate(aloha.AlohaParams(2, 0.5), 10**6, RandomSource(606))
        mc_err = abs(stats.mean - 0.5)
    assert mc_err < 0.005
    report(6, f"2^M enumeration match at 1e-12, MC |mean-0.5|={mc_err:.5f}", t, 30.0)


def test_criterion_7_entanglement_correlation():
    with Timer() as t:
        rng = RandomSource(7777)
        n = 10**5
        zeros = 0
        for _ in range(n):
            state = bell_state(BellIndex(0, 0))
            c_a, collapsed = measure_qubit(state, QubitId.A, rng)
            c_b, _ = measure_qubit(collapsed, QubitId.B, rng)
            assert c_a == c_b
            zeros += 1 - c_a
        freq_err = abs(zeros / n - 0.5)
    assert freq_err < 0.008
    report(7, f"10^5 pair measurements all correlated, |freq0-0.5|={freq_err:.5f}", t, 5.0)


def test_criterion_8_decode_correctness_sweep():
    with Timer() as t:
        swap = {"A1": "B1", "A2": "B2", "B1": "A1", "B2": "A2"}
        for a1, a2, b1, b2, c in itertools.product((0, 1), repeat=5):
            alice, bob = PartyBits(a1, a2), PartyBits(b1, b2)
            out = run_slot(alice, bob, SharedOutcome(c))
            truth = {"A1": a1, "A2": a2, "B1": b1, "B2": b2}
            for label, value in {**out.delivered_to_alice, **out.delivered_to_bob}.items():
                assert value == truth[label]
            assert out.k in (2, 3)
            assert (out.k == 3) == (out.channel.state is ChannelState.SINGLE)
            mirrored = run_slot(bob, alice, SharedOutcome(c))
            assert mirrored.k == out.k
            assert mirrored.delivered_to_bob == {
                swap[l]: v for l, v in out.delivered_to_alice.items()
            }
            assert mirrored.delivered_to_alice == {
                swap[l]: v for l, v in out.delivered_to_bob.items()
            }
    report(8, "all 32 slot inputs decode correctly, role swap symmetric", t, 1.0)


def test_criterion_9_reproducibility():
    with Timer() as t:
        for cfg in (
            CampaignConfig(protocol="hyperdense", n_slots=50_000, seed=11),
            CampaignConfig(protocol="aloha", n_slots=50_000, seed=11, m=2),
            CampaignConfig(protocol="compare", n_slots=20_000, seed=11),
        ):
            first = run_campaign(cfg).render("json")
            again = run_campaign(cfg).render("json")
            assert first == again
            sharded = run_campaign(cfg._replace(workers=5)).render("json")
            assert sharded == first
            assert (run_campaign(cfg).render("csv")
                    == run_campaign(cfg._replace(workers=3)).render("csv"))
    report(9, "byte-identical reruns, worker count invisible in output", t, 30.0)


def test_headline_comparison_report():
    with Timer() as t:
        report_obj = compare(n_slots=10**6, seed=42)
    ana = report_obj.analytic
    assert (ana["hyperdense_total"], ana["hyperdense_per_direction"],
            ana["superdense_per_slot"], ana["aloha_m2_total"]) == (2.5, 1.25, 2.0, 0.5)
    assert ana["aloha_limit"] == math.exp(-1.0)
    assert abs(report_obj.hyperdense.total.mean - 2.5) < 0.005
    assert abs(report_obj.hyperdense.alice_to_bob.mean - 1.25) < 0.004
    assert abs(report_obj.hyperdense.bob_to_alice.mean - 1.25) < 0.004
    assert report_obj.superdense_bits.mean == 2.0
    assert abs(report_obj.aloha_m2.mean - 0.5) < 0.005
    text = report_obj.render("text")
    for token in ("2.5 bits/slot", "1.25 per direction", "superdense 2.0", "slotted-Aloha 0.5"):
        assert token in text
    print(f"PASS headline: 2.5 vs 2.0 vs 0.5 reproduced at 10^6 slots "
          f"[{t.elapsed:.2f}s]")
