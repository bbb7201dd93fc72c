"""Campaign harness: config validation, reproducibility, formats, compare."""

import csv
import io
import json
import math
import sys

import pytest

from entmac.campaign import (
    CampaignConfig,
    ConfigError,
    TABLE_CSV_HEADER,
    compare,
    enumerate_table,
    run_campaign,
)
from entmac._kernels import CHUNK_SLOTS, chunk_plan
from entmac.aloha import AlohaParams, run_slot
from entmac.rng import RandomSource, derive_seed


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# --- config validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(protocol="nope"), "protocol"),
        (dict(protocol="aloha", n_slots=0), "n_slots"),
        (dict(protocol="aloha", n_slots=2.5), "n_slots"),
        # above the largest count the compiled kernel takes
        (dict(protocol="aloha", n_slots=sys.maxsize + 1), "n_slots"),
        (dict(protocol="aloha", seed=-1), "seed"),
        (dict(protocol="aloha", seed=2**64), "seed"),
        (dict(protocol="aloha", m=0), "m"),
        (dict(protocol="aloha", p=1.5), "p"),
        (dict(protocol="hyperdense", c_source="dice"), "c_source"),
        (dict(protocol="aloha", m=2.0), "m"),
        # bool subclasses int, so the type checks must exclude it explicitly
        (dict(protocol="aloha", n_slots=True), "n_slots"),
        (dict(protocol="aloha", seed=False), "seed"),
        (dict(protocol="aloha", seed=True), "seed"),
        (dict(protocol="aloha", m=True), "m"),
        (dict(protocol="aloha", p=True), "p"),
        (dict(protocol="aloha", p=False), "p"),
        # an unhashable name must not escape as TypeError from the protocol lookup
        (dict(protocol=["aloha"]), "protocol"),
        *((dict(protocol="aloha", workers=workers), "workers")
          for workers in (0, -1, 2.0, "2", True, False, None)),
        # workers is checked before every other field
        (dict(protocol="nope", seed=-1, workers=0), "workers"),
        # a field the protocol never reads must keep its default
        (dict(protocol="compare", c_source="coin"), "c_source"),
        (dict(protocol="compare", m=5), "m"),
        (dict(protocol="compare", p=0.3), "p"),
        (dict(protocol="superdense", m=9, p=0.5, c_source="coin"), "m"),
        (dict(protocol="superdense", p=0.5), "p"),
        (dict(protocol="hyperdense", m=3), "m"),
        (dict(protocol="hyperdense", p=0.5), "p"),
        (dict(protocol="aloha", c_source="coin"), "c_source"),
    ],
)
def test_config_validation_reports_field(kwargs, field):
    with pytest.raises(ConfigError) as err:
        CampaignConfig(**kwargs)
    assert err.value.field == field
    assert field in str(err.value)


def test_the_largest_slot_count_builds():
    # built, never run: the chunk plan alone would not fit in memory
    assert CampaignConfig("aloha", sys.maxsize).n_slots == sys.maxsize


@pytest.mark.parametrize(
    "render",
    [
        lambda fmt: run_campaign(CampaignConfig(protocol="aloha", n_slots=10)).render(fmt),
        lambda fmt: compare(10, 1).render(fmt),
        enumerate_table,
    ],
    ids=["campaign", "compare", "table"],
)
def test_unknown_format_is_rejected_at_render_time(render):
    # the format is an argument of rendering, not a field of the run's config
    with pytest.raises(ConfigError) as err:
        render("xml")
    assert err.value.field == "output_format"
    assert "output_format" in str(err.value)


def test_config_default_p_is_one_over_m():
    cfg = CampaignConfig(protocol="aloha", m=4)
    assert cfg.resolved_p() == 0.25
    cfg = CampaignConfig(protocol="aloha", m=4, p=0.1)
    assert cfg.resolved_p() == 0.1


# --- campaigns ------------------------------------------------------------


def test_aloha_campaign_analytics_and_silence():
    result = run_campaign(CampaignConfig(protocol="aloha", n_slots=100, seed=1, m=1, p=0.0))
    assert result.analytic["total_throughput"] == 0.0
    assert result.empirical.mean == 0.0


def test_aloha_campaign_reports_formulas():
    result = run_campaign(CampaignConfig(protocol="aloha", n_slots=1000, seed=3, m=2))
    assert result.analytic["success_probability"] == 0.25
    assert result.analytic["total_throughput"] == 0.5
    assert result.analytic["optimal_p"] == 0.5
    assert result.analytic["max_throughput"] == 0.5
    assert result.config["p"] == 0.5


def test_superdense_campaign_is_deterministic():
    result = run_campaign(CampaignConfig(protocol="superdense", n_slots=10_000, seed=5))
    assert result.empirical.mean == 1.0
    assert result.analytic["bits_per_slot"] == 2.0


def test_hyperdense_campaign_shape():
    result = run_campaign(CampaignConfig(protocol="hyperdense", n_slots=20_000, seed=11))
    assert result.analytic["expected_bits_per_slot"] == 2.5
    assert set(result.directions) == {"alice_to_bob", "bob_to_alice"}
    assert 2.0 <= result.empirical.mean <= 3.0
    assert sum(result.channel_counts.values()) == 20_000


def test_hyperdense_coin_source_supported():
    result = run_campaign(
        CampaignConfig(protocol="hyperdense", n_slots=20_000, seed=11, c_source="coin")
    )
    assert abs(result.empirical.mean - 2.5) <= 10 * 0.5 / math.sqrt(20_000)


# --- reproducibility ------------------------------------------------------


@pytest.mark.parametrize("protocol", ["aloha", "superdense", "hyperdense"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_campaign_output_is_byte_identical(protocol, fmt):
    cfg = CampaignConfig(protocol=protocol, n_slots=30_000, seed=2024)
    first = run_campaign(cfg).render(fmt)
    second = run_campaign(cfg).render(fmt)
    assert first == second


@pytest.mark.parametrize("p", [1, 0])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_equal_configs_render_equal_bytes(p, fmt):
    # an int p equals its float, so the two configs are equal and must print the same bytes
    ints, floats = (CampaignConfig("aloha", 1000, 42, m=2, p=q) for q in (p, float(p)))
    assert ints == floats
    assert run_campaign(ints).render(fmt) == run_campaign(floats).render(fmt)


def test_worker_count_does_not_change_output():
    cfg = CampaignConfig(protocol="hyperdense", n_slots=150_000, seed=9)
    lone = run_campaign(cfg).render("json")
    for workers in (2, 4, 7):
        assert run_campaign(cfg._replace(workers=workers)).render("json") == lone


def test_prefix_stability_when_extending_slot_count():
    # chunked labeled seeding: a longer run's chunk plan extends a shorter
    # one's, so the longer campaign replays the shorter one's slot stream as
    # a prefix
    base = RandomSource(derive_seed(77, "aloha")).next_u64()
    short_plan = chunk_plan(base, 100_000)
    long_plan = chunk_plan(base, 200_000)
    assert [seed for seed, _ in long_plan[: len(short_plan)]] == [seed for seed, _ in short_plan]
    assert long_plan[0] == short_plan[0] == (short_plan[0][0], CHUNK_SLOTS)
    assert short_plan[-1][1] < long_plan[len(short_plan) - 1][1] == CHUNK_SLOTS

    params = AlohaParams(2, 0.5)

    def replay(n):
        rng = RandomSource(short_plan[0][0])
        return [run_slot(params, rng).success for _ in range(n)]

    short = run_campaign(CampaignConfig(protocol="aloha", n_slots=100, seed=77, m=2))
    long = run_campaign(CampaignConfig(protocol="aloha", n_slots=200, seed=77, m=2))
    short_slots, long_slots = replay(100), replay(200)
    assert long_slots[:100] == short_slots
    assert short.empirical.mean == sum(short_slots) / 100
    assert long.empirical.mean == sum(long_slots) / 200


def test_protocol_streams_are_independent_labels():
    seeds = {derive_seed(123, name) for name in ("aloha", "superdense", "hyperdense")}
    assert len(seeds) == 3


# --- serialization fidelity ------------------------------------------------


def _flatten_json(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten_json(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _flatten_json(value, f"{prefix}.{i}")
    else:
        yield prefix, obj


@pytest.mark.parametrize("protocol", ["aloha", "superdense", "hyperdense"])
def test_json_and_csv_carry_identical_values(protocol):
    cfg = CampaignConfig(protocol=protocol, n_slots=10_000, seed=31)
    result = run_campaign(cfg)
    parsed = json.loads(result.render("json"))
    rows = parse_csv(result.render("csv"))
    assert rows[0] == ["protocol", "statistic", "value"]
    csv_values = {path: raw for _, path, raw in rows[1:]}
    json_values = dict(_flatten_json(parsed))
    del json_values["protocol"]
    assert set(csv_values) == set(json_values)
    for path, value in json_values.items():
        raw = csv_values[path]
        if isinstance(value, float):
            assert float(raw) == value, path
        elif isinstance(value, int):
            assert int(raw) == value, path
        else:
            assert raw == str(value), path


def test_json_schema_keys():
    cfg = CampaignConfig(protocol="hyperdense", n_slots=2000, seed=47)
    parsed = json.loads(run_campaign(cfg).render("json"))
    assert list(parsed)[:4] == ["protocol", "config", "analytic", "empirical"]
    assert set(parsed["empirical"]) == {"n", "mean", "variance", "std_error", "ci95"}
    assert len(parsed["empirical"]["ci95"]) == 2


def test_csv_uses_lf_line_endings():
    cfg = CampaignConfig(protocol="aloha", n_slots=100, seed=2)
    out = run_campaign(cfg).render("csv")
    assert "\r" not in out
    assert out.endswith("\n")


# --- compare ---------------------------------------------------------------


def test_compare_analytic_column():
    report = compare(n_slots=20_000, seed=42)
    assert report.analytic["hyperdense_total"] == 2.5
    assert report.analytic["hyperdense_per_direction"] == 1.25
    assert report.analytic["superdense_per_slot"] == 2.0
    assert report.analytic["aloha_m2_total"] == 0.5
    assert report.analytic["aloha_limit"] == math.exp(-1.0)


def test_compare_empirical_matches_standalone_campaigns():
    report = compare(n_slots=30_000, seed=4242)
    standalone = run_campaign(CampaignConfig(protocol="hyperdense", n_slots=30_000, seed=4242))
    assert report.hyperdense.total == standalone.empirical
    standalone_aloha = run_campaign(
        CampaignConfig(protocol="aloha", n_slots=30_000, seed=4242, m=2)
    )
    assert report.aloha_m2 == standalone_aloha.empirical


def test_compare_superdense_delivers_two_bits():
    report = compare(n_slots=5000, seed=1)
    assert report.superdense_bits.mean == 2.0
    assert report.superdense_bits.variance == 0.0


def test_compare_text_prints_headline_numbers():
    text = compare(n_slots=5000, seed=1).render("text")
    assert "2.5 bits/slot" in text
    assert "1.25 per direction" in text
    assert "superdense 2.0" in text
    assert "slotted-Aloha 0.5" in text
    assert "1/e" in text


def test_compare_renders_all_formats_deterministically():
    for fmt in ("json", "csv", "text"):
        a = compare(n_slots=4000, seed=3).render(fmt)
        b = compare(n_slots=4000, seed=3).render(fmt)
        assert a == b


def test_run_campaign_dispatches_compare():
    report = run_campaign(CampaignConfig(protocol="compare", n_slots=2000, seed=8))
    assert report.to_json_dict()["protocol"] == "compare"


def test_compare_rejects_bad_slot_count():
    with pytest.raises(ConfigError):
        compare(n_slots=0, seed=1)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(n_slots=True, seed=1), "n_slots"),
        (dict(n_slots=10, seed=-1), "seed"),
        (dict(n_slots=10, seed=2**64), "seed"),
        (dict(n_slots=10, seed=True), "seed"),
        (dict(n_slots=10, seed=False), "seed"),
        (dict(n_slots=10, seed=-1, workers=True), "workers"),
    ],
)
def test_compare_validation_reports_field(kwargs, field):
    with pytest.raises(ConfigError) as err:
        compare(**kwargs)
    assert err.value.field == field


# --- scenario table ---------------------------------------------------------


def test_table_csv_layout():
    rows = parse_csv(enumerate_table("csv"))
    assert rows[0] == TABLE_CSV_HEADER
    assert len(rows) == 9
    channel = [r[6] for r in rows[1:]]
    assert channel == ["Collision", "Unused", "Transm.", "Transm.",
                       "Transm.", "Transm.", "Unused", "Collision"]
    ks = [int(r[8]) for r in rows[1:]]
    assert ks == [2, 2, 3, 3, 3, 3, 2, 2]
    assert sum(ks) == 20
    delivered = [r[7] for r in rows[1:]]
    assert delivered[2] == "A1,A2,B1"
    assert delivered[5] == "A1,A2,B1"


def test_table_json_matches_csv():
    obj = json.loads(enumerate_table("json"))
    assert obj["k_sum"] == 20
    assert obj["expected_bits_per_slot"] == 2.5
    assert len(obj["rows"]) == 8
    csv_rows = parse_csv(enumerate_table("csv"))[1:]
    for json_row, csv_row in zip(obj["rows"], csv_rows):
        assert [str(json_row[key]) for key in TABLE_CSV_HEADER] == csv_row


def test_table_text_mentions_every_row():
    text = enumerate_table("text")
    assert "sum K = 20" in text
    assert text.count("Transm.") == 4
    assert text.count("Collision") >= 2


def test_table_rejects_unknown_format():
    with pytest.raises(ConfigError):
        enumerate_table("yaml")


@pytest.mark.parametrize("workers", [0, -1, 2.0, "2", True, False, None])
def test_compare_validates_workers(workers):
    with pytest.raises(ConfigError) as err:
        compare(10, 1, workers=workers)
    assert err.value.field == "workers"
