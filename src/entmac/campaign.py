"""Campaign runner: validated configs, seeded protocol runs, the three-way
comparison report, and the scenario table, serialized as text, JSON or CSV.

Reproducibility contract: a campaign's output is a pure function of its
config and the format it is rendered in. Every protocol draws from its own
labeled child stream of the master seed, so runs are byte-identical across
repetitions, worker counts and backends, and changing one protocol's sample
count cannot shift another protocol's stream.

The configs, results and reports are immutable named tuples. ``_render``
imports ``json`` or ``csv`` only when asked for that format, so a text run
loads neither.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from . import aloha as aloha_mod
from . import hyperdense as hd
from . import superdense as sd
from ._records import is_int, is_probability
from .rng import RandomSource, derive_seed
from .stats import RunStats

FORMATS = ("json", "csv", "text")
C_SOURCES = ("qubit", "coin")

_MAX_SEED = (1 << 64) - 1


class ConfigError(ValueError):
    """Invalid campaign configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class CampaignConfig(NamedTuple):
    protocol: str
    n_slots: int = 1_000_000
    seed: int = 42
    m: int = 2  # aloha only
    p: Optional[float] = None  # aloha only; defaults to 1/M
    c_source: str = "qubit"  # hyperdense only

    def validate(self) -> None:
        if not isinstance(self.protocol, str) or self.protocol not in PROTOCOLS:
            raise ConfigError("protocol",
                              f"must be one of {tuple(PROTOCOLS)}, got {self.protocol!r}")
        if not is_int(self.n_slots, 1):
            raise ConfigError("n_slots", f"must be an integer >= 1, got {self.n_slots!r}")
        if not is_int(self.seed, 0, _MAX_SEED):
            raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {self.seed!r}")
        if not is_int(self.m, 1):
            raise ConfigError("m", f"must be an integer >= 1, got {self.m!r}")
        if self.p is not None and not is_probability(self.p):
            raise ConfigError("p", f"must be in [0, 1], got {self.p!r}")
        if self.c_source not in C_SOURCES:
            raise ConfigError("c_source", f"must be one of {C_SOURCES}, got {self.c_source!r}")

    def resolved_p(self) -> float:
        return self.p if self.p is not None else 1.0 / self.m


class CampaignResult(NamedTuple):
    protocol: str
    config: dict
    analytic: dict
    empirical: RunStats
    directions: Optional[dict] = None  # hyperdense: direction RunStats
    channel_counts: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "protocol": self.protocol,
            "config": self.config,
            "analytic": self.analytic,
            "empirical": self.empirical._asdict(),
        }
        if self.directions is not None:
            out["empirical_directions"] = {
                name: stats._asdict() for name, stats in self.directions.items()
            }
        if self.channel_counts is not None:
            out["channel_counts"] = self.channel_counts
        return out

    def render(self, output_format: str) -> str:
        return _render(self.to_json_dict(), output_format, _campaign_text)


def run_campaign(cfg: CampaignConfig, workers: int = 1):
    """Run one campaign; returns a CampaignResult (or ComparisonReport).

    ``workers`` affects scheduling only, never the reported numbers.
    """
    if not is_int(workers, 1):
        raise ConfigError("workers", f"must be an integer >= 1, got {workers!r}")
    cfg.validate()
    return PROTOCOLS[cfg.protocol].run(cfg, workers)


def _run_aloha(cfg: CampaignConfig, workers: int) -> CampaignResult:
    params = aloha_mod.AlohaParams(cfg.m, cfg.resolved_p())
    stream = RandomSource(derive_seed(cfg.seed, "aloha"))
    return CampaignResult(
        protocol="aloha",
        config={"n_slots": cfg.n_slots, "seed": cfg.seed, "m": cfg.m, "p": params.p},
        empirical=aloha_mod.simulate(params, cfg.n_slots, stream, workers=workers),
        analytic={
            "success_probability": aloha_mod.success_probability(params),
            "total_throughput": aloha_mod.total_throughput(params),
            "optimal_p": aloha_mod.optimal_p(cfg.m),
            "max_throughput": aloha_mod.max_throughput(cfg.m),
        },
    )


def _run_superdense(cfg: CampaignConfig, workers: int) -> CampaignResult:
    stream = RandomSource(derive_seed(cfg.seed, "superdense"))
    return CampaignResult(
        protocol="superdense",
        config={"n_slots": cfg.n_slots, "seed": cfg.seed},
        empirical=sd.simulate(cfg.n_slots, stream, workers=workers),
        analytic={"success_rate": 1.0, "bits_per_slot": float(sd.BITS_PER_USE)},
    )


def _run_hyperdense(cfg: CampaignConfig, workers: int) -> CampaignResult:
    source = hd.QubitPairSource() if cfg.c_source == "qubit" else hd.CoinPairSource()
    stream = RandomSource(derive_seed(cfg.seed, "hyperdense"))
    result = hd.simulate(cfg.n_slots, stream, source=source, workers=workers)
    per_direction = hd.expected_bits_per_direction()
    return CampaignResult(
        protocol="hyperdense",
        config={"n_slots": cfg.n_slots, "seed": cfg.seed, "c_source": cfg.c_source},
        analytic={
            "expected_bits_per_slot": hd.expected_bits_analytic(),
            "expected_bits_alice_to_bob": per_direction["alice_to_bob"],
            "expected_bits_bob_to_alice": per_direction["bob_to_alice"],
        },
        empirical=result.total,
        directions={
            "alice_to_bob": result.alice_to_bob,
            "bob_to_alice": result.bob_to_alice,
        },
        channel_counts=result.channel_counts,
    )


class ComparisonReport(NamedTuple):
    """Three-way report: hyperdense vs superdense vs slotted-Aloha (M=2)."""

    n_slots: int
    seed: int
    analytic: dict
    hyperdense: hd.HyperdenseStats
    superdense_bits: RunStats
    aloha_m2: RunStats

    def to_json_dict(self) -> dict:
        return {
            "protocol": "compare",
            "config": {"n_slots": self.n_slots, "seed": self.seed},
            "analytic": self.analytic,
            "empirical": {
                "hyperdense_total": self.hyperdense.total._asdict(),
                "hyperdense_alice_to_bob": self.hyperdense.alice_to_bob._asdict(),
                "hyperdense_bob_to_alice": self.hyperdense.bob_to_alice._asdict(),
                "superdense_per_slot": self.superdense_bits._asdict(),
                "aloha_m2_total": self.aloha_m2._asdict(),
            },
        }

    def render(self, output_format: str) -> str:
        return _render(self.to_json_dict(), output_format, _compare_text)


def compare(n_slots: int, seed: int, workers: int = 1) -> ComparisonReport:
    """Hyperdense (qubit pairs) vs superdense vs slotted-Aloha (M=2, p=1/2).

    The hyperdense and Aloha rows are the standalone campaigns with the same
    master seed, analytic values included, so ``compare`` agrees with the
    individual runs by construction. Superdense is reported in delivered
    bits, 0 or 2 per slot, from its own labeled stream.
    """
    hyper = run_campaign(CampaignConfig("hyperdense", n_slots, seed, c_source="qubit"), workers)
    sd_stream = RandomSource(derive_seed(seed, "superdense"))
    sd_successes = sd.count_successes(n_slots, sd_stream, workers=workers)
    aloha = run_campaign(CampaignConfig("aloha", n_slots, seed, m=2, p=0.5), workers)
    return ComparisonReport(
        n_slots=n_slots,
        seed=seed,
        analytic={
            "hyperdense_total": hyper.analytic["expected_bits_per_slot"],
            "hyperdense_per_direction": hyper.analytic["expected_bits_alice_to_bob"],
            "superdense_per_slot": float(sd.BITS_PER_USE),
            "aloha_m2_total": aloha.analytic["max_throughput"],
            "aloha_limit": math.exp(-1.0),
        },
        hyperdense=hd.HyperdenseStats(hyper.empirical, **hyper.directions,
                                      channel_counts=hyper.channel_counts),
        superdense_bits=RunStats.from_two_valued(n_slots, sd_successes, lo=0.0, hi=2.0),
        aloha_m2=aloha.empirical,
    )


class Option(NamedTuple):
    """A protocol's own CLI flag: the config field it sets and its argparse keywords."""

    flag: str
    field: str
    kwargs: dict


class Protocol(NamedTuple):
    """A simulation subcommand: its help, its own options and its runner."""

    help: str
    run: Callable[[CampaignConfig, int], object]
    options: tuple[Option, ...] = ()


#: the one table of simulation subcommands, read by the CLI and ``run_campaign``
PROTOCOLS = {
    "aloha": Protocol("slotted-Aloha Monte Carlo and analytics", _run_aloha, (
        Option("--users", "m", dict(type=int, metavar="M",
                                    help="number of users (default %(default)s)")),
        Option("--p", "p", dict(type=float, metavar="X",
                                help="per-user transmit probability (default 1/M)")),
    )),
    "superdense": Protocol("superdense-coding roundtrip campaign", _run_superdense),
    "hyperdense": Protocol("hyperdense-coding Monte Carlo", _run_hyperdense, (
        Option("--c-source", "c_source", dict(
            choices=C_SOURCES,
            help="where the shared slot bit comes from (default %(default)s)")),
    )),
    "compare": Protocol("three-way throughput comparison report",
                        lambda cfg, workers: compare(cfg.n_slots, cfg.seed, workers)),
}


def scenario_rows() -> list[dict]:
    """The eight-scenario table as serializable row dicts."""
    rows = []
    for s in hd.enumerate_scenarios():
        delivered = sorted(list(s.delivered_to_bob) + list(s.delivered_to_alice))
        rows.append(
            {
                "l": s.scenario_index,
                "a1": s.alice.first,
                "b1": s.bob.first,
                "c": s.c,
                "alice_sends": "A2" if s.a_sent is not None else "-",
                "bob_sends": "B2" if s.b_sent is not None else "-",
                "channel": s.channel.state.table_label,
                "delivered": ",".join(delivered),
                "k": s.k,
            }
        )
    return rows


TABLE_CSV_HEADER = ["l", "a1", "b1", "c", "alice_sends", "bob_sends", "channel", "delivered", "k"]


def enumerate_table(output_format: str = "text") -> str:
    """Serialize the eight-scenario table in the requested format."""
    rows = scenario_rows()
    k_sum = sum(r["k"] for r in rows)
    table = {"rows": rows, "k_sum": k_sum, "expected_bits_per_slot": k_sum / len(rows)}
    return _render(table, output_format, _table_text, _table_csv_rows)


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return [(prefix, obj)]
    out = []
    for key, value in items:
        out.extend(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _statistic_rows(json_dict: dict) -> list[list]:
    """One protocol/statistic/value CSV row per leaf of a protocol's dict."""
    protocol = json_dict["protocol"]
    rows = [["protocol", "statistic", "value"]]
    rows.extend([protocol, path, value] for path, value in _flatten(json_dict)
                if path != "protocol")
    return rows


def _render(json_dict: dict, output_format: str, text_fn, csv_rows=_statistic_rows) -> str:
    """The one serializer: json_dict as JSON, as ``csv_rows`` CSV, or as ``text_fn`` text."""
    if output_format == "json":
        import json

        return json.dumps(json_dict, indent=2) + "\n"
    if output_format == "csv":
        import csv
        import io

        buf = io.StringIO()
        # str() each value: csv.writer would write None as an empty field
        csv.writer(buf, lineterminator="\n").writerows(
            [str(value) for value in row] for row in csv_rows(json_dict)
        )
        return buf.getvalue()
    if output_format == "text":
        return text_fn(json_dict)
    raise ConfigError("output_format", f"must be one of {FORMATS}, got {output_format!r}")


def _table_csv_rows(table: dict) -> list[list]:
    return [TABLE_CSV_HEADER] + [[r[key] for key in TABLE_CSV_HEADER] for r in table["rows"]]


def _table_text(table: dict) -> str:
    lines = [
        "Hyperdense coding: the eight equally likely slot scenarios",
        "",
        f"{'l':>2} {'A1':>3} {'B1':>3} {'CaCb':>5} {'Alice':>6} {'Bob':>6} "
        f"{'channel':>10} {'delivered':>12} {'K':>2}",
    ]
    for r in table["rows"]:
        cacb = "00" if r["c"] == 0 else "11"
        lines.append(
            f"{r['l']:>2} {r['a1']:>3} {r['b1']:>3} {cacb:>5} {r['alice_sends']:>6} "
            f"{r['bob_sends']:>6} {r['channel']:>10} {r['delivered']:>12} {r['k']:>2}"
        )
    lines.append("")
    lines.append(
        f"sum K = {table['k_sum']}, expected bits per slot = {table['expected_bits_per_slot']}"
    )
    return "\n".join(lines) + "\n"


def _stats_line(s: dict) -> str:
    lo, hi = s["ci95"]
    return (
        f"mean={s['mean']:.6f}  std_error={s['std_error']:.3e}  "
        f"ci95=[{lo:.6f}, {hi:.6f}]  n={s['n']}"
    )


def _campaign_text(obj: dict) -> str:
    lines = [f"protocol: {obj['protocol']}"]
    cfg = obj["config"]
    lines.append("config: " + ", ".join(f"{k}={v}" for k, v in cfg.items()))
    lines.append("analytic:")
    for key, value in obj["analytic"].items():
        lines.append(f"  {key} = {value}")
    lines.append("empirical: " + _stats_line(obj["empirical"]))
    if "empirical_directions" in obj:
        for name, s in obj["empirical_directions"].items():
            lines.append(f"  {name}: " + _stats_line(s))
    if "channel_counts" in obj:
        counts = obj["channel_counts"]
        lines.append("channel: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return "\n".join(lines) + "\n"


def _compare_text(obj: dict) -> str:
    ana = obj["analytic"]
    emp = obj["empirical"]
    cfg = obj["config"]
    lines = [
        f"Protocol comparison ({cfg['n_slots']} slots per protocol, seed {cfg['seed']})",
        "",
        f"hyperdense {ana['hyperdense_total']} bits/slot "
        f"({ana['hyperdense_per_direction']} per direction) "
        f"vs superdense {ana['superdense_per_slot']} "
        f"vs slotted-Aloha {ana['aloha_m2_total']} (M=2)",
        "",
        f"{'protocol':<26} {'analytic':>10}   empirical",
        f"{'hyperdense total':<26} {ana['hyperdense_total']:>10} "
        f"  {_stats_line(emp['hyperdense_total'])}",
        f"{'hyperdense alice->bob':<26} {ana['hyperdense_per_direction']:>10} "
        f"  {_stats_line(emp['hyperdense_alice_to_bob'])}",
        f"{'hyperdense bob->alice':<26} {ana['hyperdense_per_direction']:>10} "
        f"  {_stats_line(emp['hyperdense_bob_to_alice'])}",
        f"{'superdense':<26} {ana['superdense_per_slot']:>10} "
        f"  {_stats_line(emp['superdense_per_slot'])}",
        f"{'slotted-Aloha (M=2)':<26} {ana['aloha_m2_total']:>10} "
        f"  {_stats_line(emp['aloha_m2_total'])}",
        "",
        f"slotted-Aloha M->inf limit: 1/e = {ana['aloha_limit']}",
    ]
    return "\n".join(lines) + "\n"
