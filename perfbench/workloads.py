"""The benchmark's workloads and the checks every CLI output must pass.

Each workload is one `entmac` command line at a fixed slot count. The
slot counts are chosen so that one run takes one to five seconds on the
pure backend: long enough that interpreter start-up is a small share of
the wall time, short enough for several closed-loop runs per measurement.
Threaded runs use whole 65536-slot chunks so that each thread gets an
equal share of the work.

BENCHMARK.json gates all three. Between them they enter every layer, the
chunk pool included (hyperdense-coin-w2), and each has a bypass: compare
is mostly qubit work, hyperdense-coin-w2 has none, aloha-m8 touches
neither qubit nor hyperdense.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from typing import Callable

#: seed the program uses by default; its outputs are pinned in expected.json
DEFAULT_SEED = 42

#: how many standard errors an empirical mean may sit from its analytic value
Z_LIMIT = 5.0

#: per-slot success indicator of M=8 slotted-Aloha at p = 1/8
ALOHA_M8 = (7 / 8) ** 7


class OutputError(ValueError):
    """An output failed a check; the message says which."""


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments after `entmac`, without --slots/--seed
    slots: int
    check: Callable[[str, int, int], dict]  # (stdout, slots, seed) -> std_errors

    def argv(self, seed: int, slots: int | None = None) -> list[str]:
        n = self.slots if slots is None else slots
        return [*self.args, "--slots", str(n), "--seed", str(seed)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def _near(mean: float, expected: float, std_error: float, name: str, slack: float = 0.0) -> None:
    """Empirical mean within Z_LIMIT standard errors of its analytic value."""
    _require(
        abs(mean - expected) <= Z_LIMIT * std_error + slack,
        f"{name}: mean {mean} is more than {Z_LIMIT} std errors ({std_error}) from {expected}",
    )


_STATS = re.compile(
    r"mean=(?P<mean>\S+)  std_error=(?P<se>\S+)  ci95=\[(?P<lo>\S+), (?P<hi>\S+)\]  n=(?P<n>\d+)$"
)

_COMPARE_ROWS = {
    "hyperdense total": 2.5,
    "hyperdense alice->bob": 1.25,
    "hyperdense bob->alice": 1.25,
    "superdense": 2.0,
    "slotted-Aloha (M=2)": 0.5,
}


def check_compare_text(out: str, slots: int, seed: int) -> dict:
    lines = out.splitlines()
    _require(len(lines) >= 12, f"expected at least 12 lines, got {len(lines)}")
    _require(
        lines[0] == f"Protocol comparison ({slots} slots per protocol, seed {seed})",
        f"header does not echo slots and seed: {lines[0]!r}",
    )
    std_errors = {}
    for label, analytic in _COMPARE_ROWS.items():
        row = [ln for ln in lines if ln.startswith(label + " ")]
        _require(len(row) == 1, f"row {label!r} missing or repeated")
        rest = row[0][len(label):].split(None, 1)
        _require(len(rest) == 2, f"row {label!r} is malformed")
        _require(float(rest[0]) == analytic, f"{label}: analytic {rest[0]} != {analytic}")
        m = _STATS.search(rest[1])
        _require(m is not None, f"row {label!r} has no statistics")
        mean, se, n = float(m["mean"]), float(m["se"]), int(m["n"])
        _require(n == slots, f"{label}: n={n}, requested {slots}")
        std_errors[label] = se
        if label == "superdense":
            _require(mean == 2.0 and se == 0.0, f"superdense is not exactly 2.0: {rest[1]!r}")
        else:
            # the text shows six decimals, so allow for the rounding
            _near(mean, analytic, se, label, slack=1e-6)
    _require(lines[-1] == "slotted-Aloha M->inf limit: 1/e = 0.36787944117144233",
             f"last line is not the 1/e limit: {lines[-1]!r}")
    return std_errors


def check_hyperdense_json(out: str, slots: int, seed: int) -> dict:
    obj = json.loads(out)
    _require(obj.get("protocol") == "hyperdense", "protocol is not hyperdense")
    cfg = obj["config"]
    _require(cfg == {"n_slots": slots, "seed": seed, "c_source": "coin"},
             f"config does not echo the request: {cfg}")
    ana = obj["analytic"]
    _require(ana["expected_bits_per_slot"] == 2.5, "analytic bits/slot != 2.5")
    _require(ana["expected_bits_alice_to_bob"] == 1.25, "analytic alice->bob != 1.25")
    _require(ana["expected_bits_bob_to_alice"] == 1.25, "analytic bob->alice != 1.25")
    counts = obj["channel_counts"]
    _require(sum(counts.values()) == slots, f"channel counts {counts} do not sum to {slots}")
    stats = {"total": (obj["empirical"], 2.5)}
    for name, s in obj["empirical_directions"].items():
        stats[name] = (s, 1.25)
    std_errors = {}
    for name, (s, analytic) in stats.items():
        _require(s["n"] == slots, f"{name}: n={s['n']}, requested {slots}")
        _near(s["mean"], analytic, s["std_error"], name)
        std_errors[name] = s["std_error"]
    return std_errors


def check_aloha_csv(out: str, slots: int, seed: int) -> dict:
    rows = list(csv.reader(io.StringIO(out)))
    _require(rows and rows[0] == ["protocol", "statistic", "value"], "bad CSV header")
    _require(all(len(r) == 3 and r[0] == "aloha" for r in rows[1:]), "bad CSV row")
    values = {r[1]: r[2] for r in rows[1:]}
    _require(len(values) == len(rows) - 1, "repeated CSV statistic")
    _require(int(values["config.n_slots"]) == slots, "config.n_slots does not echo --slots")
    _require(int(values["config.seed"]) == seed, "config.seed does not echo --seed")
    _require(int(values["config.m"]) == 8, "config.m != 8")
    _require(float(values["config.p"]) == 0.125, "config.p != 1/8")
    _require(abs(float(values["analytic.total_throughput"]) - ALOHA_M8) <= 1e-15,
             "analytic throughput != (7/8)^7")
    _require(int(values["empirical.n"]) == slots, "empirical.n != slots")
    mean = float(values["empirical.mean"])
    se = float(values["empirical.std_error"])
    _near(mean, ALOHA_M8, se, "aloha")
    return {"empirical": se}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare",
            ("compare", "--workers", "1", "--format", "text"),
            16_384,
            check_compare_text,
        ),
        Workload(
            "hyperdense-coin-w2",
            ("hyperdense", "--c-source", "coin", "--workers", "2", "--format", "json"),
            131_072,
            check_hyperdense_json,
        ),
        Workload(
            "aloha-m8",
            ("aloha", "--users", "8", "--format", "csv"),
            131_072,
            check_aloha_csv,
        ),
    )
}


def judge(w: Workload, runs: list[tuple[int, str, str]], slots: int, seed: int,
          expected_sha: str | None) -> tuple[list[str | None], dict]:
    """Check every run of one workload and seed.

    ``runs`` holds (exit status, stdout, stderr) per run. Stdout must be the
    same in every run: it must match ``expected_sha`` when one is pinned for
    this seed, else the most common stdout. Returns one entry per run, None
    when it passed or the first failed check, and the std_errors reported
    by the first run that passed.
    """
    shas = [sha256(out) for _, out, _ in runs]
    reference = expected_sha or max(shas, key=shas.count)
    verdicts: list[str | None] = []
    std_errors: dict = {}
    for (status, out, err), sha in zip(runs, shas):
        try:
            _require(status == 0, f"exit status {status}")
            _require(err == "", f"stderr is not empty: {err[:200]!r}")
            _require(sha == reference, f"stdout sha256 {sha} != {reference}")
            found = w.check(out, slots, seed)
        except OutputError as exc:
            verdicts.append(str(exc))
            continue
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            verdicts.append(f"unreadable output: {type(exc).__name__}: {exc}")
            continue
        verdicts.append(None)
        std_errors = std_errors or found
    return verdicts, std_errors
