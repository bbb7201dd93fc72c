"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench

They run entmac from the checkout's src/ in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
from tracer import Span, Tracer, exclusive_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, judge, sha256  # noqa: E402

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def cli_stdout(argv: list[str]) -> str:
    from entmac.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def pinned_outputs() -> dict[str, str]:
    return {name: cli_stdout(w.argv(DEFAULT_SEED)) for name, w in WORKLOADS.items()}


def flip_each_digit(text: str):
    for i, ch in enumerate(text):
        if ch.isdigit():
            yield i, text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_sha_matches_the_program(name, pinned_outputs):
    w = WORKLOADS[name]
    out = pinned_outputs[name]
    assert EXPECTED[name] == {"seed": DEFAULT_SEED, "slots": w.slots, "sha256": sha256(out)}
    verdicts, std_errors = judge(w, [(0, out, "")], w.slots, DEFAULT_SEED, sha256(out))
    assert verdicts == [None]
    assert std_errors


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_flipped_digit_counts_as_a_failure(name, pinned_outputs):
    w = WORKLOADS[name]
    good = pinned_outputs[name]
    pinned = EXPECTED[name]["sha256"]
    flips = list(flip_each_digit(good))
    assert flips
    for i, bad in flips:
        # against the pinned sha, and against the other runs of the same seed
        assert judge(w, [(0, bad, "")], w.slots, DEFAULT_SEED, pinned)[0] != [None], i
        verdicts, _ = judge(w, [(0, good, ""), (0, bad, ""), (0, good, "")], w.slots,
                            DEFAULT_SEED, None)
        assert verdicts[0] is None and verdicts[2] is None, i
        assert verdicts[1] is not None, i


def test_content_checks_catch_a_lone_corrupted_run():
    w = WORKLOADS["hyperdense-coin-w2"]
    out = cli_stdout(w.argv(7, slots=3000))
    assert judge(w, [(0, out, "")], 3000, 7, None)[0] == [None]
    obj = json.loads(out)
    obj["channel_counts"]["idle"] += 1
    assert "do not sum" in judge(w, [(0, json.dumps(obj), "")], 3000, 7, None)[0][0]
    assert "echo" in judge(w, [(0, out, "")], 3001, 7, None)[0][0]
    assert "exit status" in judge(w, [(1, out, "")], 3000, 7, None)[0][0]
    assert "stderr" in judge(w, [(0, out, "warning")], 3000, 7, None)[0][0]
    assert "unreadable" in judge(w, [(0, out[:-20], "")], 3000, 7, None)[0][0]


def test_superdense_must_be_exactly_two():
    w = WORKLOADS["compare"]
    out = cli_stdout(w.argv(5, slots=500))
    bad = out.replace("mean=2.000000  std_error=0.000e+00", "mean=2.000000  std_error=1.000e-09")
    assert bad != out
    assert "superdense" in judge(w, [(0, bad, "")], 500, 5, None)[0][0]


def span(sid, parent, start, end, thread=1, layer="x"):
    return Span(sid, f"s{sid}", layer, "", None, None, parent, thread, start, end, 0.0, 0.0)


def test_exclusive_times_share_parallel_time_and_sum_to_the_root():
    spans = [span(1, None, 0, 10), span(2, 1, 1, 9), span(3, 2, 2, 6, thread=2),
             span(4, 2, 3, 8, thread=3)]
    share = exclusive_times(spans)
    assert share == pytest.approx({1: 2.0, 2: 2.0, 3: 2.5, 4: 3.5})
    assert sum(share.values()) == pytest.approx(10.0)


def test_traced_run_restores_every_wrapper_and_accounts_for_the_root():
    import entmac.cli
    from entmac import _kernels, campaign

    before = (entmac.cli.run_campaign, campaign.run_campaign, _kernels.hyperdense_tally,
              campaign.RunStats.__dict__["from_two_valued"])
    w = WORKLOADS["hyperdense-coin-w2"]
    tracer, root_id, (status, out, err, _) = child.traced_run(w.argv(3, slots=70000))
    assert (status, err) == (0, "")
    assert out == cli_stdout(w.argv(3, slots=70000))
    after = (entmac.cli.run_campaign, campaign.run_campaign, _kernels.hyperdense_tally,
             campaign.RunStats.__dict__["from_two_valued"])
    assert all(a is b for a, b in zip(before, after))
    assert Tracer.leftovers() == []
    assert tracer.missing == []

    report = child.layer_metrics(tracer.spans, root_id)
    assert report["self_sum_s"] == pytest.approx(report["root_s"], rel=1e-9)
    assert report["tally_slots"] == 70000
    assert report["metrics"]["kernels.calls"] == 2
    assert child.effective_backends(tracer.spans) == {"hyperdense": [_kernels.backend_name()]}
    # both chunks ran on pool threads, under the protocol span of the home thread
    by_id = {s.id: s for s in tracer.spans}
    tallies = [s for s in tracer.spans if s.role == "tally"]
    protocol = next(s for s in tracer.spans if s.role == "protocol")
    assert all(by_id[t.parent].parent == protocol.id for t in tallies)
    assert all(t.thread != protocol.thread for t in tallies)


def test_leftovers_names_a_wrapper_that_was_not_restored():
    from entmac import campaign

    tracer = Tracer()
    tracer.install()
    try:
        kept = tracer._patches.pop()  # forget one patch, as a faulty restore would
        tracer.restore()
        owner, key, _ = kept
        assert any(name.endswith(key) for name in Tracer.leftovers())
    finally:
        setattr(owner, key, kept[2])
    assert Tracer.leftovers() == []
    assert campaign.run_campaign.__module__ == "entmac.campaign"


def test_reference_loop_runs_on_every_cpu_and_restores_the_affinity():
    import run

    before = os.sched_getaffinity(0)
    wall, cpu = run.reference_loop()
    assert os.sched_getaffinity(0) == before
    assert wall > 0 and cpu > 0
