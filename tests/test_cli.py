"""Command-line interface: exit codes, output identity with the API."""

import errno
import gc
import json
import os
import subprocess
import sys

import pytest

from entmac import _kernels, cli
from entmac.campaign import PROTOCOLS, CampaignConfig, enumerate_table, run_campaign
from entmac.cli import _config_from_args, build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_subcommand(capsys):
    code, out, err = run_cli(capsys, ["table", "--format", "csv"])
    assert code == 0
    assert err == ""
    assert out == enumerate_table("csv")


@pytest.mark.parametrize(
    "argv,fields,fmt",
    [
        pytest.param(["aloha", "--users", "3", "--p", "0.2"], dict(m=3, p=0.2), "json",
                     id="aloha-users-p"),
        pytest.param(["superdense"], {}, "csv", id="superdense"),
        pytest.param(["hyperdense", "--c-source", "coin"], dict(c_source="coin"), "text",
                     id="hyperdense-coin"),
        pytest.param(["compare"], {}, "json", id="compare"),
        # none of aloha's own options: the CLI's defaults must be the config's
        pytest.param(["aloha"], {}, "text", id="aloha-defaults"),
    ],
)
def test_subcommand_matches_api(capsys, argv, fields, fmt):
    code, out, _ = run_cli(capsys, argv + ["--slots", "5000", "--seed", "6", "--format", fmt])
    assert code == 0
    cfg = CampaignConfig(protocol=argv[0], n_slots=5000, seed=6, **fields)
    assert out == run_campaign(cfg).render(fmt)


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_flag_defaults_are_config_defaults(name):
    # slot count and seed included, which the runs above pass explicitly
    assert _config_from_args(build_parser().parse_args([name])) == CampaignConfig(name)


def test_hyperdense_coin_source(capsys):
    code, out, _ = run_cli(
        capsys,
        ["hyperdense", "--slots", "2000", "--seed", "1", "--c-source", "coin",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["config"]["c_source"] == "coin"


def test_compare_text_output(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--slots", "2000", "--seed", "5"])
    assert code == 0
    assert "hyperdense 2.5 bits/slot" in out


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["hyperdense", "--slots", "20000", "--seed", "3", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_worker_flag_leaves_output_unchanged(capsys):
    base = ["aloha", "--slots", "100000", "--seed", "8", "--format", "csv"]
    _, lone, _ = run_cli(capsys, base + ["--workers", "1"])
    _, pooled, _ = run_cli(capsys, base + ["--workers", "4"])
    assert lone == pooled


def test_config_error_exits_2(capsys):
    code, out, err = run_cli(capsys, ["aloha", "--users", "0"])
    assert code == 2
    assert out == ""
    assert "m:" in err


def test_bad_slots_exits_2(capsys):
    code, _, err = run_cli(capsys, ["hyperdense", "--slots", "0"])
    assert code == 2
    assert "n_slots" in err


@pytest.mark.parametrize("workers", ["0", "AUTO", "2.0"])
def test_bad_workers_exits_2(capsys, workers):
    # 0 parses and fails the config's check; argparse itself rejects the other two
    try:
        code = main(["aloha", "--workers", workers])
    except SystemExit as stop:
        code = stop.code
    assert code == 2
    assert "workers" in capsys.readouterr().err


def test_workers_defaults_to_auto_and_parses_it():
    assert build_parser().parse_args(["aloha"]).workers == "auto"
    assert build_parser().parse_args(["aloha", "--workers", "auto"]).workers == "auto"
    assert build_parser().parse_args(["aloha", "--workers", "3"]).workers == 3


def test_a_run_whose_fork_fails_prints_what_one_process_prints(monkeypatch, capsys):
    # as at a process limit: the share a child would have run runs in this process
    def refused():
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    argv = ["aloha", "--users", "8", "--slots", "131072", "--format", "csv"]
    _, lone, _ = run_cli(capsys, argv + ["--workers", "1"])
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused)
    assert run_cli(capsys, argv + ["--workers", "2"]) == (0, lone, "")


def test_unknown_choice_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["hyperdense", "--c-source", "dice"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("flags, argv", [
    ([], ["table", "--format", "csv"]),
    # -X dev -W error: a warning at exit, a leak finalization reports say, is an error
    (["-X", "dev", "-W", "error"], ["compare", "--slots", "1000", "--format", "text"]),
    # two chunks and two workers: one forked child
    (["-X", "dev", "-W", "error"],
     ["hyperdense", "--c-source", "coin", "--workers", "2", "--slots", "70000",
      "--format", "json"]),
], ids=["table", "compare-dev", "hyperdense-workers-2-dev"])
def test_module_entry_point_subprocess(capsys, flags, argv):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "entmac", *argv],
        capture_output=True,
        text=True,
    )
    _, out, _ = run_cli(capsys, argv)
    assert proc.returncode == 0
    assert proc.stdout == out
    assert proc.stderr == ""


@pytest.mark.parametrize("status", [0, 2])
def test_run_freezes_the_collector_once_main_has_returned(monkeypatch, status):
    calls = []

    def fake_main():
        calls.append("main")
        return status

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as err:
        cli.run()
    assert calls == ["main", "freeze"]
    assert err.value.code == status


def test_main_never_freezes_the_collector(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert run_cli(capsys, ["compare", "--slots", "1000"])[0] == 0
    assert run_cli(capsys, ["aloha", "--users", "0"])[0] == 2
    assert calls == []
