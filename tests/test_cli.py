"""Command-line interface: exit codes, output identity with the API, and the
grammar, checked against the argparse parser the CLI had before it read its
flags itself."""

import argparse
import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmac import _kernels, cli
from entmac.campaign import (
    C_SOURCES,
    FORMATS,
    PROTOCOLS,
    CampaignConfig,
    ConfigError,
    enumerate_table,
    run_campaign,
)
from entmac.cli import auto_or_int, main, parse_args

_DEFAULTS = CampaignConfig._field_defaults

#: each protocol's own flags, as (flag, config field, argparse keywords)
ORACLE_OPTIONS = {
    "aloha": (
        ("--users", "m", dict(type=int, metavar="M",
                              help="number of users (default %(default)s)")),
        ("--p", "p", dict(type=float, metavar="X",
                          help="per-user transmit probability (default 1/M)")),
    ),
    "hyperdense": (
        ("--c-source", "c_source", dict(
            choices=C_SOURCES,
            help="where the shared slot bit comes from (default %(default)s)")),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI had, the reference its grammar is checked against."""
    parser = argparse.ArgumentParser(
        prog="entmac",
        description=(
            "Simulate entanglement-assisted medium access (hyperdense coding) "
            "against its superdense-coding and slotted-Aloha references."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="text",
                       help="output format (default text)")

    for name, protocol in PROTOCOLS.items():
        p = sub.add_parser(name, help=protocol.help)
        p.add_argument("--slots", type=int, dest="n_slots", default=_DEFAULTS["n_slots"],
                       metavar="N", help="number of slots/trials (default %(default)s)")
        p.add_argument("--seed", type=int, default=_DEFAULTS["seed"], metavar="S",
                       help="master seed (default %(default)s)")
        add_format(p)
        p.add_argument("--workers", type=auto_or_int, default=_DEFAULTS["workers"],
                       metavar="W",
                       help="processes, at most one per 65536-slot chunk and usable CPU; "
                            "never changes the reported numbers (default auto: one per "
                            "usable CPU on the pure backend, one on the compiled backend, "
                            "where a chunk takes less time than a fork)")
        for flag, field, kwargs in ORACLE_OPTIONS.get(name, ()):
            p.add_argument(flag, dest=field, default=_DEFAULTS[field], **kwargs)

    add_format(sub.add_parser("table", help="print the eight-scenario table"))

    return parser


def oracle_parse(argv):
    """(command, format, config fields) as the argparse parser reads ``argv``."""
    args = build_parser().parse_args(argv)
    return args.command, args.format, {k: v for k, v in vars(args).items() if k in _DEFAULTS}


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
    command, _, fields = parse_args([name])
    assert CampaignConfig(command, **fields) == CampaignConfig(name)


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
    # 0 parses and fails the config's check; the parser itself rejects the other two
    try:
        code = main(["aloha", "--workers", workers])
    except SystemExit as stop:
        code = stop.code
    assert code == 2
    assert "workers" in capsys.readouterr().err


def test_workers_defaults_to_auto_and_parses_it():
    assert parse_args(["aloha"])[2]["workers"] == "auto"
    assert parse_args(["aloha", "--workers", "auto"])[2]["workers"] == "auto"
    assert parse_args(["aloha", "--workers", "3"])[2]["workers"] == 3


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


# --- the grammar: the argparse parser's, word for word ------------------------


def outcome(parse, argv):
    """What ``main`` makes of ``parse(argv)``: ("ok", command, format, config), with
    config None for ``table``, or ("exit", status) for help, a usage error or a bad config."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            command, fmt, fields = parse(argv)
        except SystemExit as stop:
            return "exit", stop.code
    if command == "table":
        return "ok", command, fmt, None
    try:
        return "ok", command, fmt, CampaignConfig(command, **fields)
    except ConfigError:
        return "exit", 2


#: the words that ask for help wherever they stand before "--"
HELP_WORDS = ("-h", "--h", "--he", "--hel", "--help")


def oracle_outcome(argv):
    """The argparse parser's outcome, for ``argv`` up to its first help flag.

    argparse up to Python 3.13.0 reads every word before "--" for an ambiguous
    prefix before it acts on any, so ``aloha -h --s`` exits 2 there; later
    versions, as this CLI does, stop at the help flag and print help. Cutting
    ``argv`` after that flag gives every version the later reading.
    """
    for i, word in enumerate(argv):
        if word == "--":
            break
        if word in HELP_WORDS:
            argv = argv[:i + 1]
            break
    return outcome(oracle_parse, argv)


#: each flag and the spellings that name it: its name and unique prefixes of it
SPELLINGS = {"--slots": ["--slots", "--slot", "--sl"], "--seed": ["--seed", "--se"],
             "--format": ["--format", "--form", "--f"], "--workers": ["--workers", "--w"],
             "--users": ["--users", "--us", "--u"], "--p": ["--p"],
             "--c-source": ["--c-source", "--c-s", "--c"]}
#: values each flag takes, "-0" and "-0.0" among them
GOOD = {"--slots": ["1", "5000", "70000"], "--seed": ["0", "9", "-0"],
        "--format": ["json", "csv", "text"], "--workers": ["1", "2", "auto"],
        "--users": ["1", "3", "8"], "--p": ["0", "0.25", "1", "-0.0"],
        "--c-source": ["qubit", "coin"]}
#: values that some flag, or every flag, or the config rejects
BAD = ["", "x", "-1", "-.5", "1.5", "2.0", "1e3", "nan", "AUTO", "xml", "dice", "0"]
#: a flag and its value, as two words or as one --flag=value word
PAIR = st.sampled_from(sorted(SPELLINGS)).flatmap(lambda flag: st.builds(
    lambda spelling, value, joined: [f"{spelling}={value}"] if joined else [spelling, value],
    st.sampled_from(SPELLINGS[flag]), st.sampled_from(GOOD[flag] * 4 + BAD), st.booleans()))
#: stray words, unknown, ambiguous and value-less flags, "--" and help
NOISE = st.sampled_from(["stray", "5", "--bogus", "-x", "-", "--", "-h", "--help", "--he",
                         "--s", "--s=5", "--=1", "--slots", "--c-source"])
WORDS = st.lists(st.integers(0, 3).flatmap(lambda k: NOISE.map(lambda w: [w]) if k == 0
                                           else PAIR), max_size=4).map(lambda items: sum(items, []))


# before the command: flags only, since the argparse of later Python 3.13 releases reads
# "-- aloha" as "aloha", where earlier ones, and this CLI, exit 2
@settings(max_examples=400, deadline=None)
@given(before=st.sampled_from([[]] * 20 + [["-h"], ["--help"], ["--he"], ["--bogus"], ["-x"]]),
       command=st.sampled_from([*PROTOCOLS] * 4 + ["table", "table", "bogus", "--slots", None]),
       after=WORDS)
def test_every_command_line_reads_as_argparse_read_it(before, command, after):
    argv = before + ([command, *after] if command else [])
    assert outcome(parse_args, argv) == oracle_outcome(argv)


#: (argv, what the CLI makes of it): an exit status, or (command, fields set, format if not text)
GRAMMAR = [
    # a unique prefix names its flag, and --flag=value is one word
    (["aloha", "--slot", "7", "--us", "3"], ("aloha", dict(n_slots=7, m=3))),
    (["hyperdense", "--c", "coin", "--slots=7", "--se=9"],
     ("hyperdense", dict(c_source="coin", n_slots=7, seed=9))),
    (["compare", "--w=2", "--f", "csv"], ("compare", dict(workers=2), "csv")),
    # an exact name wins over the longer names it is a prefix of
    (["aloha", "--p", "0.25"], ("aloha", dict(p=0.25))),
    # the last of a repeated flag wins
    (["aloha", "--slots", "5", "--slots=7"], ("aloha", dict(n_slots=7))),
    # a value may start with "-" where it reads as a negative number
    (["aloha", "--seed", "-0"], ("aloha", dict(seed=0))),
    (["aloha", "--p", "-0.0"], ("aloha", dict(p=-0.0))),
    (["table", "--format", "json"], ("table", {}, "json")),
    # the config's check rejects what parses
    (["aloha", "--seed", "-1"], 2),
    (["aloha", "--p", "-.5"], 2),
    # an ambiguous prefix, even where a value would do
    (["aloha", "--s", "5"], 2),
    (["aloha", "--s=5"], 2),
    (["aloha", "--seed", "--s"], 2),
    # a flag without its value
    (["aloha", "--slots", "--seed", "5"], 2),
    (["aloha", "--slots"], 2),
    (["aloha", "--slots", "--", "5"], 2),
    (["aloha", "--seed", "-x"], 2),
    # values the flag rejects
    (["aloha", "--slots", ""], 2),
    (["aloha", "--slots", "1.0"], 2),
    (["aloha", "--format", "xml"], 2),
    (["hyperdense", "--c-source="], 2),
    # stray words, unknown flags and flags of another command, reported at the end
    (["aloha", "foo"], 2),
    (["aloha", "--bogus"], 2),
    (["aloha", "--c-source", "coin"], 2),
    (["table", "--slots", "5"], 2),
    (["aloha", "--", "--slots", "5"], 2),
    (["--bogus", "aloha"], 2),
    # help ends the parse where it stands: stray words and an ambiguous prefix before it
    # are never reported, and the words after it are never read
    (["aloha", "foo", "-h"], 0),
    (["aloha", "--bogus", "--help"], 0),
    (["aloha", "-h", "--s", "5"], 0),
    (["aloha", "--he", "--slots", "x"], 0),
    (["--bogus", "-h"], 0),
    (["--bogus", "aloha", "--help"], 0),
    (["-h", "bogus"], 0),
    # an error before the help flag ends the parse first
    (["aloha", "--slots", "x", "-h"], 2),
    (["aloha", "--s", "-h"], 2),
    (["aloha", "--slots", "-h"], 2),
    (["aloha", "--", "-h"], 2),
    (["--help=x"], 2),
    (["bogus", "-h"], 2),
    ([], 2),
    # the command is the first word that is no flag, "--" included, as argparse up to
    # Python 3.13.0 read it
    (["--", "aloha"], 2),
]


@pytest.mark.parametrize("argv, expected", GRAMMAR,
                         ids=[" ".join(map(repr, argv)) for argv, _ in GRAMMAR])
def test_each_rule_of_the_grammar(argv, expected):
    if isinstance(expected, int):
        assert outcome(parse_args, argv) == ("exit", expected)
    else:
        command, fields, *fmt = expected
        config = CampaignConfig(command, **fields) if command != "table" else None
        assert outcome(parse_args, argv) == ("ok", command, *(fmt or ["text"]), config)
    if argv[:1] != ["--"]:
        assert oracle_outcome(argv) == outcome(parse_args, argv)


@pytest.mark.parametrize("argv, message", [
    (["aloha", "--s", "5"], "ambiguous option: --s could match --slots, --seed"),
    (["aloha", "--slots", "--seed", "5"], "argument --slots: expected one argument"),
    (["aloha", "--slots", "x"], "argument --slots: invalid int value: 'x'"),
    (["aloha", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')"),
])
def test_a_usage_error_prints_the_usage_and_the_error_and_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    assert stop.value.code == 2
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: entmac aloha [-h] [--slots N] [--seed S]")
    assert error == f"entmac aloha: error: {message}"


def test_a_stray_word_is_reported_with_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--bogus", "aloha", "foo"])
    assert stop.value.code == 2
    assert capsys.readouterr().err.splitlines()[1:] == [
        "entmac: error: unrecognized arguments: --bogus foo"]


# --- help ---------------------------------------------------------------------


def help_of(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    assert stop.value.code == 0
    assert err == ""
    return " ".join(out.split())


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_top_level_help_names_every_subcommand(capsys, argv):
    text = help_of(capsys, argv)
    assert text.startswith("usage: entmac")
    for name in [*PROTOCOLS, "table"]:
        assert f" {name} " in text


#: each config field's flag, and the text help gives for its default where that is not
#: the default itself
FLAG_OF = {"n_slots": "--slots", "seed": "--seed", "format": "--format", "workers": "--workers",
           "m": "--users", "p": "--p", "c_source": "--c-source"}
SHOWN = {None: "1/M"}


@pytest.mark.parametrize("command", [*PROTOCOLS, "table"])
def test_a_subcommand_help_lists_every_flag_with_its_default(capsys, command):
    text = help_of(capsys, [command, "--help"])
    defaults = vars(build_parser().parse_args([command]))
    del defaults["command"]
    for field, default in defaults.items():
        # the entry of the flag: from its name to the next flag's
        entry = text.split(f" {FLAG_OF[field]} ", 1)[1].split(" --", 1)[0]
        assert f"(default {SHOWN.get(default, default)}" in entry


def test_the_slots_help_states_the_ceiling(capsys):
    assert f"at most sys.maxsize = {sys.maxsize}" in help_of(capsys, ["aloha", "-h"])


# --- robustness: a slot count that can never run, and a failed write -----------


@pytest.mark.parametrize("slots", [2**63, 10**22])
def test_a_slot_count_above_sys_maxsize_exits_2_at_once(slots):
    proc = subprocess.run([sys.executable, "-m", "entmac", "aloha", "--slots", str(slots)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "n_slots" in proc.stderr


class FullStdout:
    """A stdout whose device is full."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    flush = write


def test_a_failed_write_returns_1_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(["aloha", "--slots", "100", "--format", "csv"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_run_whose_stdout_is_full_exits_1_with_one_line(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "entmac", "aloha", "--slots",
             "100", "--format", "csv"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"]
