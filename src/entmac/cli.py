"""Command-line interface: ``entmac COMMAND [--flag VALUE | --flag=VALUE]...``.

COMMAND is one entry of ``campaign.PROTOCOLS``, or ``table``. Every flag is a
``campaign.Option``: ``COMMON`` holds the four that each simulation subcommand
takes, ``PROTOCOLS`` holds each protocol's own, and ``table`` takes
``--format`` alone. Both the parser and the help read these declarations.

The grammar is the one this CLI has always had. A flag may be written as
any unique prefix of its name, and the last of a repeated flag wins. A value may
start with "-" only where it reads as a negative number (or holds a space).
The words are read left to right: ``-h``/``--help`` prints help to stdout and
exits 0, and a missing value, a value its flag rejects or an ambiguous prefix
ends the parse where it stands. Unknown flags and stray words are reported
once every word is read. A usage error prints the usage line and
``entmac[ COMMAND]: error: MESSAGE`` to stderr and raises SystemExit(2).

Exit status: 0 on success or help, 1 when the output cannot be written, and 2
on a usage or configuration error.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Sequence

from .campaign import (
    FORMATS,
    PROTOCOLS,
    CampaignConfig,
    ConfigError,
    Option,
    enumerate_table,
    run_campaign,
)

DESCRIPTION = ("Simulate entanglement-assisted medium access (hyperdense coding) against its "
               "superdense-coding and slotted-Aloha references.")


def auto_or_int(text: str) -> int | str:
    """A --workers value: "auto" as given, else an int, which CampaignConfig checks."""
    return text if text == "auto" else int(text)


FORMAT = Option("--format", "format", FORMATS, None, "output format (default %(default)s)")

#: the flags of every simulation subcommand, ahead of its protocol's own
COMMON = (
    Option("--slots", "n_slots", int, "N",
           f"number of slots/trials, at most sys.maxsize = {sys.maxsize} (default %(default)s)"),
    Option("--seed", "seed", int, "S", "master seed (default %(default)s)"),
    FORMAT,
    Option("--workers", "workers", auto_or_int, "W",
           "processes, at most one per 65536-slot chunk and usable CPU; never changes the "
           "reported numbers (default auto: one per usable CPU on the pure backend, one on "
           "the compiled backend, where a chunk takes less time than a fork)"),
)

#: each subcommand's help line and flags
COMMANDS = {name: (protocol.help, COMMON + protocol.options)
            for name, protocol in PROTOCOLS.items()}
COMMANDS["table"] = ("print the eight-scenario table", (FORMAT,))

#: the default of every flag: its config field's, and text for --format
_DEFAULTS = dict(CampaignConfig._field_defaults, format="text")

_HELP = ("-h", "--help")


class _Usage(Exception):
    """A usage error, carrying its message."""


def _metavar(opt: Option) -> str:
    return opt.metavar or "{" + ",".join(opt.parse) + "}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: entmac [-h] {{{','.join(COMMANDS)}}} ...\n"
    flags = " ".join(f"[{opt.flag} {_metavar(opt)}]" for opt in COMMANDS[command][1])
    return f"usage: entmac {command} [-h] {flags}\n"


def _help(command: str | None) -> str:
    """The help of the program, or of one command: usage, description and a line per entry."""
    import textwrap

    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = DESCRIPTION
        sections = {"commands": [(name, about) for name, (about, _) in COMMANDS.items()],
                    "options": options}
    else:
        text, flags = COMMANDS[command]
        options += [(f"{opt.flag} {_metavar(opt)}", opt.help % {"default": _DEFAULTS[opt.field]})
                    for opt in flags]
        sections = {"options": options}
    width = 4 + max(len(name) for entries in sections.values() for name, _ in entries)
    lines = [_usage(command), textwrap.fill(text, 79)]
    for heading, entries in sections.items():
        lines += ["", f"{heading}:"]
        lines += [textwrap.fill(about, 79, initial_indent=f"  {name}".ljust(width),
                                subsequent_indent=" " * width) for name, about in entries]
    return "\n".join(lines) + "\n"


def _negative(word: str) -> bool:
    """Whether a word starting with "-" reads as a negative number: it matches
    ``^-\\d+$|^-\\d*\\.\\d+$``, where "$" also matches before a final newline."""
    whole, dot, fraction = word[1:].removesuffix("\n").partition(".")
    if dot:
        return fraction.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _read(word: str, names) -> tuple[str | None, str | None] | None:
    """How a word reads, given the flag names it may take.

    None for a value. Otherwise (name, inline value), where name is None for an
    unknown flag, and the inline value is the text after "=", or after "-h", or None.
    A "--" name can be written as any prefix of it that no other name shares.
    """
    if word[:1] != "-" or word == "-":
        return None
    if word in names:
        return word, None
    name, eq, inline = word.partition("=")
    if eq and name in names:
        return name, inline
    if word[1] == "-":
        matches = [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            raise _Usage(f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return matches[0], inline if eq else None
    elif word.startswith("-h"):
        return "-h", word[2:]
    if " " in word or _negative(word):
        return None
    return None, None


def _asks_help(name: str | None, inline: str | None) -> bool:
    """Whether a read flag asks for help; raises for help given a value.

    ``-hh`` is help too: it reads as two ``-h``.
    """
    if name not in _HELP:
        return False
    if inline is None or name == "-h" and inline and not inline.strip("h"):
        return True
    raise _Usage(f"argument -h/--help: ignored explicit argument {inline!r}")


def _convert(opt: Option, text: str):
    """The value of a flag's text; raises a usage error for text the flag rejects."""
    if isinstance(opt.parse, tuple):
        if text in opt.parse:
            return text
        raise _Usage(f"argument {opt.flag}: invalid choice: {text!r} "
                     f"(choose from {', '.join(map(repr, opt.parse))})")
    try:
        return opt.parse(text)
    except ValueError:
        raise _Usage(f"argument {opt.flag}: invalid {opt.parse.__name__} value: "
                     f"{text!r}") from None


def _parse_command(command: str, words: Sequence[str]) -> tuple[dict, list]:
    """The value of each flag of ``command`` (defaults included) and the stray words.

    Words after the first ``--`` are stray, and so is ``--`` itself.
    """
    options = {opt.flag: opt for opt in COMMANDS[command][1]}
    names = _HELP + tuple(options)
    values = {opt.field: _DEFAULTS[opt.field] for opt in options.values()}
    end = words.index("--") if "--" in words else len(words)
    stray = []
    i = 0
    while i < end:
        word = words[i]
        i += 1
        read = _read(word, names)
        if read is None or read[0] is None:
            stray.append(word)
            continue
        name, inline = read
        if _asks_help(name, inline):
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        opt = options[name]
        if inline is None:
            if i == end or _read(words[i], names) is not None:
                raise _Usage(f"argument {opt.flag}: expected one argument")
            inline = words[i]
            i += 1
        values[opt.field] = _convert(opt, inline)
    return values, stray + list(words[end:])


def parse_args(argv: Sequence[str]) -> tuple[str, str, dict]:
    """The command, the output format and the config fields that ``argv`` sets, defaults
    included; ``table`` sets none.

    ``-h``/``--help`` prints help and raises SystemExit(0). A usage error prints the usage
    line and the error to stderr and raises SystemExit(2).
    """
    usage_of = None  # the command whose usage a usage error prints
    try:
        stray = []
        for i, word in enumerate(argv):
            read = None if word == "--" else _read(word, _HELP)
            if read is None:
                break
            if _asks_help(*read):
                sys.stdout.write(_help(None))
                raise SystemExit(0)
            stray.append(word)
        else:
            raise _Usage("the following arguments are required: command")
        if word not in COMMANDS:
            raise _Usage(f"argument command: invalid choice: {word!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
        usage_of = word
        values, stray_after = _parse_command(word, argv[i + 1:])
        usage_of = None
        stray += stray_after
        if stray:
            raise _Usage(f"unrecognized arguments: {' '.join(stray)}")
    except _Usage as err:
        prog = "entmac" if usage_of is None else f"entmac {usage_of}"
        sys.stderr.write(f"{_usage(usage_of)}{prog}: error: {err}\n")
        raise SystemExit(2) from None
    return word, values.pop("format"), values


def main(argv: Sequence[str] | None = None) -> int:
    command, output_format, fields = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if command == "table":
            out = enumerate_table(output_format)
        else:
            out = run_campaign(CampaignConfig(command, **fields)).render(output_format)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    status = main()
    if status == 1:
        # stdout's buffer still holds the output it could not write: point its descriptor
        # at devnull, so that the interpreter's flush at exit succeeds and reports nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    # the process exits next: the collections that finalization runs would only traverse
    # objects whose memory the OS takes back, so move every tracked object out of their reach
    gc.freeze()
    sys.exit(status)
