"""Command-line interface.

Subcommands: one per entry of ``campaign.PROTOCOLS``, plus table. Exit
status is 0 on success and 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections.abc import Sequence

from .campaign import (
    FORMATS,
    PROTOCOLS,
    CampaignConfig,
    ConfigError,
    enumerate_table,
    run_campaign,
)

#: the default of every config field but protocol, which is also its flag's default
_DEFAULTS = CampaignConfig._field_defaults


def auto_or_int(text: str) -> int | str:
    """A --workers value: "auto" as given, else an int, which CampaignConfig checks."""
    return text if text == "auto" else int(text)


def build_parser() -> argparse.ArgumentParser:
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
        for opt in protocol.options:
            p.add_argument(opt.flag, dest=opt.field, default=_DEFAULTS[opt.field], **opt.kwargs)

    add_format(sub.add_parser("table", help="print the eight-scenario table"))

    return parser


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """The config of a simulation subcommand: each parsed flag that names a field."""
    fields = {k: v for k, v in vars(args).items() if k in _DEFAULTS}
    return CampaignConfig(protocol=args.command, **fields)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            out = enumerate_table(args.format)
        else:
            out = run_campaign(_config_from_args(args)).render(args.format)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


def run() -> None:
    status = main()
    # the process exits next: the collections that finalization runs would only traverse
    # objects whose memory the OS takes back, so move every tracked object out of their reach
    gc.freeze()
    sys.exit(status)
