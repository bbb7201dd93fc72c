"""Command-line interface.

Subcommands: aloha, superdense, hyperdense, compare, table. Exit status is
0 on success and 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .campaign import (
    C_SOURCES,
    DEFAULT_SEED,
    DEFAULT_SLOTS,
    FORMATS,
    CampaignConfig,
    ConfigError,
    enumerate_table,
    run_campaign,
)


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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--slots", type=int, default=DEFAULT_SLOTS, metavar="N",
                       help=f"number of slots/trials (default {DEFAULT_SLOTS})")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S",
                       help=f"master seed (default {DEFAULT_SEED})")
        add_format(p)
        p.add_argument("--workers", type=int, default=1, metavar="W",
                       help="worker threads; never changes the reported numbers")

    p_aloha = sub.add_parser("aloha", help="slotted-Aloha Monte Carlo and analytics")
    add_common(p_aloha)
    p_aloha.add_argument("--users", type=int, default=2, metavar="M",
                         help="number of users (default 2)")
    p_aloha.add_argument("--p", type=float, default=None, metavar="X",
                         help="per-user transmit probability (default 1/M)")

    add_common(sub.add_parser("superdense", help="superdense-coding roundtrip campaign"))

    p_hd = sub.add_parser("hyperdense", help="hyperdense-coding Monte Carlo")
    add_common(p_hd)
    p_hd.add_argument("--c-source", choices=C_SOURCES, default="qubit",
                      dest="c_source",
                      help="where the shared slot bit comes from (default qubit)")

    add_common(sub.add_parser("compare", help="three-way throughput comparison report"))

    add_format(sub.add_parser("table", help="print the eight-scenario table"))

    return parser


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    cfg = CampaignConfig(
        protocol=args.command,
        n_slots=args.slots,
        seed=args.seed,
    )
    if args.command == "aloha":
        cfg.m = args.users
        cfg.p = args.p
    if args.command == "hyperdense":
        cfg.c_source = args.c_source
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            out = enumerate_table(args.format)
        else:
            result = run_campaign(_config_from_args(args), workers=args.workers)
            out = result.render(args.format)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
