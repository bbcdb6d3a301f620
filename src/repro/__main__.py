"""Command-line front end: ``python -m repro <command>``.

The commands live in :mod:`repro.cli`.  ``--json`` emits one versioned
envelope (:mod:`repro.schema`); ``repro --version`` prints the package
and schema versions.  Unknown benchmark or set names exit 2 with a
message on stderr; typed pipeline failures exit 1.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .cli import ops, paper, programs
from .schema import SCHEMA_VERSION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="branch working set analysis reproduction "
        "(Kim & Tyson, MICRO 1998)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} (schema {SCHEMA_VERSION})",
        help="print package and output-schema versions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (programs, paper, ops):
        family.register(sub)
    return parser


def main(argv=None) -> int:
    from .errors import ReproError, SelectionError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SelectionError as exc:
        # selector/shard usage errors (unknown benchmark or set, bad K/N
        # expression): exit 2 like argparse, with the registry's
        # near-miss suggestion in the message
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # unknown benchmark/kernel names surface as KeyError from the
        # registries; report them cleanly instead of a traceback
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ReproError as exc:
        # typed pipeline failures (a benchmark that keeps failing, a
        # fully degraded suite) exit 1 with the structured message
        print(f"error: [{exc.code}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
