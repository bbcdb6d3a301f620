"""The options several commands share, each declared once with its bound.

Every numeric option is checked when the arguments are parsed
(:func:`_bounded`), so an out-of-range value exits 2 with a usage
message instead of a traceback or a run that fails every job.  The
selection and scale rules are resolved here too: ``--set`` and
``--benchmarks`` union into one :class:`~repro.workloads.Selection`,
and a command's scale is an explicit ``--scale``, else the selection's
declared ``default_scale``, else the command's own default.
"""

from __future__ import annotations

import argparse
import math
from typing import Optional

from ..schema import dump, envelope
from ..sim.api import DEFAULT_BACKEND, backend_names
from ..workloads import Selection, resolve_selection


def _bounded(kind: type, low: float, strict: bool = False):
    """argparse ``type``: a finite *kind* value >= *low* (> if *strict*)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        too_low = value <= low if strict else value < low
        if too_low or not math.isfinite(value):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bound} {low}, got {text}"
            )
        return value

    return parse


def add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit the versioned JSON envelope "
                   "(see repro.schema) instead of prints")


def add_scale(
    p: argparse.ArgumentParser, default: float = 1.0, from_set: bool = False
) -> None:
    """``--scale``, finite and > 0.  With *from_set* it parses to None
    unless given, and :func:`resolve_scale` applies the set rule."""
    p.set_defaults(fallback_scale=default)
    rule = "the selected set's declared scale, else " if from_set else ""
    p.add_argument("--scale", type=_bounded(float, 0, strict=True),
                   default=None if from_set else default,
                   help=f"workload scale (default: {rule}{default})")


def add_cache(
    p: argparse.ArgumentParser,
    required: bool = False,
    help: str = "content-addressed artifact store directory",
) -> None:
    p.add_argument("--cache", required=required,
                   default=None if required else "", help=help)


def add_jobs(
    p: argparse.ArgumentParser,
    default: int = 1,
    help: str = "worker processes for benchmark simulation "
    "(1 = sequential)",
) -> None:
    p.add_argument("--jobs", type=_bounded(int, 1), default=default,
                   help=help)


def add_selection(
    p: argparse.ArgumentParser, help: str, positional: bool = False
) -> None:
    """``--set`` plus ``--benchmarks`` (or a positional ``benchmarks``)."""
    if positional:
        p.add_argument("benchmarks", nargs="*", help=help)
    else:
        p.add_argument("--benchmarks", default="", help=help)
    p.add_argument("--set", default="", metavar="EXPR",
                   help="benchmark selector expression over registered "
                   "sets/names/globs (e.g. unix+paper6-gcc, perl_*; "
                   "see docs/REGISTRY.md); unions with --benchmarks")


def add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=backend_names(),
                   default=DEFAULT_BACKEND,
                   help="simulation backend (superblock = compiled "
                   "traces, byte-identical artifacts)")


def add_timeout(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=_bounded(float, 0), default=0.0,
                   help="per-attempt wall-clock budget in seconds for "
                   "parallel jobs (0 = unbounded)")


def add_retries(
    p: argparse.ArgumentParser,
    help: str = "extra attempts per failed job before it is dropped "
    "from the run",
) -> None:
    p.add_argument("--retries", type=_bounded(int, 0), default=1,
                   help=help)


def add_checkpoint_every(
    p: argparse.ArgumentParser, default: int, low: int, help: str
) -> None:
    p.add_argument("--checkpoint-every", type=_bounded(int, low),
                   default=default, metavar="EVENTS", help=help)


def _selection(
    args: argparse.Namespace, default_set: str = ""
) -> Optional[Selection]:
    """Resolve ``--set`` / ``--benchmarks`` into one Selection.

    The two flags union: ``--set unix --benchmarks compress`` covers the
    UNIX analogs plus compress.  ``--benchmarks`` accepts the full
    selector grammar, so the historical comma form (``plot,pgp``) still
    parses — as a union expression, not a hand-rolled split.  With
    neither flag, *default_set* resolves (or None is returned and the
    command applies its own default).

    Raises:
        SelectionError: unknown names/sets (exit 2 via main()).
    """
    terms = [args.set] if args.set else []
    if isinstance(args.benchmarks, str):
        if args.benchmarks:
            terms.append(args.benchmarks)
    else:  # positional nargs="*" form
        terms.extend(args.benchmarks)
    if not terms:
        return resolve_selection(default_set) if default_set else None
    return resolve_selection(terms)


def resolve_scale(
    args: argparse.Namespace, selection: Optional[Selection]
) -> float:
    """An explicit ``--scale``, else the selection's declared scale (e.g.
    ``--set smoke`` runs at 0.05), else the command's default."""
    if args.scale is not None:
        return args.scale
    if selection is not None and selection.default_scale is not None:
        return selection.default_scale
    return args.fallback_scale


def _emit(command: str, params, results) -> None:
    """Print the versioned JSON envelope for a --json invocation."""
    print(dump(envelope(command, params, results)))


def _failures_payload(engine) -> list:
    """The envelope's ``failures`` array: one object per failed benchmark."""
    return [
        {"benchmark": name, **error.to_dict()}
        for name, error in sorted(engine.failures.items())
    ]
