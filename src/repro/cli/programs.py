"""Commands over one assembled program: ``list``, ``run``, ``disasm``,
``cfg`` and ``lint``.

``list`` names the benchmark analogs, kernels and benchmark sets;
``run`` simulates one analog and prints its run statistics; ``disasm``
prints a workload's program listing; ``cfg`` summarises its static
control-flow graph (blocks, loops, functions); ``lint`` runs the static
verifier over one benchmark or ``--all`` of them, where ``--strict``
fails on warnings too and ``--waive BENCH:CODE`` suppresses a known
finding.  ``lint`` exits 1 when any program has unwaived errors.
"""

from __future__ import annotations

import argparse
import sys

from ..workloads import (
    benchmark_sets,
    benchmark_suite,
    build_workload,
    get_benchmark,
    kernel_registry,
    resolve_benchmark,
    run_workload,
)
from .options import _bounded, _emit, add_backend, add_json, add_scale


def cmd_list(args: argparse.Namespace) -> int:
    suite = benchmark_suite()
    kernels = sorted(kernel_registry().items())
    sets = benchmark_sets()
    if args.json:
        _emit(
            "list",
            {},
            {
                "benchmarks": [
                    {"name": name, "description": spec.description}
                    for name, spec in suite.items()
                ],
                "kernels": [
                    {"name": name, "description": spec.description}
                    for name, spec in kernels
                ],
                "sets": [
                    {
                        "name": s.name,
                        "members": list(s.members),
                        "count": len(s.members),
                        "default_scale": s.default_scale,
                        "description": s.description,
                    }
                    for s in sets.values()
                ],
            },
        )
        return 0
    print("benchmark analogs:")
    for name, spec in suite.items():
        print(f"  {name:10s} {spec.description}")
    print("\nkernels:")
    for name, spec in kernels:
        print(f"  {name:10s} {spec.description}")
    print("\nbenchmark sets (selector terms — see docs/REGISTRY.md):")
    for s in sets.values():
        print(f"  {s.name:10s} {len(s.members):2d} benchmark(s), "
              f"scale {s.default_scale:g} — {s.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = get_benchmark(resolve_benchmark(args.benchmark), scale=args.scale)
    built = build_workload(spec)
    result = run_workload(built, backend=args.backend)
    checksum = result.output.decode().strip()
    if args.json:
        _emit(
            "run",
            {
                "benchmark": args.benchmark,
                "scale": args.scale,
                "backend": args.backend,
            },
            {
                "benchmark": spec.name,
                "program_instructions": len(built.program),
                "static_branches": built.static_conditional_branches,
                "retired_instructions": result.instructions,
                "conditional_branches": result.conditional_branches,
                "taken_rate": result.taken_rate,
                "halted": result.halted,
                "checksum": checksum,
            },
        )
        return 0
    print(f"{spec.name}: {len(built.program)} instructions, "
          f"{built.static_conditional_branches} static branches")
    print(f"retired {result.instructions} instructions, "
          f"{result.conditional_branches} conditional branches "
          f"({result.taken_rate:.1%} taken), "
          f"{'halted' if result.halted else 'fuel-capped'}")
    print(f"driver checksum: {checksum}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    resolve_benchmark(args.benchmark)
    built = build_workload(get_benchmark(args.benchmark, scale=args.scale))
    listing = built.program.listing()
    if args.head:
        lines = listing.splitlines()
        listing = "\n".join(lines[: args.head])
        listing += f"\n... ({len(lines) - args.head} more lines)"
    print(listing)
    return 0


def cmd_cfg(args: argparse.Namespace) -> int:
    from ..static_analysis import build_cfg, find_loops

    resolve_benchmark(args.benchmark)
    built = build_workload(get_benchmark(args.benchmark, scale=args.scale))
    cfg = build_cfg(built.program)
    forest = find_loops(cfg)
    branches = cfg.conditional_branches()
    in_loops = sum(1 for _, block in branches if forest.by_block.get(block))
    reachable = cfg.reachable_blocks()
    max_depth = max((l.depth for l in forest.loops), default=0)
    print(f"{args.benchmark}: {len(built.program)} instructions")
    print(f"  blocks:     {cfg.block_count} "
          f"({len(reachable)} reachable), {cfg.edge_count} edges")
    print(f"  functions:  {len(cfg.function_entries)} entries, "
          f"{len(cfg.call_sites)} call sites, "
          f"{len(cfg.indirect_targets)} address-taken labels")
    print(f"  loops:      {len(forest.loops)} natural loops, "
          f"max nesting depth {max_depth}")
    print(f"  branches:   {len(branches)} conditional, "
          f"{in_loops} inside a local loop body")
    if args.loops:
        for loop in sorted(
            forest.loops, key=lambda l: (l.depth, cfg.address_of(
                cfg.blocks[l.header]))
        ):
            print(f"    depth {loop.depth}: header "
                  f"0x{cfg.address_of(cfg.blocks[loop.header]):08x}, "
                  f"{len(loop.body)} blocks, "
                  f"{len(loop.back_edges)} back edge(s)")
    return 0


def _parse_waivers(specs) -> set:
    """``--waive BENCH:CODE`` pairs -> {(benchmark, code)}.

    Raises:
        ValueError: on a malformed spec (the caller exits 2).
    """
    waived = set()
    for spec in specs or ():
        bench, sep, code = spec.partition(":")
        if not sep or not bench or not code:
            raise ValueError(
                f"malformed --waive {spec!r} (expected BENCH:CODE)"
            )
        waived.add((bench, code))
    return waived


def cmd_lint(args: argparse.Namespace) -> int:
    from ..static_analysis import lint_program

    if args.all:
        names = sorted(benchmark_suite())
    elif args.benchmark:
        names = [resolve_benchmark(args.benchmark)]
    else:
        print("error: give a benchmark name or --all", file=sys.stderr)
        return 2
    try:
        waivers = _parse_waivers(args.waive)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    waived_count = 0
    reports = []
    for name in names:
        built = build_workload(get_benchmark(name, scale=args.scale))
        report = lint_program(built.program)
        reports.append(report)
        live = [
            d for d in report.diagnostics if (name, d.code) not in waivers
        ]
        waived_count += len(report.diagnostics) - len(live)
        if args.strict:
            failed = failed or bool(live)
        else:
            failed = failed or any(d.severity == "error" for d in live)
        if args.json:
            continue
        if report.clean and args.all:
            print(f"{name}: clean")
        else:
            print(report.render())
    if args.json:
        _emit(
            "lint",
            {
                "benchmark": args.benchmark or None,
                "all": args.all,
                "scale": args.scale,
                "strict": args.strict,
                "waive": sorted(f"{b}:{c}" for b, c in waivers),
            },
            {
                "reports": [r.as_dict() for r in reports],
                "failed": failed,
                "waived": waived_count,
            },
        )
    return 1 if failed else 0


def register(sub) -> None:
    """Declare this family's subcommands and the handlers they run."""
    p = sub.add_parser(
        "list", help="list benchmarks, kernels and benchmark sets"
    )
    add_json(p)
    p.set_defaults(handler=cmd_list)

    p = sub.add_parser("run", help="simulate a benchmark analog")
    p.add_argument("benchmark")
    add_scale(p)
    add_backend(p)
    add_json(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("disasm", help="print a workload's listing")
    p.add_argument("benchmark")
    add_scale(p)
    p.add_argument("--head", type=_bounded(int, 0), default=0,
                   help="only the first N lines (0 = all)")
    p.set_defaults(handler=cmd_disasm)

    p = sub.add_parser("cfg", help="static control-flow summary")
    p.add_argument("benchmark")
    add_scale(p)
    p.add_argument("--loops", action="store_true",
                   help="also list every natural loop")
    p.set_defaults(handler=cmd_cfg)

    p = sub.add_parser("lint", help="static verifier diagnostics")
    p.add_argument("benchmark", nargs="?", default="")
    p.add_argument("--all", action="store_true",
                   help="lint every registered benchmark analog")
    add_scale(p)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any unwaived diagnostic, "
                   "warnings included")
    p.add_argument("--waive", action="append", default=[],
                   metavar="BENCH:CODE",
                   help="suppress one diagnostic code for one "
                   "benchmark (repeatable)")
    add_json(p)
    p.set_defaults(handler=cmd_lint)
