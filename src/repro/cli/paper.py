"""Commands that produce the paper's numbers: ``profile``, ``allocate``,
``verify-static`` and ``experiment``.

``profile`` prints one benchmark's Table 2 row; ``allocate`` its Table
3/4 BHT sizing, or with ``--static`` an allocation from the static
conflict-graph estimate with no simulation.  ``verify-static`` scores
the Ball–Larus direction heuristics and the estimated conflict graphs
against measured profiles.  ``experiment`` runs a registered experiment
(table1..figure4, ablations) through the execution engine: ``--jobs N``
fans the simulations across a process pool, ``--cache DIR`` enables the
content-addressed artifact store, and ``--timeout``/``--retries`` bound
each job (failing benchmarks are dropped after their retries and the
exit is nonzero only when every benchmark failed).  With ``--set`` and
no id it only materialises a selection's artifacts, the distributed
``--shard K/N`` workhorse; ``repro merge-shards`` unions the stores.
"""

from __future__ import annotations

import argparse
import sys

from ..allocation import (
    BASELINE_BHT,
    BranchAllocator,
    ClassifiedBranchAllocator,
    conventional_cost,
    required_bht_size,
)
from ..analysis import working_set_metrics
from ..analysis.conflict_graph import auto_threshold
from ..errors import SuiteDegraded
from ..eval import interrupt
from ..eval.engine import ExecutionEngine, shard_subset
from ..eval.experiments import EXPERIMENTS, run_experiment
from ..eval.shards import ShardSpec
from ..workloads import build_workload, get_benchmark, resolve_benchmark
from .options import (
    _bounded,
    _emit,
    _failures_payload,
    _selection,
    add_backend,
    add_cache,
    add_checkpoint_every,
    add_jobs,
    add_json,
    add_retries,
    add_scale,
    add_selection,
    add_timeout,
    resolve_scale,
)


def _add_threshold(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=_bounded(int, 0), default=0,
                   help="edge threshold (0 = auto for scale)")


def _add_benchmark_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", help="benchmark analog name")
    add_scale(p)
    add_cache(p, help="trace cache directory")
    add_json(p)
    _add_threshold(p)


def cmd_profile(args: argparse.Namespace) -> int:
    resolve_benchmark(args.benchmark)
    engine = ExecutionEngine(
        scale=args.scale,
        cache_dir=args.cache or None,
        backend=args.backend,
    )
    threshold = args.threshold or auto_threshold(args.scale)
    metrics = working_set_metrics(
        engine.profile(args.benchmark), threshold=threshold
    )
    if args.json:
        _emit(
            "profile",
            {
                "benchmark": args.benchmark,
                "scale": args.scale,
                "threshold": threshold,
                "cache": args.cache or None,
                "backend": args.backend,
            },
            {
                "benchmark": metrics.name,
                "working_sets": metrics.total_sets,
                "average_static_size": metrics.average_static_size,
                "average_dynamic_size": metrics.average_dynamic_size,
                "largest_size": metrics.largest_size,
                "static_branches": metrics.static_branches,
                "threshold": metrics.threshold,
            },
        )
        return 0
    print(f"{metrics.name}: {metrics.total_sets} working sets, "
          f"avg static {metrics.average_static_size:.1f}, "
          f"avg dynamic {metrics.average_dynamic_size:.1f}, "
          f"largest {metrics.largest_size} "
          f"(of {metrics.static_branches} statics, "
          f"threshold {metrics.threshold})")
    return 0


def cmd_allocate(args: argparse.Namespace) -> int:
    resolve_benchmark(args.benchmark)
    threshold = args.threshold or auto_threshold(args.scale)
    if args.static:
        return _allocate_static(args, threshold)
    engine = ExecutionEngine(scale=args.scale, cache_dir=args.cache or None)
    profile = engine.profile(args.benchmark)
    plain = BranchAllocator(profile, threshold=threshold)
    baseline = conventional_cost(plain.graph, BASELINE_BHT)
    sizing3 = required_bht_size(plain, baseline)
    classified = ClassifiedBranchAllocator(profile, threshold=threshold)
    sizing4 = required_bht_size(classified, baseline, min_size=3)
    if args.json:
        _emit(
            "allocate",
            {
                "benchmark": args.benchmark,
                "scale": args.scale,
                "threshold": threshold,
                "static": False,
                "cache": args.cache or None,
            },
            {
                "benchmark": args.benchmark,
                "baseline_cost": baseline,
                "required_size_plain": sizing3.required_size,
                "required_size_classified": sizing4.required_size,
            },
        )
        return 0
    print(f"{args.benchmark}: baseline cost @{BASELINE_BHT} conventional "
          f"= {baseline}")
    print(f"  required BHT size (Table 3 style): {sizing3.required_size}")
    print(f"  with classification (Table 4):     {sizing4.required_size}")
    return 0


def _allocate_static(args: argparse.Namespace, threshold: int) -> int:
    """Profile-free allocation: build, estimate, colour.  No simulation."""
    from ..static_analysis import StaticConflictEstimator

    built = build_workload(get_benchmark(args.benchmark, scale=args.scale))
    estimate = StaticConflictEstimator(threshold=threshold).estimate(
        built.program
    )
    graph = estimate.graph
    allocator = BranchAllocator.from_graph(graph, threshold=threshold)
    allocation = allocator.allocate(args.bht)
    baseline = conventional_cost(graph, BASELINE_BHT)
    sizing = required_bht_size(allocator, baseline) if baseline else None
    if args.json:
        _emit(
            "allocate",
            {
                "benchmark": args.benchmark,
                "scale": args.scale,
                "threshold": threshold,
                "static": True,
                "bht": args.bht,
            },
            {
                "benchmark": args.benchmark,
                "program_instructions": len(built.program),
                "static_branches": built.static_conditional_branches,
                "natural_loops": len(estimate.loops.loops),
                "predicted_nodes": graph.node_count,
                "predicted_edges": graph.edge_count,
                "predicted_cost": allocation.cost,
                "shared_branches": len(allocation.shared_branches),
                "baseline_cost": baseline,
                "predicted_required_size": (
                    sizing.required_size if sizing else None
                ),
            },
        )
        return 0
    print(f"{args.benchmark}: static estimate (no profiling run)")
    print(f"  {len(built.program)} instructions, "
          f"{built.static_conditional_branches} static branches, "
          f"{len(estimate.loops.loops)} natural loops")
    print(f"  predicted conflict graph: {graph.node_count} nodes, "
          f"{graph.edge_count} edges (threshold {threshold})")
    print(f"  allocation @{args.bht} entries: predicted cost "
          f"{allocation.cost}, {len(allocation.shared_branches)} shared "
          f"branches")
    if sizing is not None:
        print(f"  predicted required BHT size: {sizing.required_size} "
              f"(vs conventional cost {baseline} @{BASELINE_BHT})")
    return 0


def cmd_verify_static(args: argparse.Namespace) -> int:
    from ..eval.static_compare import (
        format_verify_static,
        run_verify_static,
    )

    selection = _selection(args)
    scale = resolve_scale(args, selection)
    shard = ShardSpec.parse(args.shard) if args.shard else None
    engine = ExecutionEngine(
        scale=scale,
        cache_dir=args.cache or None,
        jobs=args.jobs,
        shard=shard,
        selection=selection.expression if selection else None,
    )
    # an explicit selection is sharded here; the default (None) path
    # shards inside run_verify_static over the full registry
    benchmarks = (
        shard_subset(engine, selection.names) if selection else None
    )
    rows = run_verify_static(
        engine,
        benchmarks=benchmarks,
        threshold=args.threshold or None,
    )
    if args.json:
        total_exec = sum(r.executions for r in rows)
        total_hits = sum(r.hits for r in rows)
        _emit(
            "verify-static",
            {
                "benchmarks": list(selection.names) if selection else [],
                "scale": scale,
                "threshold": args.threshold or None,
                "cache": args.cache or None,
                "jobs": args.jobs,
                "selection": selection.expression if selection else None,
                "shard": shard.tag if shard else None,
            },
            {
                "rows": [r.as_dict() for r in rows],
                "suite": {
                    "executions": total_exec,
                    "hits": total_hits,
                    "hit_rate": (
                        total_hits / total_exec if total_exec else None
                    ),
                },
                "failures": _failures_payload(engine),
            },
        )
    else:
        print(format_verify_static(rows))
    return 0 if rows else 1


def _materialise_selection(engine: ExecutionEngine, selection) -> str:
    """``experiment --set EXPR`` with no id: just produce the artifacts.

    The distributed-run workhorse — each host runs the same selector
    with its own ``--shard K/N`` against a private (or shared) store,
    and ``repro merge-shards`` unions the results afterwards.
    """
    local = shard_subset(engine, selection.names)
    if not local:
        return (
            f"(shard {engine.shard} owns no benchmarks of "
            f"{selection.expression!r}; nothing to do on this host)"
        )
    survivors = list(engine.prefetch(local))
    if not survivors:
        raise SuiteDegraded(
            f"every benchmark of selection {selection.expression!r} "
            f"failed ({', '.join(sorted(engine.failures))})",
            selection=selection.expression,
        )
    return (
        f"materialised {len(survivors)}/{len(local)} benchmark(s) of "
        f"{selection.expression!r}: {', '.join(survivors)}"
    )


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.checkpoint_every and not args.cache:
        print(
            "error: --checkpoint-every needs --cache (checkpoints live in "
            "the cache directory)",
            file=sys.stderr,
        )
        return 2
    selection = _selection(args)
    if not args.id and selection is None:
        print(
            "error: give an experiment id, a --set expression to "
            "materialise, or both",
            file=sys.stderr,
        )
        return 2
    shard = ShardSpec.parse(args.shard) if args.shard else None
    scale = resolve_scale(args, selection)
    engine = ExecutionEngine(
        scale=scale,
        cache_dir=args.cache or None,
        jobs=args.jobs,
        timeout=args.timeout or None,
        retries=args.retries,
        checkpoint_every_events=args.checkpoint_every or None,
        backend=args.backend,
        shard=shard,
        selection=selection.expression if selection else None,
    )
    experiment = EXPERIMENTS[args.id] if args.id else None
    params = {
        "id": args.id or None,
        "scale": scale,
        "jobs": args.jobs,
        "cache": args.cache or None,
        "timeout": args.timeout or None,
        "retries": args.retries,
        "checkpoint_every": args.checkpoint_every or None,
        "backend": args.backend,
        "selection": selection.expression if selection else None,
        "shard": shard.tag if shard else None,
    }
    try:
        # SIGTERM drains: workers checkpoint (with --checkpoint-every),
        # the journal records completed work, and the run exits 1 with a
        # typed suite_interrupted message; rerunning continues it.
        with interrupt.sigterm_drain():
            if experiment is not None:
                output = run_experiment(
                    args.id,
                    engine,
                    benchmarks=(
                        list(selection.names) if selection else None
                    ),
                )
            else:
                output = _materialise_selection(engine, selection)
    except SuiteDegraded as exc:
        if args.json:
            _emit(
                "experiment",
                params,
                {
                    "id": args.id or None,
                    "degraded": exc.to_dict(),
                    "failures": _failures_payload(engine),
                    "engine": engine.stats.as_dict(),
                },
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
            print(engine.stats.render(), file=sys.stderr)
        return 1
    if args.json:
        _emit(
            "experiment",
            params,
            {
                "id": experiment.id if experiment else None,
                "paper_artifact": (
                    experiment.paper_artifact if experiment else None
                ),
                "description": (
                    experiment.description if experiment else None
                ),
                "benchmarks": list(
                    selection.names
                    if selection
                    else experiment.benchmarks
                ),
                "output": output,
                "failures": _failures_payload(engine),
                "engine": engine.stats.as_dict(),
            },
        )
        return 0
    print(output)
    print()
    print(engine.stats.render())
    return 0


def register(sub) -> None:
    """Declare this family's subcommands and the handlers they run."""
    p = sub.add_parser("profile", help="Table 2 row")
    _add_benchmark_options(p)
    add_backend(p)
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("allocate", help="Table 3/4 sizing")
    _add_benchmark_options(p)
    p.add_argument("--static", action="store_true",
                   help="allocate from the static conflict-graph "
                   "estimate (no profiling or simulation)")
    p.add_argument("--bht", type=_bounded(int, 1), default=128,
                   help="BHT entries for the static allocation")
    p.set_defaults(handler=cmd_allocate)

    p = sub.add_parser(
        "verify-static",
        help="score static heuristics and graph estimates vs profiles",
    )
    add_selection(p, positional=True,
                  help="benchmark analogs or selector terms "
                  "(default: full suite)")
    p.add_argument("--shard", default="", metavar="K/N",
                   help="run only this host's deterministic slice "
                   "of the selection")
    add_scale(p, from_set=True)
    add_cache(p, help="trace cache directory")
    add_jobs(p, help="worker processes for the profiling runs")
    _add_threshold(p)
    add_json(p)
    p.set_defaults(handler=cmd_verify_static)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("id", nargs="?", choices=sorted(EXPERIMENTS),
                   help="experiment id; omit it (with --set/"
                   "--benchmarks) to just materialise a selection's "
                   "artifacts — the distributed-shard workhorse")
    add_selection(p, help="benchmark selector expression overriding the "
                  "experiment's declared list (unions with --set)")
    p.add_argument("--shard", default="", metavar="K/N",
                   help="run shard K of an N-way partitioned suite "
                   "run; merge the stores with `repro merge-shards`")
    add_scale(p, from_set=True)
    add_cache(p)
    add_jobs(p)
    add_timeout(p)
    add_retries(p)
    add_checkpoint_every(
        p, default=0, low=0,
        help="snapshot simulator+pipeline state every N branch events so "
        "retried/killed jobs resume instead of cold-starting (needs "
        "--cache)",
    )
    add_backend(p)
    add_json(p)
    p.set_defaults(handler=cmd_experiment)
