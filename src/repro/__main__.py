"""Command-line front end: ``python -m repro <command>``.

Commands
--------
``list``        — the benchmark analogs and registered kernels.
``run``         — simulate one benchmark analog, print run statistics.
``profile``     — profile a benchmark and print its Table 2 row.
``allocate``    — branch allocation sizing for one benchmark (Table 3/4);
                  ``--static`` allocates from the static conflict-graph
                  estimate instead, with no profiling or simulation step.
``cfg``         — static control-flow summary (blocks, loops, functions).
``lint``        — static verifier diagnostics for one benchmark or --all;
                  ``--strict`` fails on warnings too and ``--waive
                  BENCH:CODE`` suppresses known findings.
``verify-static`` — score the Ball–Larus direction heuristics and the
                  estimated conflict graphs against measured profiles
                  (dynamic-weighted hit rate, per-heuristic breakdown,
                  working-set shape, edge precision/recall).
``experiment``  — run a registered experiment (table1..figure4, ablations);
                  ``--jobs N`` fans the benchmark simulations across a
                  process pool and ``--cache DIR`` enables the
                  content-addressed artifact store (per-job timing and
                  hit/miss counters are reported either way).
                  ``--timeout``/``--retries`` bound each job: failing
                  benchmarks are retried with backoff and then dropped,
                  the experiment runs on the survivors, and the exit is
                  nonzero only when *every* benchmark failed.
``faults``      — fault-injection demo: runs a benchmark subset with
                  injected worker crashes / hangs / flaky failures /
                  cache corruption, then a clean recovery pass proving
                  quarantined entries are resimulated.
``serve``       — run the analysis-as-a-service daemon on a unix socket:
                  bounded admission queue with load shedding, per-tenant
                  token-bucket quotas, per-job deadlines, SIGTERM drain
                  and journal-driven crash recovery (docs/SERVICE.md).
``loadgen``     — open-loop load generator against a running daemon;
                  reports jobs/sec, p50/p99 latency, cache-hit ratio and
                  shed rate, with optional slow_client/conn_drop fault
                  modes.
``merge-shards`` — union shard artifact stores and journals into one
                  suite store after a distributed ``--shard K/N`` run,
                  byte-verifying artifacts two shards both produced;
                  partial shards (a journal torn by a mid-run death)
                  merge with warnings instead of aborting.
``supervise``   — crash-safe supervised distributed run: one parent
                  orchestrator spawns ``--workers N`` shard engines
                  over a shared store, heartbeat-leases them, restarts
                  dead shards on what the store lacks (bounded backoff),
                  reassigns exhausted shards' work, speculatively
                  re-executes tail stragglers, and auto-merges to a
                  byte-verified result.  SIGTERM drains: workers
                  checkpoint, the partial result is merged, and the
                  exit is honest (0 on a clean drain).  Also reachable
                  as ``experiment --workers N``.
``disasm``      — assemble a workload and print its program listing.

``list`` also enumerates the registered benchmark *sets*; selection-aware
commands (``experiment``, ``verify-static``, ``faults``, ``loadgen``)
accept ``--set EXPR`` selector expressions over them
(``unix+paper6-gcc``, ``all-variants``, ``perl_*`` — see
docs/REGISTRY.md), and ``experiment``/``verify-static`` accept
``--shard K/N`` to run one deterministic slice of a distributed suite
run.

``run``, ``profile``, ``allocate``, ``lint``, ``verify-static``,
``experiment``, ``faults`` and ``loadgen`` accept
``--json`` and then emit one versioned envelope
(``{schema_version, command, params, results}`` — see
:mod:`repro.schema`) instead of the human-readable prints.

``repro --version`` prints the package version together with the output
schema version the envelopes carry.

Unknown benchmark names exit with status 2 and a message on stderr.
``lint`` exits 1 when any program has errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import __version__
from .allocation import (
    BranchAllocator,
    ClassifiedBranchAllocator,
    conventional_cost,
    required_bht_size,
)
from .analysis import working_set_metrics
from .checkpoint import DEFAULT_CHECKPOINT_EVERY
from .errors import SuiteDegraded
from .eval import interrupt
from .eval.engine import ExecutionEngine, shard_subset, surviving_benchmarks
from .eval.experiments import EXPERIMENTS, run_experiment
from .eval.shards import ShardSpec
from .schema import SCHEMA_VERSION, dump, envelope
from .sim.api import DEFAULT_BACKEND, backend_names
from .workloads import (
    benchmark_sets,
    benchmark_suite,
    build_workload,
    get_benchmark,
    kernel_registry,
    resolve_benchmark,
    resolve_selection,
    run_workload,
)


def _threshold_for(scale: float) -> int:
    return 100 if scale >= 0.9 else 10


def _emit(args: argparse.Namespace, command: str, params, results) -> None:
    """Print the versioned JSON envelope for a --json invocation."""
    print(dump(envelope(command, params, results)))


def _selection(args: argparse.Namespace, default_set: str = ""):
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
    terms = []
    if getattr(args, "set", ""):
        terms.append(args.set)
    raw = getattr(args, "benchmarks", None)
    if isinstance(raw, str):
        if raw:
            terms.append(raw)
    elif raw:  # positional nargs="*" form
        terms.extend(raw)
    if not terms:
        return resolve_selection(default_set) if default_set else None
    return resolve_selection(terms)


def cmd_list(args: argparse.Namespace) -> int:
    suite = benchmark_suite()
    kernels = sorted(kernel_registry().items())
    sets = benchmark_sets()
    if args.json:
        _emit(
            args,
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
                        "default_trace_limit": s.default_trace_limit,
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
        defaults = f"scale {s.default_scale:g}"
        if s.default_trace_limit:
            defaults += f", trace limit {s.default_trace_limit}"
        print(f"  {s.name:10s} {len(s.members):2d} benchmark(s), "
              f"{defaults} — {s.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = get_benchmark(resolve_benchmark(args.benchmark), scale=args.scale)
    built = build_workload(spec)
    result = run_workload(built, backend=args.backend)
    checksum = result.output.decode().strip()
    if args.json:
        _emit(
            args,
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


def cmd_profile(args: argparse.Namespace) -> int:
    resolve_benchmark(args.benchmark)
    engine = ExecutionEngine(
        scale=args.scale,
        cache_dir=args.cache or None,
        backend=args.backend,
    )
    threshold = args.threshold or _threshold_for(args.scale)
    metrics = working_set_metrics(
        engine.profile(args.benchmark), threshold=threshold
    )
    if args.json:
        _emit(
            args,
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
    threshold = args.threshold or _threshold_for(args.scale)
    if args.static:
        return _allocate_static(args, threshold)
    engine = ExecutionEngine(scale=args.scale, cache_dir=args.cache or None)
    profile = engine.profile(args.benchmark)
    plain = BranchAllocator(profile, threshold=threshold)
    baseline = conventional_cost(plain.graph, 1024)
    sizing3 = required_bht_size(plain, baseline)
    classified = ClassifiedBranchAllocator(profile, threshold=threshold)
    sizing4 = required_bht_size(classified, baseline, min_size=3)
    if args.json:
        _emit(
            args,
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
    print(f"{args.benchmark}: baseline cost @1024 conventional = {baseline}")
    print(f"  required BHT size (Table 3 style): {sizing3.required_size}")
    print(f"  with classification (Table 4):     {sizing4.required_size}")
    return 0


def _allocate_static(args: argparse.Namespace, threshold: int) -> int:
    """Profile-free allocation: build, estimate, colour.  No simulation."""
    from .static_analysis import StaticConflictEstimator

    if args.bht < 1:
        print(f"error: --bht must be positive, got {args.bht}",
              file=sys.stderr)
        return 2
    built = build_workload(get_benchmark(args.benchmark, scale=args.scale))
    estimate = StaticConflictEstimator(threshold=threshold).estimate(
        built.program
    )
    graph = estimate.graph
    allocator = BranchAllocator.from_graph(graph, threshold=threshold)
    allocation = allocator.allocate(args.bht)
    baseline = conventional_cost(graph, 1024)
    sizing = required_bht_size(allocator, baseline) if baseline else None
    if args.json:
        _emit(
            args,
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
              f"(vs conventional cost {baseline} @1024)")
    return 0


def cmd_cfg(args: argparse.Namespace) -> int:
    from .static_analysis import build_cfg, find_loops

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
        SystemExit-friendly ValueError via the caller on a malformed spec.
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
    from .static_analysis import lint_program

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
            args,
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


def cmd_verify_static(args: argparse.Namespace) -> int:
    from .eval.static_compare import (
        format_verify_static,
        run_verify_static,
    )

    selection = _selection(args)
    shard = ShardSpec.parse(args.shard) if args.shard else None
    engine = ExecutionEngine(
        scale=args.scale,
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
            args,
            "verify-static",
            {
                "benchmarks": list(selection.names) if selection else [],
                "scale": args.scale,
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
        return 0 if rows else 1
    print(format_verify_static(rows))
    return 0 if rows else 1


def _failures_payload(engine: ExecutionEngine) -> list:
    """The envelope's ``failures`` array: one object per failed benchmark."""
    return [
        {"benchmark": name, **error.to_dict()}
        for name, error in sorted(engine.failures.items())
    ]


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
    engine.prefetch(local)
    survivors = surviving_benchmarks(engine, local)
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
    scale = args.scale
    if scale is None:
        # a set's declared default scale applies when the user did not
        # pick one (e.g. `--set smoke` runs at 0.05)
        scale = (
            selection.default_scale
            if selection is not None and selection.default_scale is not None
            else 1.0
        )
    sup_report = None
    workers = getattr(args, "workers", 0) or 0
    if workers > 1:
        from .errors import ShardRestartsExhausted, SuiteInterrupted

        if not args.cache:
            print(
                "error: --workers needs --cache (the shared store the "
                "shard workers cooperate through)",
                file=sys.stderr,
            )
            return 2
        if shard is not None:
            print(
                "error: --workers and --shard are mutually exclusive "
                "(the supervisor computes the partition itself)",
                file=sys.stderr,
            )
            return 2
        names = (
            list(selection.names)
            if selection
            else list(EXPERIMENTS[args.id].benchmarks)
        )
        sup_report = _run_supervised(
            args, names, scale, selection.expression if selection else None
        )
        if sup_report.interrupted:
            raise SuiteInterrupted(
                "supervised run drained on SIGTERM; rerun the same "
                "command",
                completed=list(sup_report.completed),
                remaining=list(sup_report.remaining),
            )
        if sup_report.exhausted:
            raise ShardRestartsExhausted(
                f"{len(sup_report.lost)} benchmark(s) lost after every "
                "shard slot exhausted its restart budget: "
                + ", ".join(sup_report.lost),
                benchmarks=list(sup_report.lost),
            )
    # after a supervised pass the store is warm: this engine assembles
    # the experiment output from store hits, simulating nothing
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
        "workers": workers or None,
    }
    try:
        # SIGTERM drains instead of killing: workers checkpoint, the
        # journal records completed work, and the run exits 1 with a
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
                args,
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
            args,
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
                "supervisor": (
                    sup_report.as_dict() if sup_report else None
                ),
            },
        )
        return 0
    print(output)
    print()
    if sup_report is not None:
        print(sup_report.render())
        print()
    print(engine.stats.render())
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection demo: poisoned pass, then a clean recovery pass."""
    import json as json_mod
    import shutil
    import tempfile

    from .eval.faults import FaultPlan

    selection = _selection(args, default_set="smoke")
    names = list(selection.names)
    scale = args.scale
    if scale is None:
        scale = (
            selection.default_scale
            if selection.default_scale is not None
            else 0.05
        )
    crash = [args.crash] if args.crash else []
    corrupt = [args.corrupt] if args.corrupt else []
    if not any(
        (args.crash, args.hang, args.flaky, args.corrupt, args.kill)
    ):
        # default demo: one worker dies hard, one cache entry is damaged
        crash = [names[0]]
        corrupt = [names[-1]]
    # worker_kill proves checkpoint/resume, which needs an artifact store
    # for the checkpoint directory and periodic snapshots to restore from
    checkpoint_every = args.checkpoint_every or (
        DEFAULT_CHECKPOINT_EVERY if args.kill else None
    )
    kill = {}
    if args.kill:
        # by default the kill lands half a cadence past the first
        # checkpoint, so the retry has one to resume from
        bench, _, events = args.kill.partition(":")
        kill[bench] = int(events or checkpoint_every * 3 // 2)
    state_dir = tempfile.mkdtemp(prefix="repro-faults-")
    cache_dir = args.cache or None
    cache_is_temp = cache_dir is None and bool(corrupt or kill)
    if cache_is_temp:
        cache_dir = tempfile.mkdtemp(prefix="repro-faults-cache-")
    flaky = {}
    if args.flaky:
        bench, _, count = args.flaky.partition(":")
        flaky[bench] = int(count or 1)
    plan = FaultPlan(
        worker_crash=tuple(crash),
        worker_hang=(args.hang,) if args.hang else (),
        flaky=flaky,
        corrupt_trace=tuple(corrupt),
        worker_kill=kill,
        hang_seconds=(args.timeout or 5.0) * 3,
        state_dir=state_dir,
    )
    try:
        with plan.installed():
            poisoned = ExecutionEngine(
                scale=scale,
                cache_dir=cache_dir,
                jobs=args.jobs,
                timeout=args.timeout or None,
                retries=args.retries,
                checkpoint_every_events=checkpoint_every,
            )
            poisoned.prefetch(names)
        recovery = ExecutionEngine(
            scale=scale,
            cache_dir=cache_dir,
            jobs=args.jobs,
            timeout=args.timeout or None,
            retries=args.retries,
            checkpoint_every_events=checkpoint_every,
        )
        recovered = recovery.prefetch(names)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        if cache_is_temp:
            shutil.rmtree(cache_dir, ignore_errors=True)
    ok = len(recovered) == len(names)
    if args.json:
        _emit(
            args,
            "faults",
            {
                "benchmarks": names,
                "selection": selection.expression,
                "scale": scale,
                "jobs": args.jobs,
                "cache": args.cache or None,
                "timeout": args.timeout or None,
                "retries": args.retries,
                "checkpoint_every": checkpoint_every,
            },
            {
                "plan": json_mod.loads(plan.to_json()),
                "injected": poisoned.stats.as_dict(),
                "failures": [
                    {"benchmark": name, **error.to_dict()}
                    for name, error in sorted(poisoned.failures.items())
                ],
                "recovery": recovery.stats.as_dict(),
                "recovered": sorted(recovered),
            },
        )
        return 0 if ok else 1
    print("== poisoned pass ==")
    print(poisoned.stats.render())
    print()
    print("== clean recovery pass ==")
    print(recovery.stats.render())
    print(
        f"\nrecovered {len(recovered)}/{len(names)} benchmark(s): "
        + (", ".join(sorted(recovered)) or "none")
    )
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon until it drains (SIGTERM) or dies."""
    from .service import ServiceConfig, serve

    try:
        config = ServiceConfig(
            socket_path=args.socket,
            cache_dir=args.cache,
            workers=args.workers,
            queue_limit=args.queue_limit,
            retries=args.retries,
            quota_rate=args.quota_rate,
            quota_burst=args.quota_burst,
            checkpoint_every=args.checkpoint_every,
            default_deadline_s=args.deadline or None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"repro serve: socket {args.socket}  cache {args.cache}  "
        f"workers {args.workers}  queue {args.queue_limit}",
        file=sys.stderr,
        flush=True,
    )
    return serve(config)


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load generation against a running daemon."""
    from .eval.faults import FaultPlan, active_plan
    from .service import LoadgenConfig, run_loadgen

    selection = _selection(args, default_set="plot")
    config = LoadgenConfig(
        socket_path=args.socket,
        rate=args.rate,
        jobs=args.jobs,
        benchmarks=selection.names,
        tenants=tuple(f"tenant-{i}" for i in range(max(1, args.tenants))),
        scale=args.scale,
        backend=args.backend,
        predictors=tuple(p for p in args.predictors.split(",") if p),
        deadline_s=args.deadline or None,
    )
    plan = active_plan()
    if args.slow_client or args.conn_drop:
        plan = FaultPlan(
            slow_client=args.slow_client, conn_drop=args.conn_drop
        )
    report = run_loadgen(config, plan=plan)
    params = {
        "socket": args.socket,
        "rate": args.rate,
        "jobs": args.jobs,
        "benchmarks": list(config.benchmarks),
        "selection": selection.expression,
        "tenants": len(config.tenants),
        "scale": args.scale,
        "backend": args.backend,
        "predictors": list(config.predictors),
        "deadline_s": args.deadline or None,
        "slow_client": args.slow_client,
        "conn_drop": args.conn_drop,
    }
    if args.json:
        _emit(args, "loadgen", params, report)
    else:
        print(
            f"{report['jobs']} job(s) at {report['rate_hz']:g}/s over "
            f"{report['duration_s']:.2f}s: "
            f"{report['completed']} completed, "
            f"{report['rejected']} rejected "
            f"({report['rejected_overloaded']} shed, "
            f"{report['rejected_quota']} over quota), "
            f"{report['failed']} failed, {report['dropped']} dropped"
        )
        print(
            f"throughput {report['jobs_per_sec']:.2f} jobs/s  "
            f"p50 {report['latency_p50_s']:.3f}s  "
            f"p99 {report['latency_p99_s']:.3f}s  "
            f"cache-hit {report['cache_hit_ratio']:.2f}  "
            f"shed-rate {report['shed_rate']:.2f}"
        )
    return 1 if report["failed"] else 0


def cmd_merge_shards(args: argparse.Namespace) -> int:
    """Union N shard artifact stores + journals into one suite store."""
    from .eval.shards import merge_shards

    report = merge_shards(args.sources, args.into)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        _emit(
            args,
            "merge-shards",
            {"sources": list(args.sources), "into": args.into},
            report.as_dict(),
        )
        return 0
    print(
        f"merged {len(report.sources)} shard store(s) into "
        f"{report.destination}:"
    )
    print(f"  artifacts: {report.artifacts_copied} copied, "
          f"{report.artifacts_identical} already present (byte-verified)")
    print(f"  journal:   {sum(report.journal_records.values())} record(s) "
          f"unioned, {report.journal_skipped} damaged line(s) skipped")
    print(f"  stored:    {len(report.benchmarks)} benchmark(s): "
          + (", ".join(report.benchmarks) or "none"))
    return 0


def _run_supervised(
    args: argparse.Namespace,
    names: Sequence[str],
    scale: float,
    selection: Optional[str],
):
    """Build and run the :class:`ShardSupervisor` from CLI arguments.

    The one construction site for ``supervise`` and ``experiment
    --workers``; the latter has no restart, lease or speculation flags
    and runs with ``supervise``'s defaults for them.
    """
    from .eval.supervisor import (
        DEFAULT_MAX_RESTARTS,
        LEASE_TIMEOUT_SECONDS,
        ShardSupervisor,
    )

    # the flags default to None so that building the parser does not
    # import the supervisor; resolved here, for the envelope too
    if getattr(args, "max_restarts", None) is None:
        args.max_restarts = DEFAULT_MAX_RESTARTS
    if getattr(args, "lease_timeout", None) is None:
        args.lease_timeout = LEASE_TIMEOUT_SECONDS
    supervisor = ShardSupervisor(
        names,
        workers=args.workers,
        store_root=args.cache,
        scale=scale,
        backend=args.backend,
        checkpoint_every_events=(
            args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
        ),
        retries=args.retries,
        max_restarts=args.max_restarts,
        lease_timeout=args.lease_timeout,
        speculate=not getattr(args, "no_speculate", False),
        selection=selection,
    )
    with interrupt.sigterm_drain():
        return supervisor.run()


def cmd_supervise(args: argparse.Namespace) -> int:
    """Supervised N-worker distributed suite run over a shared store."""
    from .errors import ShardRestartsExhausted

    selection = _selection(args)
    if selection is None:
        print(
            "error: give --set and/or --benchmarks to select what to "
            "supervise",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    scale = args.scale
    if scale is None:
        scale = (
            selection.default_scale
            if selection.default_scale is not None
            else 1.0
        )
    report = _run_supervised(
        args, selection.names, scale, selection.expression
    )
    if report.merge is not None:
        for warning in report.merge.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        _emit(
            args,
            "supervise",
            {
                "selection": selection.expression,
                "benchmarks": list(selection.names),
                "workers": args.workers,
                "scale": scale,
                "cache": args.cache,
                "backend": args.backend,
                "retries": args.retries,
                "checkpoint_every": (
                    args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
                ),
                "max_restarts": args.max_restarts,
                "lease_timeout": args.lease_timeout,
                "speculate": not args.no_speculate,
            },
            report.as_dict(),
        )
    else:
        print(report.render())
    if report.interrupted:
        # an honest drain: completed work is durable and merged; a rerun
        # of the same command continues it.  Exit 0.
        return 0
    if report.exhausted:
        raise ShardRestartsExhausted(
            f"{len(report.lost)} benchmark(s) lost: every shard slot "
            "that could run them exhausted its restart budget "
            f"({', '.join(report.lost)})",
            benchmarks=list(report.lost),
            max_restarts=args.max_restarts,
        )
    return 1 if report.failed else 0


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

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit the versioned JSON envelope "
                       "(see repro.schema) instead of prints")

    def add_set(p: argparse.ArgumentParser) -> None:
        p.add_argument("--set", default="", metavar="EXPR",
                       help="benchmark selector expression over registered "
                       "sets/names/globs (e.g. unix+paper6-gcc, perl_*; "
                       "see docs/REGISTRY.md); unions with --benchmarks")

    p_list = sub.add_parser(
        "list", help="list benchmarks, kernels and benchmark sets"
    )
    add_json(p_list)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=backend_names(),
                       default=DEFAULT_BACKEND,
                       help="simulation backend (superblock = compiled "
                       "traces, byte-identical artifacts)")

    def add_common(p: argparse.ArgumentParser, with_threshold=True) -> None:
        p.add_argument("benchmark", help="benchmark analog name")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--cache", default="", help="trace cache directory")
        add_json(p)
        if with_threshold:
            p.add_argument("--threshold", type=int, default=0,
                           help="edge threshold (0 = auto for scale)")

    p_run = sub.add_parser("run", help="simulate a benchmark analog")
    p_run.add_argument("benchmark")
    p_run.add_argument("--scale", type=float, default=1.0)
    add_backend(p_run)
    add_json(p_run)

    p_profile = sub.add_parser("profile", help="Table 2 row")
    add_common(p_profile)
    add_backend(p_profile)

    p_alloc = sub.add_parser("allocate", help="Table 3/4 sizing")
    add_common(p_alloc)
    p_alloc.add_argument("--static", action="store_true",
                         help="allocate from the static conflict-graph "
                         "estimate (no profiling or simulation)")
    p_alloc.add_argument("--bht", type=int, default=128,
                         help="BHT entries for the static allocation")

    p_cfg = sub.add_parser("cfg", help="static control-flow summary")
    p_cfg.add_argument("benchmark")
    p_cfg.add_argument("--scale", type=float, default=1.0)
    p_cfg.add_argument("--loops", action="store_true",
                       help="also list every natural loop")

    p_lint = sub.add_parser("lint", help="static verifier diagnostics")
    p_lint.add_argument("benchmark", nargs="?", default="")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every registered benchmark analog")
    p_lint.add_argument("--scale", type=float, default=1.0)
    p_lint.add_argument("--strict", action="store_true",
                        help="exit 1 on any unwaived diagnostic, "
                        "warnings included")
    p_lint.add_argument("--waive", action="append", default=[],
                        metavar="BENCH:CODE",
                        help="suppress one diagnostic code for one "
                        "benchmark (repeatable)")
    add_json(p_lint)

    p_verify = sub.add_parser(
        "verify-static",
        help="score static heuristics and graph estimates vs profiles",
    )
    p_verify.add_argument("benchmarks", nargs="*",
                          help="benchmark analogs or selector terms "
                          "(default: full suite)")
    add_set(p_verify)
    p_verify.add_argument("--shard", default="", metavar="K/N",
                          help="run only this host's deterministic slice "
                          "of the selection")
    p_verify.add_argument("--scale", type=float, default=1.0)
    p_verify.add_argument("--cache", default="",
                          help="trace cache directory")
    p_verify.add_argument("--jobs", type=_bounded(int, 1), default=1,
                          help="worker processes for the profiling runs")
    p_verify.add_argument("--threshold", type=int, default=0,
                          help="edge threshold (0 = auto for scale)")
    add_json(p_verify)

    def add_fault_tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timeout", type=_bounded(float, 0),
                       default=0.0,
                       help="per-attempt wall-clock budget in seconds for "
                       "parallel jobs (0 = unbounded)")
        p.add_argument("--retries", type=_bounded(int, 0), default=1,
                       help="extra attempts per failed job before it is "
                       "dropped from the run")

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("id", nargs="?", choices=sorted(EXPERIMENTS),
                       help="experiment id; omit it (with --set/"
                       "--benchmarks) to just materialise a selection's "
                       "artifacts — the distributed-shard workhorse")
    add_set(p_exp)
    p_exp.add_argument("--benchmarks", default="",
                       help="benchmark selector expression overriding the "
                       "experiment's declared list (unions with --set)")
    p_exp.add_argument("--shard", default="", metavar="K/N",
                       help="run shard K of an N-way partitioned suite "
                       "run; merge the stores with `repro merge-shards`")
    p_exp.add_argument("--scale", type=float, default=None,
                       help="workload scale (default: the selected set's "
                       "declared scale, else 1.0)")
    p_exp.add_argument("--cache", default="",
                       help="content-addressed artifact store directory")
    p_exp.add_argument("--jobs", type=_bounded(int, 1), default=1,
                       help="worker processes for benchmark simulation "
                       "(1 = sequential)")
    add_fault_tolerance(p_exp)
    p_exp.add_argument("--checkpoint-every", type=_bounded(int, 0),
                       default=0,
                       metavar="EVENTS",
                       help="snapshot simulator+pipeline state every N "
                       "branch events so retried/killed jobs resume "
                       "instead of cold-starting (needs --cache)")
    p_exp.add_argument("--workers", type=_bounded(int, 0), default=0,
                       metavar="N",
                       help="run the suite under the crash-safe shard "
                       "supervisor with N worker processes before "
                       "assembling the experiment output (needs --cache; "
                       "excludes --shard)")
    add_backend(p_exp)
    add_json(p_exp)

    p_faults = sub.add_parser(
        "faults",
        help="fault-injection demo: poisoned pass + clean recovery pass",
    )
    p_faults.add_argument("--benchmarks", default="",
                          help="benchmark selector expression "
                          "(default: the `smoke` set)")
    add_set(p_faults)
    p_faults.add_argument("--scale", type=float, default=None,
                          help="workload scale (default: the selected "
                          "set's declared scale, else 0.05)")
    p_faults.add_argument("--jobs", type=_bounded(int, 1), default=4)
    p_faults.add_argument("--cache", default="",
                          help="artifact store directory (default: a "
                          "throwaway temp store when corruption is "
                          "injected)")
    p_faults.add_argument("--crash", default="",
                          help="benchmark whose worker dies hard")
    p_faults.add_argument("--hang", default="",
                          help="benchmark whose worker hangs (pair with "
                          "--timeout)")
    p_faults.add_argument("--flaky", default="",
                          help="NAME[:N] — benchmark that fails its first "
                          "N attempts (default 1)")
    p_faults.add_argument("--corrupt", default="",
                          help="benchmark whose stored trace is corrupted")
    p_faults.add_argument("--kill", default="",
                          help="NAME[:EVENTS] — benchmark whose worker is "
                          "SIGKILLed once the bus has seen EVENTS branch "
                          "events (default 1.5x the checkpoint cadence); "
                          "the retry resumes from the last checkpoint")
    p_faults.add_argument("--checkpoint-every", type=_bounded(int, 0),
                          default=0,
                          metavar="EVENTS",
                          help="checkpoint cadence in branch events "
                          f"(default: {DEFAULT_CHECKPOINT_EVERY} when "
                          "--kill is given)")
    add_fault_tolerance(p_faults)
    add_json(p_faults)

    p_serve = sub.add_parser(
        "serve",
        help="run the analysis daemon on a unix socket (SIGTERM drains)",
    )
    p_serve.add_argument("--socket", required=True,
                         help="unix socket path to listen on")
    p_serve.add_argument("--cache", required=True,
                         help="artifact store root (journal, checkpoints "
                         "and the service journal live under it)")
    p_serve.add_argument("--workers", type=_bounded(int, 1), default=2,
                         help="simulation worker processes (default 2)")
    p_serve.add_argument("--queue-limit", type=_bounded(int, 1),
                         default=16,
                         help="admission queue bound; submits beyond it "
                         "are shed with a typed rejection (default 16)")
    p_serve.add_argument("--retries", type=_bounded(int, 0), default=1,
                         help="extra attempts per crashed job (default 1)")
    p_serve.add_argument("--quota-rate", type=float, default=0.0,
                         help="per-tenant token refill rate in jobs/s "
                         "(0 = unlimited)")
    p_serve.add_argument("--quota-burst", type=float, default=8.0,
                         help="per-tenant token bucket capacity")
    p_serve.add_argument("--checkpoint-every", type=_bounded(int, 1),
                         default=DEFAULT_CHECKPOINT_EVERY,
                         metavar="EVENTS",
                         help="checkpoint cadence in branch events — the "
                         "preemption/recovery granularity (default "
                         "%(default)s)")
    p_serve.add_argument("--deadline", type=_bounded(float, 0),
                         default=0.0,
                         help="default per-job deadline in seconds "
                         "(0 = unbounded; submits may override)")

    p_lg = sub.add_parser(
        "loadgen",
        help="open-loop load generator against a running daemon",
    )
    p_lg.add_argument("--socket", required=True,
                      help="daemon unix socket path")
    p_lg.add_argument("--rate", type=float, default=10.0,
                      help="open-loop arrival rate in jobs/s (default 10)")
    p_lg.add_argument("--jobs", type=int, default=20,
                      help="total requests to send (default 20)")
    p_lg.add_argument("--benchmarks", default="",
                      help="benchmark selector expression to cycle "
                      "through (default plot)")
    add_set(p_lg)
    p_lg.add_argument("--tenants", type=int, default=1,
                      help="number of synthetic tenants to cycle through")
    p_lg.add_argument("--scale", type=float, default=0.05)
    p_lg.add_argument("--predictors", default="",
                      help="comma-separated predictor specs to run per "
                      "job (e.g. bimodal,gshare:10)")
    p_lg.add_argument("--deadline", type=_bounded(float, 0),
                      default=0.0,
                      help="per-job deadline in seconds (0 = none)")
    p_lg.add_argument("--slow-client", type=int, default=0, metavar="N",
                      help="every Nth request trickles its submit frame "
                      "(service fault mode; 0 = off)")
    p_lg.add_argument("--conn-drop", type=int, default=0, metavar="N",
                      help="every Nth request disconnects after its "
                      "accepted frame (service fault mode; 0 = off)")
    add_backend(p_lg)
    add_json(p_lg)

    p_merge = sub.add_parser(
        "merge-shards",
        help="union shard artifact stores + journals into one suite "
        "store (byte-verifying overlapping artifacts)",
    )
    p_merge.add_argument("sources", nargs="+",
                         help="shard store directories to merge in")
    p_merge.add_argument("--into", required=True,
                         help="destination store directory (created if "
                         "missing; may be one of the sources in a "
                         "shared-store deployment)")
    add_json(p_merge)

    p_sup = sub.add_parser(
        "supervise",
        help="crash-safe supervised distributed suite run: N shard "
        "workers over a shared store with heartbeat leases, restarts, "
        "reassignment, speculation and auto-merge",
    )
    add_set(p_sup)
    p_sup.add_argument("--benchmarks", default="",
                       help="benchmark selector expression (unions with "
                       "--set)")
    p_sup.add_argument("--workers", type=_bounded(int, 1), default=2,
                       metavar="N",
                       help="shard worker processes to supervise")
    p_sup.add_argument("--scale", type=float, default=None,
                       help="workload scale (default: the selected set's "
                       "declared scale, else 1.0)")
    p_sup.add_argument("--cache", required=True,
                       help="shared artifact store directory (journal, "
                       "checkpoints and leases live here)")
    p_sup.add_argument("--retries", type=_bounded(int, 0), default=1,
                       help="extra in-worker attempts per failed job")
    p_sup.add_argument("--checkpoint-every", type=_bounded(int, 0),
                       default=DEFAULT_CHECKPOINT_EVERY,
                       metavar="EVENTS",
                       help="snapshot cadence so restarted shards resume "
                       "mid-benchmark instead of cold-starting")
    p_sup.add_argument("--max-restarts", type=_bounded(int, 0),
                       help="restart budget per shard slot before its "
                       "work is reassigned to surviving slots")
    p_sup.add_argument("--lease-timeout",
                       type=_bounded(float, 0, strict=True),
                       metavar="SECONDS",
                       help="heartbeat-lease age after which a live but "
                       "silent worker is declared wedged and recycled")
    p_sup.add_argument("--no-speculate", action="store_true",
                       help="disable speculative re-execution of tail "
                       "stragglers on idle slots")
    add_backend(p_sup)
    add_json(p_sup)

    p_dis = sub.add_parser("disasm", help="print a workload's listing")
    p_dis.add_argument("benchmark")
    p_dis.add_argument("--scale", type=float, default=1.0)
    p_dis.add_argument("--head", type=int, default=0,
                       help="only the first N lines")
    return parser


_HANDLERS = {
    "list": cmd_list,
    "run": cmd_run,
    "profile": cmd_profile,
    "allocate": cmd_allocate,
    "cfg": cmd_cfg,
    "lint": cmd_lint,
    "verify-static": cmd_verify_static,
    "experiment": cmd_experiment,
    "faults": cmd_faults,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "merge-shards": cmd_merge_shards,
    "supervise": cmd_supervise,
    "disasm": cmd_disasm,
}


def main(argv=None) -> int:
    from .errors import ReproError, SelectionError

    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
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
