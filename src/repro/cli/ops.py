"""Commands that run, serve and recover the suite: ``faults``, ``serve``,
``loadgen``, ``merge-shards`` and ``supervise``.

``faults`` runs a benchmark subset with injected worker crashes, hangs,
flaky failures, kills and cache corruption, then a clean recovery pass
that proves quarantined entries are resimulated.  ``serve`` runs the
analysis daemon on a unix socket (bounded admission queue, per-tenant
quotas, deadlines, SIGTERM drain, journal-driven recovery; see
docs/SERVICE.md) and ``loadgen`` drives it open-loop.  ``merge-shards``
unions shard stores and journals after a distributed ``--shard K/N``
run, byte-verifying artifacts two shards both produced.  ``supervise``
is the crash-safe distributed run: one orchestrator spawns ``--workers
N`` shard engines over a shared store, heartbeat-leases them, restarts
or reassigns dead shards, speculates on stragglers and merges to a
byte-verified result (see docs/SUPERVISOR.md).
"""

from __future__ import annotations

import argparse
import sys

from ..checkpoint import DEFAULT_CHECKPOINT_EVERY
from ..eval import interrupt
from ..eval.engine import ExecutionEngine
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


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection demo: poisoned pass, then a clean recovery pass."""
    import json as json_mod
    import shutil
    import tempfile

    from ..eval.faults import FaultPlan

    selection = _selection(args, default_set="smoke")
    names = list(selection.names)
    scale = resolve_scale(args, selection)
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
    settings = dict(
        scale=scale,
        cache_dir=cache_dir,
        jobs=args.jobs,
        timeout=args.timeout or None,
        retries=args.retries,
        checkpoint_every_events=checkpoint_every,
    )
    try:
        with plan.installed():
            poisoned = ExecutionEngine(**settings)
            poisoned.prefetch(names)
        recovery = ExecutionEngine(**settings)
        recovered = recovery.prefetch(names)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        if cache_is_temp:
            shutil.rmtree(cache_dir, ignore_errors=True)
    ok = len(recovered) == len(names)
    if args.json:
        _emit(
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
                "failures": _failures_payload(poisoned),
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
    from ..service import ServiceConfig, serve

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
    from ..eval.faults import FaultPlan, active_plan
    from ..service import LoadgenConfig, run_loadgen

    selection = _selection(args, default_set="plot")
    config = LoadgenConfig(
        socket_path=args.socket,
        rate=args.rate,
        jobs=args.jobs,
        benchmarks=selection.names,
        tenants=tuple(f"tenant-{i}" for i in range(args.tenants)),
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
        _emit("loadgen", params, report)
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
    # a run in which no request reached the daemon measured nothing
    unreached = (
        report["completed"] + report["rejected"] + report["failed"] == 0
        and report["client_errors"] > 0
    )
    return 1 if report["failed"] or unreached else 0


def cmd_merge_shards(args: argparse.Namespace) -> int:
    """Union N shard artifact stores + journals into one suite store."""
    from ..eval.shards import merge_shards

    report = merge_shards(args.sources, args.into)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        _emit(
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


def cmd_supervise(args: argparse.Namespace) -> int:
    """Supervised N-worker distributed suite run over a shared store."""
    from ..errors import ShardRestartsExhausted
    from ..eval.supervisor import (
        DEFAULT_MAX_RESTARTS,
        LEASE_TIMEOUT_SECONDS,
        ShardSupervisor,
    )

    selection = _selection(args)
    if selection is None:
        print(
            "error: give --set and/or --benchmarks to select what to "
            "supervise",
            file=sys.stderr,
        )
        return 2
    scale = resolve_scale(args, selection)
    checkpoint_every = args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    max_restarts = (
        DEFAULT_MAX_RESTARTS if args.max_restarts is None
        else args.max_restarts
    )
    lease_timeout = args.lease_timeout or LEASE_TIMEOUT_SECONDS
    supervisor = ShardSupervisor(
        selection.names,
        workers=args.workers,
        store_root=args.cache,
        scale=scale,
        backend=args.backend,
        checkpoint_every_events=checkpoint_every,
        retries=args.retries,
        max_restarts=max_restarts,
        lease_timeout=lease_timeout,
        speculate=not args.no_speculate,
        selection=selection.expression,
    )
    with interrupt.sigterm_drain():
        report = supervisor.run()
    if report.merge is not None:
        for warning in report.merge.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        _emit(
            "supervise",
            {
                "selection": selection.expression,
                "benchmarks": list(selection.names),
                "workers": args.workers,
                "scale": scale,
                "cache": args.cache,
                "backend": args.backend,
                "retries": args.retries,
                "checkpoint_every": checkpoint_every,
                "max_restarts": max_restarts,
                "lease_timeout": lease_timeout,
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
            max_restarts=max_restarts,
        )
    return 1 if report.failed else 0


def register(sub) -> None:
    """Declare this family's subcommands and the handlers they run."""
    p = sub.add_parser(
        "faults",
        help="fault-injection demo: poisoned pass + clean recovery pass",
    )
    add_selection(p, help="benchmark selector expression "
                  "(default: the `smoke` set)")
    add_scale(p, default=0.05, from_set=True)
    add_jobs(p, default=4)
    add_cache(p, help="artifact store directory (default: a throwaway "
              "temp store when corruption is injected)")
    p.add_argument("--crash", default="",
                   help="benchmark whose worker dies hard")
    p.add_argument("--hang", default="",
                   help="benchmark whose worker hangs (pair with "
                   "--timeout)")
    p.add_argument("--flaky", default="",
                   help="NAME[:N] — benchmark that fails its first "
                   "N attempts (default 1)")
    p.add_argument("--corrupt", default="",
                   help="benchmark whose stored trace is corrupted")
    p.add_argument("--kill", default="",
                   help="NAME[:EVENTS] — benchmark whose worker is "
                   "SIGKILLed once the bus has seen EVENTS branch "
                   "events (default 1.5x the checkpoint cadence); "
                   "the retry resumes from the last checkpoint")
    add_checkpoint_every(
        p, default=0, low=0,
        help="checkpoint cadence in branch events (default: "
        f"{DEFAULT_CHECKPOINT_EVERY} when --kill is given)",
    )
    add_timeout(p)
    add_retries(p)
    add_json(p)
    p.set_defaults(handler=cmd_faults)

    p = sub.add_parser(
        "serve",
        help="run the analysis daemon on a unix socket (SIGTERM drains)",
    )
    p.add_argument("--socket", required=True,
                   help="unix socket path to listen on")
    add_cache(p, required=True,
              help="artifact store root (journal, checkpoints and the "
              "service journal live under it)")
    p.add_argument("--workers", type=_bounded(int, 1), default=2,
                   help="simulation worker processes (default 2)")
    p.add_argument("--queue-limit", type=_bounded(int, 1), default=16,
                   help="admission queue bound; submits beyond it are "
                   "shed with a typed rejection (default 16)")
    add_retries(p, help="extra attempts per crashed job (default 1)")
    p.add_argument("--quota-rate", type=float, default=0.0,
                   help="per-tenant token refill rate in jobs/s "
                   "(0 = unlimited)")
    p.add_argument("--quota-burst", type=float, default=8.0,
                   help="per-tenant token bucket capacity")
    add_checkpoint_every(
        p, default=DEFAULT_CHECKPOINT_EVERY, low=1,
        help="checkpoint cadence in branch events — the preemption/"
        "recovery granularity (default %(default)s)",
    )
    p.add_argument("--deadline", type=_bounded(float, 0), default=0.0,
                   help="default per-job deadline in seconds "
                   "(0 = unbounded; submits may override)")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="open-loop load generator against a running daemon",
    )
    p.add_argument("--socket", required=True,
                   help="daemon unix socket path")
    p.add_argument("--rate", type=_bounded(float, 0, strict=True),
                   default=10.0,
                   help="open-loop arrival rate in jobs/s (default 10)")
    add_jobs(p, default=20, help="total requests to send (default 20)")
    add_selection(p, help="benchmark selector expression to cycle "
                  "through (default plot)")
    p.add_argument("--tenants", type=_bounded(int, 1), default=1,
                   help="number of synthetic tenants to cycle through")
    # a request parameter of the generated traffic, not a set's run
    # scale: fixed default, no --set rule
    add_scale(p, default=0.05)
    p.add_argument("--predictors", default="",
                   help="comma-separated predictor specs to run per "
                   "job (e.g. bimodal,gshare:10)")
    p.add_argument("--deadline", type=_bounded(float, 0), default=0.0,
                   help="per-job deadline in seconds (0 = none)")
    p.add_argument("--slow-client", type=_bounded(int, 0), default=0,
                   metavar="N",
                   help="every Nth request trickles its submit frame "
                   "(service fault mode; 0 = off)")
    p.add_argument("--conn-drop", type=_bounded(int, 0), default=0,
                   metavar="N",
                   help="every Nth request disconnects after its "
                   "accepted frame (service fault mode; 0 = off)")
    add_backend(p)
    add_json(p)
    p.set_defaults(handler=cmd_loadgen)

    p = sub.add_parser(
        "merge-shards",
        help="union shard artifact stores + journals into one suite "
        "store (byte-verifying overlapping artifacts)",
    )
    p.add_argument("sources", nargs="+",
                   help="shard store directories to merge in")
    p.add_argument("--into", required=True,
                   help="destination store directory (created if "
                   "missing; may be one of the sources in a "
                   "shared-store deployment)")
    add_json(p)
    p.set_defaults(handler=cmd_merge_shards)

    p = sub.add_parser(
        "supervise",
        help="crash-safe supervised distributed suite run: N shard "
        "workers over a shared store with heartbeat leases, restarts, "
        "reassignment, speculation and auto-merge",
    )
    add_selection(p, help="benchmark selector expression (unions with "
                  "--set)")
    p.add_argument("--workers", type=_bounded(int, 1), default=2,
                   metavar="N",
                   help="shard worker processes to supervise")
    add_scale(p, from_set=True)
    add_cache(p, required=True,
              help="shared artifact store directory (journal, "
              "checkpoints and leases live here)")
    add_retries(p, help="extra in-worker attempts per failed job")
    add_checkpoint_every(
        p, default=DEFAULT_CHECKPOINT_EVERY, low=0,
        help="snapshot cadence so restarted shards resume mid-benchmark "
        "instead of cold-starting",
    )
    # these two default to None so that building the parser does not
    # import the supervisor; the handler resolves them
    p.add_argument("--max-restarts", type=_bounded(int, 0),
                   help="restart budget per shard slot before its "
                   "work is reassigned to surviving slots")
    p.add_argument("--lease-timeout", type=_bounded(float, 0, strict=True),
                   metavar="SECONDS",
                   help="heartbeat-lease age after which a live but "
                   "silent worker is declared wedged and recycled")
    p.add_argument("--no-speculate", action="store_true",
                   help="disable speculative re-execution of tail "
                   "stragglers on idle slots")
    add_backend(p)
    add_json(p)
    p.set_defaults(handler=cmd_supervise)
