"""Crash-safe shard supervisor for distributed suite runs.

``repro supervise --workers N`` runs one *parent orchestrator* that
computes the cost-balanced LPT partition, spawns N engine worker
processes over a **shared** artifact store, and babysits them to a
merged, byte-verified result:

* **Heartbeat leases** — every worker fsyncs a small per-slot lease file
  (pid + timestamp + current benchmark/event count) from its engine's
  progress callback, so the supervisor can tell a *dead* worker (pid
  probe fails, or the process exited) from a *wedged* one (pid alive,
  lease expired) from a merely *slow* one (pid alive, lease fresh).
  :func:`classify_worker` pins the ordering: the pid probe is checked
  first, lease age only breaks the tie for live processes.
* **Crash-safe recovery** — a dead shard's incomplete benchmarks are
  the names of its assignment that have no verified entry in the
  shared store for the current sources (digest memo + store verify;
  the supervisor never builds, and the run journal is not consulted).
  The slot is restarted with exponential backoff up to
  ``max_restarts`` times; an exhausted slot is retired and its
  survivors re-partitioned across free slots.  A restarted shard finds
  everything a sibling already finished in the shared store (digest
  memo + store hit, no simulation) and resumes the in-flight benchmark
  from its last checkpoint.
* **Speculative re-execution** — once every benchmark is assigned and a
  slot is idle, tail stragglers' remaining benchmarks are re-executed
  speculatively.  Safety rides entirely on the store's ``.claim``
  protocol and idempotent atomic put: speculative jobs skip
  ``wait_for_writer`` and race the original; the first writer wins and
  both produce byte-identical artifacts by construction.
* **Cascading SIGTERM drain** — SIGTERM to the supervisor forwards to
  every worker (which checkpoints via :mod:`repro.eval.interrupt` and
  reports what it finished), stops restarts and speculation, escalates
  to SIGKILL after :data:`~repro.eval.worker.DRAIN_KILL_GRACE` seconds,
  then still runs the merge census and reports completed/remaining
  honestly.

The cost model is learned: :func:`~repro.eval.shards.measured_costs`
feeds per-benchmark wall-clock medians from the shared journal into
:func:`~repro.eval.shards.partition_selection`, falling back to static
fuel estimates for never-run benchmarks.

Fault modes ``shard_kill:K@EVENTS``, ``shard_hang:K`` and
``lease_stall:K`` (:mod:`repro.eval.faults`, via ``REPRO_FAULTS``)
exercise exactly these paths deterministically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..checkpoint import DEFAULT_CHECKPOINT_EVERY, RunJournal
from ..errors import ShardLost, SuiteInterrupted, error_to_dict
from . import faults, interrupt
from .digest import DigestMemo, JobSpec
from .engine import ExecutionEngine
from .shards import (
    MergeReport,
    ShardSpec,
    measured_costs,
    merge_shards,
    partition_selection,
)
from .store import ArtifactStore
from .worker import DRAIN_KILL_GRACE, WorkerProcess

__all__ = [
    "DEFAULT_MAX_RESTARTS",
    "LEASE_INTERVAL_SECONDS",
    "LEASE_TIMEOUT_SECONDS",
    "LeaseWriter",
    "RESTART_DELAY_CAP",
    "ShardSupervisor",
    "SupervisorReport",
    "SupervisorStats",
    "classify_worker",
    "read_lease",
    "restart_delay",
]

#: subdirectory of the shared store holding supervisor state (leases,
#: injected fault-state markers).  Operational, never merged as results.
SUPERVISOR_SUBDIR = "supervisor"

#: a live worker whose lease is older than this many seconds is treated
#: as wedged: killed, counted as a lease expiry, and its work recovered.
LEASE_TIMEOUT_SECONDS = 10.0

#: minimum interval between a worker's lease heartbeats (the progress
#: callback fires per checkpoint slice, far more often than this).
LEASE_INTERVAL_SECONDS = 0.5

#: restart budget per shard slot before it is retired and its remaining
#: benchmarks are re-partitioned across the surviving slots.
DEFAULT_MAX_RESTARTS = 2

#: upper bound on the exponential restart backoff delay.
RESTART_DELAY_CAP = 30.0

#: supervisor scheduler poll interval (seconds).
_POLL_SECONDS = 0.05


def restart_delay(
    backoff: float, restart: int, cap: float = RESTART_DELAY_CAP
) -> float:
    """Seconds to wait before restart number *restart* (1-based).

    Exponential: the first restart waits one base interval, each further
    one doubles, capped at *cap* so a flapping shard cannot push its own
    recovery arbitrarily far into the future.
    """
    if restart < 1:
        return 0.0
    return min(cap, backoff * (2 ** (restart - 1)))


def classify_worker(
    alive: bool, lease_age: float, lease_timeout: float
) -> str:
    """``"dead"`` | ``"straggler"`` | ``"healthy"`` for one worker.

    The pid probe is authoritative and checked **first**: a process that
    is gone is dead no matter how fresh its lease looks (the lease file
    survives its writer), and only a provably *live* process can be a
    straggler.  Lease age then separates wedged (expired) from merely
    slow (fresh) — a slow-but-alive worker is healthy and must never be
    killed on age alone.
    """
    if not alive:
        return "dead"
    if lease_age > lease_timeout:
        return "straggler"
    return "healthy"


class LeaseWriter:
    """One worker's fsynced heartbeat lease file.

    The lease is the worker's liveness side-channel: a small JSON file
    (pid, wall-clock timestamp, current benchmark and event count)
    rewritten atomically — temp file, fsync, ``os.replace`` — so the
    supervisor never reads a torn lease.  The file's mtime is what the
    supervisor ages; the payload is for post-mortems and tests.

    Beats are throttled to *interval* seconds (the progress callback
    fires per checkpoint slice, which can be thousands of times per
    second on small workloads); ``force=True`` bypasses the throttle for
    the initial beat at worker entry.  A ``lease_stall``-faulted worker
    sets *stalled* and skips every write.
    """

    def __init__(
        self,
        directory: Path,
        slot: int,
        interval: float = LEASE_INTERVAL_SECONDS,
        stalled: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.slot = slot
        self.interval = interval
        self.stalled = stalled
        self.path = self.directory / f"lease-{slot}.json"
        self._last = float("-inf")

    def beat(
        self, benchmark: str = "", events: int = 0, force: bool = False
    ) -> None:
        """Refresh the lease (throttled; a failed write never kills the job)."""
        if self.stalled:
            return
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "ts": round(time.time(), 3),
                "slot": self.slot,
                "benchmark": benchmark,
                "events": events,
            }
        ).encode("ascii")
        tmp = self.directory / f".lease-{self.slot}.tmp-{os.getpid()}"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC)
            try:
                os.write(fd, payload)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, self.path)
        except OSError:
            pass  # heartbeat is advisory; the store is the durable record


def read_lease(path: Path) -> Optional[Dict[str, object]]:
    """The lease payload at *path*, or None (missing/torn/foreign)."""
    try:
        payload = json.loads(Path(path).read_bytes())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _run_shard(payload: tuple) -> Dict[str, object]:
    """Shard worker body, run in a :class:`WorkerProcess` (module-level).

    Runs one in-process :class:`ExecutionEngine` over this slot's
    assigned benchmarks against the shared store — which is the entire
    recovery story: a restarted worker takes everything any sibling
    already completed as store hits and resumes the in-flight benchmark
    from its latest checkpoint.  Returns the failures and job sources
    the supervisor folds in; a drain surfaces as the worker's
    ``suite_interrupted`` error outcome.

    The engine's progress callback doubles as the fault hook
    (``shard_kill`` fires here, deterministically in event time) and the
    heartbeat (a throttled fsynced lease write).  The lease gets one
    forced beat *before* ``on_shard_start`` so a ``shard_hang`` fault
    leaves a fresh-then-aging lease behind a live pid — the exact
    wedged-worker signature the supervisor must detect by lease expiry.
    """
    (
        slot,
        total,
        names,
        store_root,
        scale,
        backend,
        checkpoint_every,
        retries,
        speculative,
        selection,
        lease_interval,
    ) = payload
    plan = faults.active_plan()
    stalled = plan.lease_stalled(slot) if plan is not None else False
    lease = LeaseWriter(
        Path(store_root) / SUPERVISOR_SUBDIR,
        slot,
        interval=lease_interval,
        stalled=stalled,
    )
    lease.beat(force=True)
    if plan is not None:
        plan.on_shard_start(slot)

    def heartbeat(benchmark: str, events: int) -> None:
        if plan is not None:
            plan.on_shard_events(slot, events)
        lease.beat(benchmark=benchmark, events=events)

    shard = ShardSpec(slot, total) if 1 <= slot <= total else None
    engine = ExecutionEngine(
        scale=scale,
        cache_dir=Path(store_root),
        jobs=1,
        retries=retries,
        checkpoint_every_events=checkpoint_every,
        backend=backend,
        shard=shard,
        selection=selection,
        progress=heartbeat,
        speculative=speculative,
    )
    engine.prefetch(list(names))
    return {
        "failed": {
            name: error_to_dict(err)
            for name, err in engine.failures.items()
        },
        "job_source": dict(engine.stats.job_source),
    }


@dataclass
class _ShardRun:
    """One shard slot's worker process and its supervisor-side state."""

    slot: int
    names: List[str]
    speculative: bool
    restarts: int
    lease_path: Path
    spawned_wall: float
    worker: WorkerProcess

    def lease_age(self) -> float:
        """Seconds since the last heartbeat (spawn time if never beaten)."""
        try:
            newest = self.lease_path.stat().st_mtime
        except OSError:
            newest = self.spawned_wall
        return max(0.0, time.time() - newest)


@dataclass
class SupervisorStats:
    """Recovery counters for one supervised run (schema v9)."""

    workers: int = 0
    restarts: int = 0
    reassigned_benchmarks: int = 0
    speculative_runs: int = 0
    speculative_wins: int = 0
    speculative_losses: int = 0
    lease_expiries: int = 0
    shards_lost: int = 0
    cost_model: str = "fuel"

    def as_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "restarts": self.restarts,
            "reassigned_benchmarks": self.reassigned_benchmarks,
            "speculative_runs": self.speculative_runs,
            "speculative_wins": self.speculative_wins,
            "speculative_losses": self.speculative_losses,
            "lease_expiries": self.lease_expiries,
            "shards_lost": self.shards_lost,
            "cost_model": self.cost_model,
        }


@dataclass
class SupervisorReport:
    """Outcome of one :meth:`ShardSupervisor.run`.

    ``exhausted`` means benchmarks were *lost*: every slot that could
    have run them burned through its restart budget — the honest-failure
    case the CLI maps to exit code 1.  ``interrupted`` marks a SIGTERM
    drain: completed work is durable and the run resumes, so the CLI
    exits 0.
    """

    completed: List[str] = field(default_factory=list)
    remaining: List[str] = field(default_factory=list)
    failed: Dict[str, Dict[str, object]] = field(default_factory=dict)
    lost: List[str] = field(default_factory=list)
    interrupted: bool = False
    exhausted: bool = False
    seconds: float = 0.0
    stats: SupervisorStats = field(default_factory=SupervisorStats)
    merge: Optional[MergeReport] = None
    #: one typed ``shard_lost`` record per worker death/lease expiry the
    #: supervisor recovered from (or failed to).
    shard_events: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "completed": list(self.completed),
            "remaining": list(self.remaining),
            "failed": dict(self.failed),
            "lost": list(self.lost),
            "interrupted": self.interrupted,
            "exhausted": self.exhausted,
            "seconds": round(self.seconds, 4),
            "supervisor": self.stats.as_dict(),
            "merge": self.merge.as_dict() if self.merge else None,
            "shard_events": list(self.shard_events),
        }

    def render(self) -> str:
        lines = ["-- supervisor --"]
        s = self.stats
        lines.append(
            f"  workers: {s.workers}  cost model: {s.cost_model}"
        )
        lines.append(
            f"  recovery: {s.restarts} restart(s), "
            f"{s.reassigned_benchmarks} reassigned benchmark(s), "
            f"{s.lease_expiries} lease expiry(ies), "
            f"{s.shards_lost} shard(s) lost"
        )
        lines.append(
            f"  speculation: {s.speculative_runs} run(s), "
            f"{s.speculative_wins} win(s), {s.speculative_losses} loss(es)"
        )
        lines.append(
            f"  completed: {len(self.completed)}  "
            f"failed: {len(self.failed)}  remaining: {len(self.remaining)}"
            f"  ({self.seconds:.2f}s)"
        )
        if self.interrupted:
            lines.append(
                "  interrupted: drained on SIGTERM — rerun to continue"
            )
        if self.lost:
            lines.append(
                "  LOST (restart budget exhausted): "
                + ", ".join(self.lost)
            )
        return "\n".join(lines)


class ShardSupervisor:
    """Parent orchestrator for an N-worker supervised suite run.

    Args:
        names: the resolved benchmark selection to materialise.
        workers: shard worker process count (>= 1).
        store_root: the **shared** artifact store all workers write to;
            also holds the shared run journal, checkpoints and
            ``supervisor/`` lease state.
        scale / backend: run parameters, forwarded to every worker
            engine (and into every digest/journal record).
        checkpoint_every_events: worker checkpoint cadence; the finer it
            is, the less a killed shard replays after restart.
        retries: per-benchmark retry budget inside each worker engine.
        max_restarts: per-slot worker restart budget; an exhausted slot
            is retired and its work re-partitioned.
        restart_backoff: base delay for :func:`restart_delay`.
        lease_timeout: heartbeat staleness threshold for
            :func:`classify_worker`; workers beat every
            ``min(LEASE_INTERVAL_SECONDS, lease_timeout / 4)`` seconds.
        speculate: enable speculative tail re-execution.
        selection: the selector expression (observability only).
    """

    def __init__(
        self,
        names: Sequence[str],
        workers: int,
        store_root: Path,
        scale: float = 1.0,
        backend: str = "interp",
        checkpoint_every_events: int = DEFAULT_CHECKPOINT_EVERY,
        retries: int = 1,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        restart_backoff: float = 0.25,
        lease_timeout: float = LEASE_TIMEOUT_SECONDS,
        speculate: bool = True,
        selection: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        self.names = list(dict.fromkeys(names))
        self.workers = workers
        self.store_root = Path(store_root)
        self.scale = scale
        self.backend = backend
        self.checkpoint_every_events = checkpoint_every_events
        self.retries = retries
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.lease_timeout = lease_timeout
        self.lease_interval = min(
            LEASE_INTERVAL_SECONDS, lease_timeout / 4.0
        )
        self.speculate = speculate
        self.selection = selection
        self.store = ArtifactStore(self.store_root)
        self.stats = SupervisorStats(workers=workers)
        self.lease_dir = self.store_root / SUPERVISOR_SUBDIR

    # -- internals ----------------------------------------------------------

    def _payload(
        self, slot: int, names: Sequence[str], speculative: bool
    ) -> tuple:
        return (
            slot,
            self.workers,
            tuple(names),
            str(self.store_root),
            self.scale,
            self.backend,
            self.checkpoint_every_events,
            self.retries,
            speculative,
            self.selection,
            self.lease_interval,
        )

    def _spawn(
        self,
        slot: int,
        names: Sequence[str],
        speculative: bool = False,
        restarts: int = 0,
    ) -> None:
        lease_path = self.lease_dir / f"lease-{slot}.json"
        try:  # a stale lease from a previous incarnation must not look fresh
            lease_path.unlink()
        except OSError:
            pass
        self._running.append(
            _ShardRun(
                slot,
                list(names),
                speculative,
                restarts,
                lease_path,
                time.time(),
                WorkerProcess(
                    _run_shard, self._payload(slot, names, speculative)
                ),
            )
        )

    def _is_stored(self, name: str) -> bool:
        """True when *name* has a verified store entry for the current sources.

        The digest comes from the digest memo only: the supervisor never
        builds.  A memo miss or a failed verify reads as unfinished,
        which is safe — a restarted worker finds any real hit through
        its own digest.
        """
        spec = JobSpec(name, self.scale, backend=self.backend)
        digest = DigestMemo(self.store_root).get(spec)
        return digest is not None and self.store.verify(spec, digest)

    def _unfinished(self, names: Sequence[str]) -> List[str]:
        """The *names* neither stored nor failed.

        A name found stored is remembered for the rest of the run, so
        the per-tick speculation check verifies each entry once.
        """
        done = self._stored | self._failed.keys()
        todo = [n for n in names if n not in done]
        self._stored.update(n for n in todo if self._is_stored(n))
        return [n for n in todo if n not in self._stored]

    def _handle_dead(self, shard: _ShardRun) -> None:
        """Recover a dead (or killed-wedged) worker's incomplete work."""
        if shard.speculative:
            return  # speculative attempts are free to lose
        remaining = self._unfinished(shard.names)
        self._shard_events.append(
            ShardLost(
                f"shard {shard.slot} lost with "
                f"{len(remaining)} benchmark(s) incomplete",
                slot=shard.slot,
                restarts=shard.restarts,
                benchmarks=list(remaining),
            ).to_dict()
        )
        if not remaining:
            return
        if shard.restarts < self.max_restarts:
            restart = shard.restarts + 1
            self.stats.restarts += 1
            self._pending_restarts[shard.slot] = (
                time.monotonic()
                + restart_delay(self.restart_backoff, restart),
                remaining,
                restart,
            )
        else:
            self._retired.add(shard.slot)
            self.stats.shards_lost += 1
            self._orphans.extend(
                n for n in remaining if n not in self._orphans
            )

    def _absorb_ok(self, shard: _ShardRun, summary: Dict) -> None:
        for name, err in dict(summary.get("failed", {})).items():
            self._failed[name] = err
        if shard.speculative:
            for name, source in dict(
                summary.get("job_source", {})
            ).items():
                if source in ("simulated", "resimulated"):
                    self.stats.speculative_wins += 1
                elif source == "store":
                    self.stats.speculative_losses += 1

    def _install_fault_state(self) -> Optional[str]:
        """Give an env fault plan a durable ``state_dir`` if it lacks one.

        ``shard_kill`` must fire exactly once across worker restarts, so
        its marker needs a directory that survives the killed process.
        A plan arriving via the compact env syntax usually has none; the
        supervisor injects one under its own state subdirectory and
        re-installs the plan for its children.  Returns the previous raw
        env value (for restoration), or None when nothing changed — a
        plan only exists when the variable is set, so a changed env
        always has a string to restore.
        """
        plan = faults.active_plan()
        if plan is None or plan.state_dir or not plan.shard_kill:
            return None
        state = self.lease_dir / "fault-state"
        state.mkdir(parents=True, exist_ok=True)
        previous = os.environ[faults.ENV_VAR]
        os.environ[faults.ENV_VAR] = dataclasses.replace(
            plan, state_dir=str(state)
        ).to_json()
        return previous

    # -- the monitor loop ---------------------------------------------------

    def run(self) -> SupervisorReport:
        """Partition, spawn, babysit, merge; returns the honest report."""
        started = time.perf_counter()
        self._running: List[_ShardRun] = []
        self._pending_restarts: Dict[
            int, Tuple[float, List[str], int]
        ] = {}
        self._orphans: List[str] = []
        self._retired: set = set()
        self._failed: Dict[str, Dict[str, object]] = {}
        self._stored: set = set()
        self._shard_events: List[Dict[str, object]] = []
        lost: List[str] = []
        speculated: set = set()
        interrupted = False
        next_spec_slot = self.workers + 1
        previous_env = self._install_fault_state()

        costs = measured_costs(
            RunJournal(self.store_root),
            self.scale,
            backend=self.backend,
        )
        usable = {n: c for n, c in costs.items() if n in set(self.names)}
        self.stats.cost_model = "measured" if usable else "fuel"

        try:
            bins = partition_selection(
                self.names,
                self.workers,
                self.scale,
                costs=usable or None,
            )
            for index, bin_names in enumerate(bins, start=1):
                if bin_names:
                    self._spawn(index, list(bin_names))

            draining = False
            drain_started = 0.0
            while (
                self._running or self._orphans or self._pending_restarts
            ):
                now = time.monotonic()
                if not draining and interrupt.drain_requested():
                    draining = True
                    interrupted = True
                    drain_started = now
                    self._pending_restarts.clear()
                    for shard in self._running:
                        shard.worker.terminate()
                if (
                    draining
                    and now - drain_started > DRAIN_KILL_GRACE
                ):
                    for shard in self._running:
                        shard.worker.kill()

                for slot in list(self._pending_restarts):
                    due, names, restart = self._pending_restarts[slot]
                    if not draining and due <= now:
                        del self._pending_restarts[slot]
                        self._spawn(slot, names, restarts=restart)

                progressed = False
                for shard in list(self._running):
                    outcome = shard.worker.poll()
                    if outcome is None:
                        if draining:
                            continue
                        state = classify_worker(
                            shard.worker.process.is_alive(),
                            shard.lease_age(),
                            self.lease_timeout,
                        )
                        if state == "straggler":
                            # live pid, expired lease: wedged.  Kill it
                            # and recover exactly like a crash — the
                            # store census is the same either way.
                            self.stats.lease_expiries += 1
                            shard.worker.kill()
                            shard.worker.reap()
                            self._running.remove(shard)
                            self._handle_dead(shard)
                            progressed = True
                        continue
                    progressed = True
                    self._running.remove(shard)
                    kind, payload = outcome
                    shard.worker.reap()
                    if kind == "ok":
                        self._absorb_ok(shard, payload)
                    elif (
                        kind == "error"
                        and payload.get("code") == SuiteInterrupted.code
                    ):
                        interrupted = True
                    elif not draining:  # "crash" or "error"
                        self._handle_dead(shard)

                if draining:
                    if not self._running:
                        break
                    if not progressed:
                        time.sleep(_POLL_SECONDS)
                    continue

                if self._orphans:
                    busy = {r.slot for r in self._running} | set(
                        self._pending_restarts
                    )
                    free = [
                        s
                        for s in range(1, self.workers + 1)
                        if s not in self._retired and s not in busy
                    ]
                    if free:
                        orphans = self._unfinished(self._orphans)
                        self._orphans.clear()
                        if orphans:
                            self.stats.reassigned_benchmarks += len(
                                orphans
                            )
                            parts = partition_selection(
                                orphans,
                                len(free),
                                self.scale,
                                costs=usable or None,
                            )
                            for slot, part in zip(free, parts):
                                if part:
                                    self._spawn(slot, list(part))
                    elif not self._running and not self._pending_restarts:
                        # every slot retired with work left: unrecoverable
                        lost = sorted(set(self._unfinished(self._orphans)))
                        self._orphans.clear()

                if (
                    self.speculate
                    and self._running
                    and not self._orphans
                    and not self._pending_restarts
                    and len(self._running) < self.workers
                ):
                    tail = [
                        n
                        for r in self._running
                        if not r.speculative
                        for n in self._unfinished(r.names)
                        if n not in speculated
                    ]
                    while tail and len(self._running) < self.workers:
                        name = tail.pop(0)
                        speculated.add(name)
                        self.stats.speculative_runs += 1
                        self._spawn(
                            next_spec_slot, [name], speculative=True
                        )
                        next_spec_slot += 1

                if not progressed:
                    time.sleep(_POLL_SECONDS)
        finally:
            for shard in self._running:
                shard.worker.kill()
                shard.worker.reap()
            self._running.clear()
            if previous_env is not None:
                os.environ[faults.ENV_VAR] = previous_env

        # Auto-merge: with a shared store the artifacts are already
        # unioned by construction, so this only reads the journal's
        # damage warnings and lists the committed entries.  The report's
        # own census verifies every name once more.
        merge = merge_shards([self.store_root], self.store_root)
        stored = {n for n in self.names if self._is_stored(n)}
        report = SupervisorReport(
            completed=sorted(stored),
            remaining=sorted(
                n
                for n in self.names
                if n not in stored and n not in self._failed
            ),
            failed=dict(self._failed),
            lost=lost,
            interrupted=interrupted,
            exhausted=bool(lost),
            seconds=time.perf_counter() - started,
            stats=self.stats,
            merge=merge,
            shard_events=self._shard_events,
        )
        return report
