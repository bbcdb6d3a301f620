"""The parallel evaluation engine: schedules jobs, retries, journals.

Every table and figure in the paper is a per-benchmark sweep, so the
dominant wall-clock cost is simulating the analog suite.  The
:class:`ExecutionEngine` fans benchmark x scale jobs out across worker
processes (``jobs=N``; ``N=1`` is a plain sequential loop
in-process) over the content-addressed store, and, because one bad job
must not discard hours of completed work, it *degrades* rather than
aborts:

* failures are retried with exponential backoff (``retries``/
  ``retry_backoff``) and bounded per-attempt wall-clock time
  (``timeout``, parallel runs only);
* whatever still fails lands in :attr:`ExecutionEngine.failures` so the
  experiment layer can run on the surviving benchmark set.

The CLI, the tables, figures and ablations, and the examples all drive
the pipeline through one :class:`ExecutionEngine`.  The layers below it
import in one direction only: :mod:`~repro.eval.digest` (what a job's
digest is) <- :mod:`~repro.eval.store` (the artifact store) <-
:mod:`~repro.eval.worker` (one job, in or out of process) <- this
module.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checkpoint import RunJournal
from ..errors import (
    ArtifactCorrupt,
    JobFailed,
    JobInterrupted,
    JobTimeout,
    ReproError,
    SuiteInterrupted,
    error_to_dict,
)
from ..pipeline.bus import PipelineStats
from ..profiling.profile import InterleaveProfile
from ..sim.api import get_backend
from ..trace.events import BranchTrace
from . import interrupt
# perfbench/spans.py wraps artifact_digest (unused here), compute_job_digest,
# _execute_job, ArtifactStore and WorkerHandle where it finds them: here.
from .digest import DigestMemo, JobSpec, artifact_digest, compute_job_digest
from .shards import ShardSpec
from .store import ArtifactStore, RunArtifacts
from .worker import (
    DRAIN_KILL_GRACE,
    JobResult,
    WorkerHandle,
    _execute_job,
    worker_error,
)

#: Scheduler poll interval while parallel jobs are in flight (seconds).
_POLL_SECONDS = 0.02


@dataclass
class EngineStats:
    """Cache, timing and failure counters for one engine's lifetime."""

    store_hits: int = 0
    simulated: int = 0
    memo_hits: int = 0
    failed: int = 0
    retried: int = 0
    timeouts: int = 0
    quarantined: int = 0
    #: checkpoint/resume counters (schema v4).
    checkpoints_written: int = 0
    resumed_from_checkpoint: int = 0
    #: quarantine files age-pruned to keep the directory bounded.
    quarantine_pruned: int = 0
    #: predictor-bank replays of a stored trace.
    replayed_runs: int = 0
    #: distributed-run identity (schema v8): the ``K/N`` shard this
    #: engine owns and the selector expression that produced its names,
    #: both None for plain unsharded runs.
    shard: Optional[str] = None
    selection: Optional[str] = None
    #: aggregated per-consumer bus counters across every bus this engine
    #: ran (simulation jobs and bank replays alike).
    pipeline: PipelineStats = field(default_factory=PipelineStats)
    job_seconds: Dict[str, float] = field(default_factory=dict)
    job_source: Dict[str, str] = field(default_factory=dict)
    failures: List[Dict[str, object]] = field(default_factory=list)

    def record(self, result: JobResult) -> None:
        self.quarantined += result.quarantined
        self.quarantine_pruned += result.quarantine_pruned
        self.checkpoints_written += result.checkpoints_written
        if result.resumed:
            self.resumed_from_checkpoint += 1
        self.retried += max(0, result.attempts - 1)
        if result.pipeline is not None:
            self.pipeline.merge(result.pipeline)
        if result.error is not None:
            self.failed += 1
            if isinstance(result.error, JobTimeout):
                self.timeouts += 1
            self.failures.append(
                {"benchmark": result.spec.name, **result.error.to_dict()}
            )
        elif result.source == "store":
            self.store_hits += 1
        else:
            self.simulated += 1
        self.job_seconds[result.spec.name] = result.seconds
        self.job_source[result.spec.name] = (
            "failed" if result.error is not None else result.source
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (the CLI's --json envelope embeds this)."""
        return {
            "store_hits": self.store_hits,
            "simulated": self.simulated,
            "memo_hits": self.memo_hits,
            "failed": self.failed,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            "quarantine_pruned": self.quarantine_pruned,
            "replayed_runs": self.replayed_runs,
            "shard": self.shard,
            "selection": self.selection,
            "pipeline": self.pipeline.as_dict(),
            "jobs": [
                {
                    "benchmark": name,
                    "seconds": round(seconds, 4),
                    "source": self.job_source[name],
                }
                for name, seconds in sorted(self.job_seconds.items())
            ],
            "failures": list(self.failures),
        }

    def render(self) -> str:
        """Human-readable per-job timing + hit/miss/failure summary."""
        lines = ["-- engine --"]
        if self.shard is not None:
            selection = f" of {self.selection!r}" if self.selection else ""
            lines.append(f"  shard: {self.shard}{selection}")
        for name in sorted(self.job_seconds):
            lines.append(
                f"  {name:12s} {self.job_seconds[name]:8.2f}s  "
                f"{self.job_source[name]}"
            )
        lines.append(
            f"  cache: {self.store_hits} hit(s), "
            f"{self.simulated} simulated, {self.memo_hits} memoised"
        )
        lines.append(
            f"  faults: {self.failed} failed, {self.retried} retried, "
            f"{self.timeouts} timed out, {self.quarantined} quarantined"
        )
        lines.append(
            f"  resume: {self.checkpoints_written} checkpoint(s) written, "
            f"{self.resumed_from_checkpoint} resumed, "
            f"{self.quarantine_pruned} quarantine file(s) pruned"
        )
        for failure in self.failures:
            lines.append(
                f"    {failure.get('benchmark', '?')}: "
                f"{failure.get('code', '?')} — {failure.get('message', '')}"
            )
        return "\n".join(lines)


class ExecutionEngine:
    """Builds, simulates and profiles benchmark jobs, in parallel.

    Example::

        engine = ExecutionEngine(scale=1.0, cache_dir=".cache", jobs=4)
        results = engine.prefetch(["compress", "gcc", "li"])  # one pool pass
        engine.artifacts("gcc")  # memoised, free
        engine.failures          # {} unless something kept failing

    Args:
        scale: workload scale forwarded to the suite.
        cache_dir: optional root of the content-addressed artifact store.
        jobs: worker processes for :meth:`prefetch`; 1 = sequential,
            in-process.
        timeout: per-attempt wall-clock budget in seconds for parallel
            jobs (None disables; sequential in-process runs cannot be
            pre-empted and ignore it).
        retries: extra attempts per failed job before it is recorded as
            a failure.
        retry_backoff: base delay between attempts, doubled per retry.
        checkpoint_every_events: write a simulation checkpoint whenever
            this many new branch events have accumulated, so retried,
            timed-out or killed jobs resume mid-run instead of
            restarting (requires ``cache_dir``; None disables).
        backend: simulation backend name or instance
            (:mod:`repro.sim.api`); folded into every job spec, digest
            and journal record this engine produces.
        shard: this engine's slice of a distributed run — a
            :class:`~repro.eval.shards.ShardSpec` or its ``K/N`` string
            form.  :meth:`prefetch` then simulates only the benchmarks
            the deterministic cost-balanced partition assigns this
            shard; the shard tag lands in journal records and
            :attr:`stats`, but never in job digests, so shard stores
            merge byte-identically into an unsharded run.
        selection: the selector expression the run's names came from
            (observability only: journal records, stats, envelope).
        progress: liveness callback invoked with ``(benchmark, events)``
            at each job start and after every checkpoint slice — the
            supervised shard worker's heartbeat hook.  In-process
            execution only (``jobs`` must be 1): a callable cannot
            cross the pool's pickle pipe.
        speculative: mark every job as a speculative straggler
            re-execution — never wait on another writer's live store
            claim, race it and rely on the idempotent atomic put
            (first writer wins, byte-identical by construction).
    """

    def __init__(
        self,
        scale: float = 1.0,
        cache_dir: Optional[Path] = None,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.05,
        checkpoint_every_events: Optional[int] = None,
        backend: Optional[object] = None,
        shard: Optional[object] = None,
        selection: Optional[str] = None,
        progress: Optional[Callable[[str, int], None]] = None,
        speculative: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if checkpoint_every_events is not None:
            if checkpoint_every_events < 1:
                raise ValueError(
                    "checkpoint_every_events must be >= 1, got "
                    f"{checkpoint_every_events}"
                )
            if cache_dir is None:
                raise ValueError(
                    "checkpoint_every_events requires a cache_dir "
                    "(checkpoints live under the cache root)"
                )
        if progress is not None and jobs > 1:
            raise ValueError(
                "progress callbacks need in-process execution (jobs=1); "
                "they cannot cross the worker pool's pickle pipe"
            )
        self.scale = scale
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend = get_backend(backend).name
        self.shard = (
            ShardSpec.parse(shard) if isinstance(shard, str) else shard
        )
        self.selection = selection
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.checkpoint_every_events = checkpoint_every_events
        self.progress = progress
        self.speculative = speculative
        self.store = (
            ArtifactStore(self.cache_dir)
            if self.cache_dir is not None
            else None
        )
        self.journal = (
            RunJournal(self.cache_dir)
            if self.cache_dir is not None
            else None
        )
        self.stats = EngineStats(
            shard=self.shard.tag if self.shard is not None else None,
            selection=selection,
        )
        #: benchmarks that exhausted their retries, name -> typed error.
        self.failures: Dict[str, ReproError] = {}
        self._memo: Dict[str, RunArtifacts] = {}
        self._digests: Dict[str, str] = {}
        #: set when a SIGTERM drain cut a prefetch pass short.
        self.interrupted = False

    # -- job bookkeeping ----------------------------------------------------

    def job(self, name: str) -> JobSpec:
        """The job spec this engine would run for *name*."""
        return JobSpec(name=name, scale=self.scale, backend=self.backend)

    def digest(self, name: str) -> str:
        """Content digest of *name*'s artifacts (never simulates).

        Answered by the store's digest memo when it can be, else built.
        """
        cached = self._digests.get(name)
        if cached is None:
            cached = compute_job_digest(self.job(name), self._cache_root())
            self._digests[name] = cached
        return cached

    def _cache_root(self) -> Optional[str]:
        return str(self.cache_dir) if self.cache_dir else None

    # -- public artifact API ------------------------------------------------

    def artifacts(self, name: str) -> RunArtifacts:
        """Trace + profile for benchmark *name* (memoised).

        Raises:
            JobFailed: when the job keeps failing after its retries (the
                recorded failure is re-raised on repeated access).
        """
        cached = self._memo.get(name)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        known_failure = self.failures.get(name)
        if known_failure is not None:
            raise known_failure
        result = self._run_sequential_job(name)
        if result.error is not None:
            raise result.error
        return self._memo[name]

    def trace(self, name: str) -> BranchTrace:
        """The benchmark's branch trace."""
        return self.artifacts(name).trace

    def profile(self, name: str) -> InterleaveProfile:
        """The benchmark's interleave profile."""
        return self.artifacts(name).profile

    def prefetch(
        self, names: Sequence[str]
    ) -> Dict[str, RunArtifacts]:
        """Materialise artifacts for *names*, fanning out across the pool.

        Unmemoised jobs run concurrently when ``jobs > 1``; results are
        collected order-independently, so parallel and sequential runs
        observe identical artifacts (same digests, same contents).

        Jobs that fail — a raising benchmark, a crashed or hung worker, a
        corrupt store entry that will not resimulate — never abort the
        pass: they are retried up to ``retries`` times and then recorded
        in :attr:`failures`.  The returned mapping contains only the
        benchmarks that produced artifacts.

        Raises:
            SuiteInterrupted: when a SIGTERM drain stopped the pass
                (see :mod:`repro.eval.interrupt`); completed work is
                journaled, in-flight jobs checkpointed, and rerunning
                the same pass continues from here.
        """
        # Names arrive already sharded (experiments.select_benchmarks
        # decides an experiment's list once); re-partitioning a filtered
        # subset here would silently shrink it.
        wanted = list(dict.fromkeys(names))
        missing = [
            n for n in wanted
            if n not in self._memo and n not in self.failures
        ]
        if self.store is not None and self.jobs > 1 and len(missing) > 1:
            # Finished work loads in-process first (memoised digest, one
            # store read, never a build), so a warm rerun spawns no
            # worker for it.
            for name in missing:
                stored = self._stored(name)
                if stored is not None:
                    self._absorb(stored)
        pending = [n for n in missing if n not in self._memo]
        if self.jobs > 1 and len(pending) > 1:
            self._run_parallel(pending)
        else:
            for name in pending:
                if interrupt.drain_requested():
                    self.interrupted = True
                    break
                result = self._run_sequential_job(name)
                if isinstance(result.error, JobInterrupted):
                    self.interrupted = True
                    break
        if self.interrupted:
            completed = [n for n in wanted if n in self._memo]
            remaining = [n for n in wanted if n not in self._memo]
            raise SuiteInterrupted(
                f"suite drained on SIGTERM: {len(completed)}/"
                f"{len(wanted)} benchmark(s) completed; in-flight "
                "progress is checkpointed — rerun the same command to "
                "continue",
                completed=completed,
                remaining=remaining,
            )
        for name in wanted:
            if name in self._memo and name not in missing:
                self.stats.memo_hits += 1
        return {
            name: self._memo[name]
            for name in wanted
            if name in self._memo
        }

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop memoised artifacts and recorded failures.

        (All of them when *name* is None.)  Clearing a failure makes the
        next access retry the benchmark from scratch.
        """
        if name is None:
            self._memo.clear()
            self._digests.clear()
            self.failures.clear()
        else:
            self._memo.pop(name, None)
            self._digests.pop(name, None)
            self.failures.pop(name, None)

    # -- internals ----------------------------------------------------------

    def _backoff_seconds(self, attempt: int) -> float:
        """Exponential backoff before retry *attempt* (attempts are 1-based,
        so the first retry — attempt 2 — waits one base interval)."""
        return self.retry_backoff * (2 ** (attempt - 2))

    def _stored(self, name: str) -> Optional[JobResult]:
        """*name*'s job as a store hit, or None; never builds.

        The digest comes from the digest memo only.  An entry the load
        quarantines is counted in :attr:`stats` before the job runs.
        """
        spec = self.job(name)
        digest = DigestMemo(self.cache_dir).get(spec)
        if digest is None:
            return None
        store = self.store
        started = time.perf_counter()
        before, pruned = len(store.corrupt_events), store.pruned_entries
        artifacts = store.load(spec, digest)
        if artifacts is None:
            self.stats.quarantined += len(store.corrupt_events) - before
            self.stats.quarantine_pruned += store.pruned_entries - pruned
            return None
        return JobResult(
            spec, digest, "store", time.perf_counter() - started, artifacts
        )

    def _run_sequential_job(self, name: str) -> JobResult:
        """Run one job in-process with the retry policy, then absorb it."""
        spec = self.job(name)
        payload = (spec, self._cache_root(), False, self.checkpoint_every_events)
        started = time.perf_counter()
        attempt = 0
        while True:
            attempt += 1
            try:
                result = _execute_job(
                    payload,
                    progress=self.progress,
                    speculative=self.speculative,
                )
            except KeyError:
                raise  # unknown benchmark/kernel: caller error, not a fault
            except JobInterrupted as exc:
                # A drain is resumable progress, not a fault: no retry.
                result = JobResult(
                    spec=spec,
                    digest="",
                    source="failed",
                    seconds=time.perf_counter() - started,
                    error=exc,
                    attempts=attempt,
                )
            except Exception as exc:
                if attempt <= self.retries and not interrupt.drain_requested():
                    time.sleep(self._backoff_seconds(attempt + 1))
                    continue
                failure = exc if isinstance(exc, JobFailed) else JobFailed(
                    f"{name} failed after {attempt} attempt(s): {exc}",
                    benchmark=name,
                    attempts=attempt,
                    cause=error_to_dict(exc),
                )
                result = JobResult(
                    spec=spec,
                    digest="",
                    source="failed",
                    seconds=time.perf_counter() - started,
                    error=failure,
                    attempts=attempt,
                )
            else:
                result = dataclasses.replace(result, attempts=attempt)
            return self._absorb(result)

    def _run_parallel(self, missing: Sequence[str]) -> None:
        """Fan *missing* out over worker processes with fault handling.

        One daemon process (a :class:`WorkerHandle`) per attempt, at
        most ``jobs`` in flight; the scheduler polls for three
        completion modes — a result on the pipe, a dead process
        (crash), a blown deadline (hang) — and requeues failed attempts
        with backoff until retries run out.  Terminated/hung workers
        are killed, never joined indefinitely.

        A SIGTERM drain (:mod:`repro.eval.interrupt`) stops launches,
        clears the pending queue (those jobs never ran, so a rerun
        picks them up), forwards SIGTERM to every
        running worker — which writes a final checkpoint and reports
        ``job_interrupted`` — and records those outcomes without
        retrying.  A worker that has not wound down within
        :data:`DRAIN_KILL_GRACE` seconds is SIGKILLed; its progress is
        already durable in the checkpoint.
        """
        cache_root = self._cache_root()
        # (spec, attempt, not_before) — not_before implements backoff
        # without stalling the scheduler.
        pending: List[Tuple[JobSpec, int, float]] = [
            (self.job(n), 1, 0.0) for n in missing
        ]
        running: Dict[WorkerHandle, int] = {}
        first_launch: Dict[str, float] = {}
        drain_started: Optional[float] = None

        def finish(spec: JobSpec, attempt: int, error: ReproError) -> None:
            interrupted = (
                getattr(error, "code", None) == JobInterrupted.code
            )
            if (
                attempt <= self.retries
                and not interrupted
                and drain_started is None
            ):
                pending.append(
                    (
                        spec,
                        attempt + 1,
                        time.monotonic()
                        + self._backoff_seconds(attempt + 1),
                    )
                )
                return
            self._absorb(
                JobResult(
                    spec=spec,
                    digest="",
                    source="failed",
                    seconds=time.monotonic() - first_launch[spec.name],
                    error=error,
                    attempts=attempt,
                )
            )

        while pending or running:
            now = time.monotonic()
            if drain_started is None and interrupt.drain_requested():
                drain_started = now
                self.interrupted = True
                pending.clear()
                for handle in running:
                    handle.terminate()
            if (
                drain_started is not None
                and now - drain_started > DRAIN_KILL_GRACE
            ):
                for handle in running:
                    handle.kill()
            while drain_started is None and len(running) < self.jobs:
                index = next(
                    (
                        i
                        for i, (_, _, not_before) in enumerate(pending)
                        if not_before <= now
                    ),
                    None,
                )
                if index is None:
                    break
                spec, attempt, _ = pending.pop(index)
                first_launch.setdefault(spec.name, now)
                handle = WorkerHandle(
                    spec,
                    cache_root,
                    checkpoint_every=self.checkpoint_every_events,
                    timeout=self.timeout,
                )
                running[handle] = attempt

            progressed = False
            for handle in list(running):
                outcome = handle.poll()
                if outcome is None:
                    continue
                progressed = True
                attempt = running.pop(handle)
                spec = handle.spec
                handle.reap()
                kind, payload = outcome
                if kind == "ok":
                    self._absorb(
                        dataclasses.replace(payload, attempts=attempt)
                    )
                elif kind == "timeout":
                    finish(
                        spec,
                        attempt,
                        JobTimeout(
                            f"{spec.name} exceeded the {self.timeout:g}s "
                            f"wall-clock budget (attempt {attempt})",
                            benchmark=spec.name,
                            timeout_seconds=self.timeout,
                            attempts=attempt,
                        ),
                    )
                else:  # "crash" or "error"; job_interrupted is never retried
                    finish(
                        spec,
                        attempt,
                        worker_error(kind, payload, spec.name, attempt),
                    )
            if not progressed:
                time.sleep(_POLL_SECONDS)

    def _absorb(self, result: JobResult) -> JobResult:
        """Fold one job outcome into memo/failures, stats and the journal."""
        if result.error is not None:
            self.failures[result.spec.name] = result.error
            self.stats.record(result)
            self._journal_outcome(result)
            return result
        artifacts = result.artifacts
        if artifacts is None:
            if self.store is None:
                raise ReproError(
                    "job result carried no artifacts and no store is "
                    "configured",
                    benchmark=result.spec.name,
                )
            before = len(self.store.corrupt_events)
            before_pruned = self.store.pruned_entries
            try:
                artifacts, result = self._load_or_resimulate(result)
            except ArtifactCorrupt as exc:
                # persistent corruption (the resimulated entry would not
                # load back either) fails this benchmark, not the pass
                result = dataclasses.replace(
                    result,
                    source="failed",
                    error=exc,
                    quarantined=result.quarantined
                    + len(self.store.corrupt_events) - before,
                    quarantine_pruned=result.quarantine_pruned
                    + self.store.pruned_entries - before_pruned,
                )
                self.failures[result.spec.name] = exc
                self.stats.record(result)
                self._journal_outcome(result)
                return result
        self._memo[result.spec.name] = artifacts
        self._digests[result.spec.name] = result.digest
        self.stats.record(result)
        self._journal_outcome(result)
        return result

    def _journal_outcome(self, result: JobResult) -> None:
        """Append one finished job to the run journal (durable record).

        Journal writes never fail the job they describe.
        """
        if self.journal is None:
            return
        # Shard identity is a journal/stats annotation only — folding it
        # into job digests would make shard stores diverge from an
        # unsharded run and break merge-shards byte-identity.
        extra: Dict[str, object] = {}
        if self.shard is not None:
            extra["shard"] = self.shard.tag
        if self.selection is not None:
            extra["selection"] = self.selection
        try:
            if result.error is not None:
                self.journal.record_failed(
                    result.spec.name,
                    self.scale,
                    error_to_dict(result.error),
                    backend=self.backend,
                    **extra,
                )
            else:
                # seconds feeds the learned shard cost model
                # (shards.measured_costs): only full simulations measure
                # the benchmark's real wall-clock, so store hits record
                # their (near-zero) load time under the same key but are
                # filtered out by source when costs are learned.
                self.journal.record_completed(
                    result.spec.name,
                    result.digest,
                    self.scale,
                    source=result.source,
                    resumed=result.resumed,
                    backend=self.backend,
                    seconds=round(result.seconds, 4),
                    **extra,
                )
        except OSError:
            pass  # a full/readonly disk must not fail a finished job

    def _load_or_resimulate(
        self, result: JobResult
    ) -> Tuple[RunArtifacts, JobResult]:
        """Load a store-backed result, resimulating if the entry is bad.

        The worker verified (or just wrote) the entry, but the parent's
        full load can still discover damage in the event columns — or
        lose a race with an external writer.  One in-process rerun
        repairs it; only if the store drops the artifacts *again* is the
        situation hopeless enough for a typed error.

        Raises:
            ArtifactCorrupt: when the rerun's artifacts cannot be loaded
                back either.
        """
        store = self.store
        before = len(store.corrupt_events)
        before_pruned = store.pruned_entries
        artifacts = store.load(result.spec, result.digest)
        quarantined = len(store.corrupt_events) - before
        pruned = store.pruned_entries - before_pruned
        if artifacts is not None:
            return artifacts, dataclasses.replace(
                result,
                quarantined=result.quarantined + quarantined,
                quarantine_pruned=result.quarantine_pruned + pruned,
            )
        rerun = _execute_job(
            (
                result.spec,
                self._cache_root(),
                False,
                self.checkpoint_every_events,
            ),
            progress=self.progress,
            speculative=self.speculative,
        )
        artifacts = rerun.artifacts
        if artifacts is None:
            artifacts = store.load(rerun.spec, rerun.digest)
        if artifacts is None:
            raise ArtifactCorrupt(
                f"store lost artifacts for {result.spec.name} "
                f"({result.digest[:16]})",
                benchmark=result.spec.name,
                digest=result.digest[:16],
            )
        return artifacts, dataclasses.replace(
            result,
            source="resimulated",
            digest=rerun.digest,
            seconds=result.seconds + rerun.seconds,
            quarantined=result.quarantined + quarantined + rerun.quarantined,
            quarantine_pruned=result.quarantine_pruned
            + pruned
            + rerun.quarantine_pruned,
            checkpoints_written=result.checkpoints_written
            + rerun.checkpoints_written,
            resumed=result.resumed or rerun.resumed,
        )
