"""The analysis-as-a-service daemon (``repro serve``).

An asyncio daemon that wraps the evaluation engine's worker machinery
(:class:`~repro.eval.worker.WorkerHandle`) behind a unix-socket NDJSON
API (:mod:`repro.service.wire`).  Clients submit benchmark + predictor
jobs; the daemon digests each job to its content address, dedupes
in-flight work by that digest (backend-keyed, so superblock and interp
jobs never alias), fans admitted jobs out over a bounded worker pool,
and streams typed result frames back.  A job whose entry is already
stored spawns no worker: the daemon verifies the entry and answers its
predictors from their stored records, replaying (off the event loop)
only those with none.

Robustness model (see ``docs/SERVICE.md``):

* **Admission control** — a bounded queue; overload sheds submits with
  typed ``service_overloaded`` rejections, never a crash
  (:mod:`repro.service.admission`).
* **Quotas** — per-tenant token buckets with fairness accounting
  (:mod:`repro.service.quotas`).
* **Deadlines** — a per-job wall-clock budget enforced through the
  engine's worker-timeout path: an expired job's worker is SIGTERMed
  (checkpointing on the way down) and the client gets a typed
  ``cancelled`` frame.
* **SIGTERM drain** — stop admitting, SIGTERM in-flight workers (they
  write a final checkpoint and report ``job_interrupted``), journal
  state, exit 0.  Interrupted jobs keep their ``submitted`` journal
  record *without* a ``done`` record, so the next daemon resumes them.
* **Crash recovery** — on startup, ``submitted``-without-``done``
  journal records (a SIGKILLed daemon's in-flight jobs) are re-enqueued;
  their simulations resume from the shared checkpoint store and produce
  artifacts byte-identical to an undisturbed run.  Workers opt in to
  ``PR_SET_PDEATHSIG`` so a SIGKILLed daemon never leaks orphan
  simulations that would race the restart.
"""

from __future__ import annotations

import asyncio
import functools
import math
import os
import signal
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from ..checkpoint import DEFAULT_CHECKPOINT_EVERY, CheckpointStore
from ..errors import (
    ArtifactCorrupt,
    JobCancelled,
    JobInterrupted,
    ReproError,
    UnknownBenchmark,
    error_to_dict,
)
from ..eval import interrupt
from ..eval.digest import JobSpec, compute_job_digest
from ..eval.store import ArtifactStore, replay_predictors
from ..eval.worker import (
    CHECKPOINT_SUBDIR,
    DRAIN_KILL_GRACE,
    JobResult,
    WorkerHandle,
    worker_error,
)
from ..sim.api import backend_names
from ..workloads.build import BuiltWorkload
from ..workloads.registry import resolve_benchmark
from .admission import AdmissionController
from .jobs import ServiceJob, ServiceJournal, build_predictor
from .quotas import QuotaManager, check_quota
from .wire import (
    MAX_FRAME_BYTES,
    WireError,
    encode_frame,
    read_frame,
    rejection,
    response,
)

#: Scheduler tick while jobs are in flight (seconds).
_POLL_SECONDS = 0.02

#: Subdirectory of the cache root holding the service journal.
SERVICE_SUBDIR = "service"


def _is_number(value: Any) -> bool:
    """True for a finite JSON number (not a bool, NaN or infinity)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to boot one daemon."""

    socket_path: str
    cache_dir: str
    workers: int = 2
    queue_limit: int = 16
    retries: int = 1
    quota_rate: float = 0.0
    quota_burst: float = 8.0
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    default_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        check_quota(self.quota_rate, self.quota_burst)
        if self.checkpoint_every < 1:
            raise ValueError(
                "checkpoint_every must be >= 1 (checkpoints are the "
                f"preemption/recovery mechanism), got {self.checkpoint_every}"
            )
        deadline = self.default_deadline_s
        if deadline is not None and not (_is_number(deadline) and deadline > 0):
            raise ValueError(
                "default_deadline_s must be None or a finite number > 0, "
                f"got {deadline!r}"
            )


@dataclass
class Connection:
    """One client connection's outbox; frames are pumped to the socket."""

    queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = field(
        default_factory=asyncio.Queue
    )
    closed: bool = False

    def send(self, frame: Optional[Dict[str, Any]]) -> None:
        if not self.closed:
            self.queue.put_nowait(frame)


class AnalysisService:
    """One daemon instance: admission, quotas, pool, journal, recovery."""

    def __init__(
        self, config: ServiceConfig, clock=time.monotonic
    ) -> None:
        self.config = config
        self.clock = clock
        self.cache_dir = Path(config.cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.store = ArtifactStore(self.cache_dir)
        self.checkpoints = CheckpointStore(self.cache_dir / CHECKPOINT_SUBDIR)
        self.journal = ServiceJournal(self.cache_dir / SERVICE_SUBDIR)
        self.admission: AdmissionController = AdmissionController(
            config.queue_limit
        )
        self.quotas = QuotaManager(
            rate=config.quota_rate, burst=config.quota_burst, clock=clock
        )
        #: live jobs by job id (queued or running).
        self.jobs: Dict[str, ServiceJob] = {}
        #: in-flight dedupe index: artifact stem -> primary job.
        self.inflight: Dict[str, ServiceJob] = {}
        #: running workers: job id -> (job, handle).
        self.running: Dict[str, Tuple[ServiceJob, WorkerHandle]] = {}
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "interrupted": 0,
            "deduped": 0,
            "store_hits": 0,
            "simulated": 0,
            "recovered": 0,
            "retries": 0,
        }
        self.started = clock()
        self.draining = False
        self._drain_started: Optional[float] = None
        self._tasks: Set["asyncio.Task[Any]"] = set()

    # -- submission ---------------------------------------------------------

    def _parse_submit(
        self, frame: Dict[str, Any]
    ) -> Tuple[str, str, JobSpec, Tuple[str, ...], Optional[float]]:
        """(job id, tenant, spec, predictors, deadline) for one frame.

        Raises:
            ReproError: malformed or unknown fields (typed rejection).
        """
        job_id = frame.get("id") or f"job-{uuid.uuid4().hex[:12]}"
        if not isinstance(job_id, str):
            raise ReproError(f"job id must be a string, got {job_id!r}")
        tenant = frame.get("tenant") or "anonymous"
        benchmark = frame.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            raise ReproError("submit frame needs a benchmark name")
        # an unknown name raises UnknownBenchmark: a typed wire rejection
        # with a near-miss suggestion
        resolve_benchmark(benchmark)

        def field(name: str, default: Any, expected: str, valid) -> Any:
            value = frame.get(name, default)
            if not valid(value):
                raise ReproError(
                    f"submit field {name!r} must be {expected}, "
                    f"got {value!r}",
                    field=name,
                )
            return value

        predictors = field(
            "predictors", None, "a list of predictor specs",
            lambda v: v is None
            or (isinstance(v, list) and all(isinstance(t, str) for t in v)),
        )
        predictors = tuple(predictors or ())
        for spec_text in predictors:
            try:
                build_predictor(spec_text)
            except (TypeError, ValueError) as exc:
                raise ReproError(str(exc)) from exc
        # a capped trace is never served as a full one: refuse any limit
        field("trace_limit", None, "null (every job captures its full "
              "trace)", lambda v: v is None)
        spec = JobSpec(
            name=benchmark,
            scale=float(
                field("scale", 1.0, "a finite number > 0",
                      lambda v: _is_number(v) and v > 0)
            ),
            backend=field(
                "backend", "interp", f"one of {backend_names()}",
                lambda v: v in backend_names(),
            ),
        )
        deadline_s = field(
            "deadline_s", self.config.default_deadline_s,
            "null or a finite number > 0",
            lambda v: v is None or (_is_number(v) and v > 0),
        )
        return (
            job_id,
            str(tenant),
            spec,
            predictors,
            float(deadline_s) if deadline_s is not None else None,
        )

    def _submit(self, frame: Dict[str, Any], conn: Connection) -> None:
        """Admit one submit frame; raises a typed error to reject it."""
        job_id, tenant, spec, predictors, deadline_s = self._parse_submit(
            frame
        )
        if job_id in self.jobs:
            raise ReproError(
                f"job id {job_id!r} is already in flight", job=job_id
            )
        self.counters["submitted"] += 1
        self.quotas.admit(tenant)  # may raise QuotaExceeded
        # a never-seen spec is built to digest it; its worker reuses
        # that build instead of making a second one
        built: List[BuiltWorkload] = []
        digest = compute_job_digest(
            spec, str(self.cache_dir), on_build=built.append
        )
        stem = self.store.stem(spec, digest)
        primary = self.inflight.get(stem)
        if primary is not None:
            # Same content address already queued/running: attach to it
            # instead of simulating twice.  Backend is part of the
            # digest, so different backends never dedupe onto each other.
            primary.waiters.append((conn, job_id))
            self.counters["deduped"] += 1
            conn.send(
                response(
                    "accepted",
                    job_id,
                    digest=digest,
                    dedup=True,
                    primary=primary.id,
                    queue_depth=self.admission.depth(),
                )
            )
            return
        job = ServiceJob(
            id=job_id,
            tenant=tenant,
            spec=spec,
            digest=digest,
            stem=stem,
            predictors=predictors,
            deadline_s=deadline_s,
            submitted_at=self.clock(),
            waiters=[(conn, job_id)],
            built=built[0] if built else None,
        )
        self.admission.admit(job)  # may raise ServiceOverloaded
        self.journal.record_submitted(job)
        self.jobs[job.id] = job
        self.inflight[stem] = job
        conn.send(
            response(
                "accepted",
                job_id,
                digest=digest,
                dedup=False,
                queue_depth=self.admission.depth(),
            )
        )

    # -- scheduling ---------------------------------------------------------

    def _launch(self, now: float) -> None:
        """Cancel expired queued jobs, then fill free worker slots.

        A job whose entry is already stored takes no slot and spawns no
        worker: it is served off-loop (:meth:`_serve_stored`).
        """
        self._expire_queued(now)
        while len(self.running) < self.config.workers:
            job = self.admission.pop()
            if job is None:
                return
            job.state = "running"
            job.started_at = now
            job.attempts += 1
            built, job.built = job.built, None
            if not job.needs_worker and self.store.contains(
                job.spec, job.digest
            ):
                self._spawn_task(self._serve_stored(job))
                continue
            handle = WorkerHandle(
                job.spec,
                str(self.cache_dir),
                checkpoint_every=self.config.checkpoint_every,
                timeout=job.deadline_remaining(now),
                built=built,
            )
            self.running[job.id] = (job, handle)

    def _spawn_task(self, coro) -> None:
        """Run *coro* on the loop; the drain waits for it."""
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _expire_queued(self, now: float) -> None:
        """Cancel queued jobs whose deadline passed before a worker freed."""
        expired = [
            job
            for job in self.admission.queue
            if job.deadline_remaining(now) is not None
            and job.deadline_remaining(now) <= 0
        ]
        for job in expired:
            self.admission.queue.remove(job)
            self._finalize(
                job,
                "cancelled",
                JobCancelled(
                    f"{job.spec.name} missed its {job.deadline_s:g}s "
                    "deadline while queued",
                    benchmark=job.spec.name,
                    deadline_s=job.deadline_s,
                ),
                now,
            )

    def _poll_outcomes(self, now: float) -> None:
        for job_id in list(self.running):
            job, handle = self.running[job_id]
            outcome = handle.poll()
            if outcome is None:
                continue
            del self.running[job_id]
            handle.reap()
            kind, payload = outcome
            if kind == "ok":
                self._finalize_ok(job, payload, now)
            elif kind == "timeout":
                self._finalize(
                    job,
                    "cancelled",
                    JobCancelled(
                        f"{job.spec.name} missed its "
                        f"{job.deadline_s:g}s deadline; its worker was "
                        "terminated through the timeout path "
                        "(checkpointed)",
                        benchmark=job.spec.name,
                        deadline_s=job.deadline_s,
                        attempts=job.attempts,
                    ),
                    now,
                )
            else:
                error = worker_error(
                    kind, payload, job.spec.name, job.attempts
                )
                if isinstance(error, JobInterrupted):
                    # the frame carries the worker's own report (events,
                    # checkpoints written), not the re-typed error
                    self._finalize_interrupted(job, payload, now)
                else:
                    self._retry_or_fail(job, error, now)

    def _retry_or_fail(
        self, job: ServiceJob, error: ReproError, now: float
    ) -> None:
        if job.attempts <= self.config.retries and not self.draining:
            job.state = "queued"
            self.counters["retries"] += 1
            self.admission.requeue(job)
            return
        self._finalize(job, "failed", error, now)

    # -- completion ---------------------------------------------------------

    def _finalize_ok(
        self, job: ServiceJob, result: JobResult, now: float
    ) -> None:
        """A worker stored the job's entry.  Its predictors replay from
        that entry off-loop (:meth:`_serve_stored`); a job without
        predictors completes now."""
        if job.predictors:
            self._spawn_task(self._serve_stored(job, result))
            return
        self._complete(job, result, None, now)

    async def _serve_stored(
        self, job: ServiceJob, result: Optional[JobResult] = None
    ) -> None:
        """Complete a job from its stored entry off-loop: a store hit
        (no *result*) or a worker's *result*.  A job whose entry turns
        out to be gone gets one free requeue for a worker; gone again,
        it is a failed attempt, so a persistent fault (corruption on
        every put, a load that rejects what put wrote) ends the job."""
        loop = asyncio.get_running_loop()
        try:
            served = await loop.run_in_executor(
                None, self._serve_from_store, job, result
            )
        except Exception as exc:
            self._finalize(job, "failed", self._replay_error(job, exc),
                           self.clock())
            return
        if served is not None:
            self._complete(job, *served, self.clock())
        elif job.needs_worker:
            error = ArtifactCorrupt(
                f"stored entry for {job.spec.name} was gone or unreadable "
                "after a worker stored it",
                benchmark=job.spec.name,
                attempts=job.attempts,
            )
            self._retry_or_fail(job, error, self.clock())
        else:
            job.attempts -= 1
            job.needs_worker = True
            if self.draining:
                self._interrupt_queued(job)
            else:
                job.state = "queued"
                self.admission.requeue(job)

    def _serve_from_store(
        self, job: ServiceJob, result: Optional[JobResult]
    ) -> Optional[Tuple[JobResult, Optional[Dict[str, Any]]]]:
        """(result, predictions) of a stored job, or None when its entry
        is gone.  A store hit is ``verify`` plus one record read per
        predictor; a predictor with no record costs a load and a replay.
        A worker's *result* passes through unchanged, its entry is
        loaded and every predictor replayed (rewriting its record), and
        its digest names the entry (a recovered job's may differ from
        the one its record was admitted under)."""
        started = time.perf_counter()
        digest = job.digest if result is None else result.digest
        predictions = None
        if result is None and not self.store.verify(job.spec, digest):
            return None
        if job.predictors:
            predictions = self._predict(job, digest, fresh=result is not None)
            if predictions is None:
                return None
        if result is None:
            # the artifacts are the durable state: drop a stale
            # checkpoint, exactly as a worker's store hit does
            self.checkpoints.clear(job.stem)
            result = JobResult(
                spec=job.spec,
                digest=digest,
                source="store",
                seconds=time.perf_counter() - started,
            )
        return result, predictions

    @staticmethod
    def _replay_error(job: ServiceJob, exc: Exception) -> ReproError:
        if isinstance(exc, ReproError):
            return exc
        return ReproError(
            f"predictor replay for {job.spec.name} failed: {exc}",
            benchmark=job.spec.name,
        )

    def _predict(
        self, job: ServiceJob, digest: str, fresh: bool
    ) -> Optional[Dict[str, Any]]:
        """*job*'s predictions over the entry *digest*, or None when the
        entry is gone: stored records first, then one replay of the
        rest (all of them when *fresh*)."""

        def load_trace():
            artifacts = self.store.load(job.spec, digest)
            return None if artifacts is None else artifacts.trace

        served = replay_predictors(
            self.store, job.spec, digest,
            {
                text: (f"spec:{text}", functools.partial(build_predictor, text))
                for text in job.predictors
            },
            load_trace,
            fresh=fresh,
        )
        if served is None:
            return None
        return {
            text: {
                "branches": result.branches,
                "mispredictions": result.mispredictions,
                "misprediction_rate": round(result.misprediction_rate, 6),
            }
            for text, result in served[0].items()
        }

    def _complete(
        self,
        job: ServiceJob,
        result: JobResult,
        predictions: Optional[Dict[str, Any]],
        now: float,
    ) -> None:
        job.state = "completed"
        self._forget(job)
        self.journal.record_done(job.id, "completed", digest=result.digest)
        self.counters["completed"] += 1
        self.counters[
            "store_hits" if result.source == "store" else "simulated"
        ] += 1
        self.quotas.account(
            job.tenant,
            completed=1,
            busy_seconds=(
                now - job.started_at if job.started_at is not None else 0.0
            ),
        )
        frame_fields: Dict[str, Any] = {
            "digest": result.digest,
            "source": result.source,
            "seconds": round(result.seconds, 6),
            "latency_s": round(now - job.submitted_at, 6),
            "attempts": job.attempts,
            "resumed": result.resumed,
            "checkpoints_written": result.checkpoints_written,
        }
        if result.pipeline is not None:
            frame_fields["pipeline"] = result.pipeline.as_dict()
        if predictions is not None:
            frame_fields["predictions"] = predictions
        self._notify(job, "completed", frame_fields)

    def _finalize(
        self,
        job: ServiceJob,
        status: str,
        error: ReproError,
        now: float,
    ) -> None:
        """Terminal failure/cancellation: journal, account, notify."""
        job.state = status
        job.error = error
        self._forget(job)
        self.journal.record_done(job.id, status, error=error_to_dict(error))
        self.counters[status] += 1
        self.quotas.account(job.tenant, failed=1)
        self._notify(
            job,
            status,
            {
                "error": error_to_dict(error),
                "latency_s": round(now - job.submitted_at, 6),
            },
        )

    def _finalize_interrupted(
        self, job: ServiceJob, payload: Dict[str, Any], now: float
    ) -> None:
        """A drained worker wound down; the job stays journal-orphaned.

        Deliberately no ``done`` record: the ``submitted`` line without
        one is exactly what the restarted daemon's recovery pass looks
        for, and the checkpoint the worker wrote on the way down is what
        it resumes from.
        """
        job.state = "interrupted"
        self._forget(job)
        self.counters["interrupted"] += 1
        self._notify(
            job,
            "interrupted",
            {
                "error": payload,
                "resumable": True,
                "latency_s": round(now - job.submitted_at, 6),
            },
        )

    def _forget(self, job: ServiceJob) -> None:
        self.jobs.pop(job.id, None)
        if self.inflight.get(job.stem) is job:
            del self.inflight[job.stem]

    def _notify(
        self, job: ServiceJob, kind: str, fields: Dict[str, Any]
    ) -> None:
        for conn, client_id in job.waiters:
            conn.send(response(kind, client_id, **fields))

    # -- stats --------------------------------------------------------------

    def stats_frame(self) -> Dict[str, Any]:
        finished = self.counters["store_hits"] + self.counters["simulated"]
        hits = self.counters["store_hits"] + self.counters["deduped"]
        requests = finished + self.counters["deduped"]
        return response(
            "stats",
            uptime_s=round(self.clock() - self.started, 3),
            jobs=dict(self.counters),
            running=len(self.running),
            admission=self.admission.snapshot(),
            tenants=self.quotas.snapshot(),
            cache_hit_ratio=(
                round(hits / requests, 6) if requests else 0.0
            ),
            store={
                "corrupt_events": len(self.store.corrupt_events),
                "claim_waits": self.store.claim_waits,
            },
        )

    # -- connection handling ------------------------------------------------

    def _dispatch(self, frame: Dict[str, Any], conn: Connection) -> None:
        op = frame.get("op")
        if op == "ping":
            conn.send(
                response(
                    "pong",
                    uptime_s=round(self.clock() - self.started, 3),
                )
            )
        elif op == "stats":
            conn.send(self.stats_frame())
        elif op == "submit":
            try:
                self._submit(frame, conn)
            except ReproError as exc:
                conn.send(rejection(exc, frame.get("id")))
        else:
            conn.send(
                rejection(
                    ReproError(f"unknown op {op!r}"), frame.get("id")
                )
            )

    async def _pump(
        self, conn: Connection, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                frame = await conn.queue.get()
                if frame is None:
                    break
                writer.write(encode_frame(frame))
                await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # conn_drop: the job keeps running server-side
        finally:
            conn.closed = True
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = Connection()
        pump = asyncio.get_running_loop().create_task(
            self._pump(conn, writer)
        )
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except WireError as exc:
                    conn.send(rejection(exc))
                    break
                if frame is None:
                    break
                self._dispatch(frame, conn)
        finally:
            conn.send(None)  # sentinel: flush pending frames, then stop
            conn.closed = True
            try:
                await asyncio.wait_for(pump, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pump.cancel()

    # -- lifecycle ----------------------------------------------------------

    def _recover(self) -> None:
        """Re-enqueue the previous daemon's journal-orphaned jobs.

        No new ``submitted`` record (the original is still on file); no
        admission/quota gate (the jobs were already admitted once); no
        waiters (their clients are gone — results land in the artifact
        store and the ``done`` journal record).  The digest is
        recomputed from the current sources (normally a digest-memo
        hit), never taken from the record, so a recovered job dedupes
        with new submits of the same spec.  An orphan from an unknown
        benchmark or with an event-capture limit (which older daemons
        accepted) is skipped.
        """
        for record in self.journal.orphans():
            if record.get("trace_limit") is not None:
                continue  # a capped job from an older daemon: not resumable
            spec = JobSpec(
                name=str(record.get("benchmark", "")),
                scale=float(record.get("scale", 1.0)),
                backend=str(record.get("backend", "interp")),
            )
            try:
                resolve_benchmark(spec.name)
            except UnknownBenchmark:
                continue  # journal from an older suite; nothing to resume
            digest = compute_job_digest(spec, str(self.cache_dir))
            job = ServiceJob(
                id=str(record["job"]),
                tenant=str(record.get("tenant", "anonymous")),
                spec=spec,
                digest=digest,
                stem=self.store.stem(spec, digest),
                predictors=tuple(record.get("predictors", ())),
                deadline_s=None,  # its clock died with the old daemon
                submitted_at=self.clock(),
                recovered=True,
            )
            self.jobs[job.id] = job
            self.inflight[job.stem] = job
            self.admission.queue.append(job)
            self.counters["recovered"] += 1

    def _begin_drain(self, now: float) -> None:
        self.draining = True
        self._drain_started = now
        self.admission.draining = True
        for _, handle in self.running.values():
            handle.terminate()  # workers checkpoint + report interrupted

    async def _scheduler(self) -> None:
        while True:
            now = self.clock()
            if not self.draining and interrupt.drain_requested():
                self._begin_drain(now)
            if self.draining:
                if not self.running:
                    break
                if (
                    self._drain_started is not None
                    and now - self._drain_started > DRAIN_KILL_GRACE
                ):
                    for _, handle in self.running.values():
                        handle.kill()
            else:
                self._launch(now)
            self._poll_outcomes(now)
            await asyncio.sleep(_POLL_SECONDS)
        # Jobs still queued at drain keep their journal orphan record;
        # tell any connected waiters the daemon is going away.
        while True:
            job = self.admission.pop()
            if job is None:
                break
            self._interrupt_queued(job)

    def _interrupt_queued(self, job: ServiceJob) -> None:
        """A job the drain caught before it ran: it resumes on restart."""
        job.state = "interrupted"
        self.counters["interrupted"] += 1
        self._notify(
            job,
            "interrupted",
            {
                "error": error_to_dict(
                    JobInterrupted(
                        f"{job.spec.name} was queued when the "
                        "daemon drained; it resumes on restart",
                        benchmark=job.spec.name,
                    )
                ),
                "resumable": True,
            },
        )

    async def run(self) -> int:
        """Boot, serve until drained, exit 0."""
        interrupt.reset_drain()
        loop = asyncio.get_running_loop()
        handled_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, interrupt.request_drain)
                handled_signals.append(signum)
            except (NotImplementedError, ValueError, OSError):
                pass
        previous_pdeathsig = os.environ.get(interrupt.PDEATHSIG_ENV)
        os.environ[interrupt.PDEATHSIG_ENV] = "1"
        self._recover()
        socket_path = Path(self.config.socket_path)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        if socket_path.exists():
            socket_path.unlink()  # stale socket from a SIGKILLed daemon
        server = await asyncio.start_unix_server(
            self._handle_client,
            path=str(socket_path),
            limit=MAX_FRAME_BYTES,
        )
        try:
            await self._scheduler()
            if self._tasks:
                await asyncio.wait_for(
                    asyncio.gather(*self._tasks, return_exceptions=True),
                    timeout=DRAIN_KILL_GRACE,
                )
        finally:
            server.close()
            await server.wait_closed()
            try:
                socket_path.unlink()
            except OSError:
                pass
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            if previous_pdeathsig is None:
                os.environ.pop(interrupt.PDEATHSIG_ENV, None)
            else:
                os.environ[interrupt.PDEATHSIG_ENV] = previous_pdeathsig
            interrupt.reset_drain()
        return 0


def serve(config: ServiceConfig) -> int:
    """Run one daemon to completion (drain or loop teardown); exit code."""
    return asyncio.run(AnalysisService(config).run())


__all__ = [
    "AnalysisService",
    "Connection",
    "SERVICE_SUBDIR",
    "ServiceConfig",
    "serve",
]
