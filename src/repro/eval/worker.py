"""One job end to end, in this process or a sacrificial worker process.

:func:`_execute_job` digests, takes a stored entry or builds, simulates
and stores; :class:`WorkerProcess` runs it (or any module-level target)
in a daemon process.  A worker that raises, dies or hangs yields a
structured :class:`JobResult` carrying a typed
:class:`~repro.errors.ReproError` instead of killing the caller.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..checkpoint import CheckpointConfig, CheckpointStore, run_simulation
from ..errors import JobFailed, JobInterrupted, ReproError, error_to_dict
from ..pipeline.bus import BranchEventBus, PipelineStats
from ..pipeline.consumers import InterleaveConsumer, TraceBuilder
from ..sim.api import SuperblockBackend
from ..workloads.build import BuiltWorkload, build_workload
from ..workloads.suite import get_benchmark
from . import faults, interrupt
from .digest import JobSpec, compute_job_digest
from .store import ArtifactStore, RunArtifacts

#: subdirectory of the cache root holding simulation checkpoints.
CHECKPOINT_SUBDIR = "checkpoints"
#: subdirectory of the cache root holding superblock code packs.
CODE_SUBDIR = "code"


@dataclass(frozen=True)
class JobResult:
    """Outcome of one executed job.

    ``artifacts`` is ``None`` when a worker process wrote them to (or
    found them in) the artifact store — the parent loads them from there
    instead of shipping arrays through the pickle pipe — *and* when the
    job failed, in which case ``error`` carries the typed failure and
    ``source`` is ``"failed"``.  An in-process store hit carries the
    artifacts of its :meth:`~repro.eval.store.ArtifactStore.load`, so
    the engine never reads a stored entry twice.
    """

    spec: JobSpec
    digest: str
    source: str  # "store" | "simulated" | "resimulated" | "failed"
    seconds: float
    artifacts: Optional[RunArtifacts] = None
    error: Optional[ReproError] = None
    attempts: int = 1
    quarantined: int = 0
    #: per-consumer observability counters when the job simulated
    #: through the event bus (None on store hits and failures).
    pipeline: Optional[PipelineStats] = None
    #: checkpoint files written during this job's simulation.
    checkpoints_written: int = 0
    #: True when the simulation restored from a checkpoint instead of
    #: starting from instruction zero.
    resumed: bool = False
    #: quarantine files age-pruned by the artifact store during the job.
    quarantine_pruned: int = 0


def _execute_job(
    payload: Tuple,
    progress: Optional[Callable[[str, int], None]] = None,
    speculative: bool = False,
) -> JobResult:
    """Run one job end to end (pool worker; must stay module-level).

    *payload* is ``(spec, cache_root, in_worker, checkpoint_every)``,
    optionally followed by the :class:`BuiltWorkload` the caller already
    built for *spec* (the daemon builds a never-seen job to digest it),
    which a simulation then uses instead of building again.

    Digests (through the store's digest memo, which skips the build on a
    hit), then either takes the artifacts from the store or builds,
    simulates and stores.  A superblock simulation with a store keeps
    its compiled code under ``<cache_root>/code/`` for later jobs of the
    same program image.  A worker process only verifies a stored entry
    and returns no arrays — the parent loads them by digest — so the
    pickle pipe stays small; an in-process store hit returns the
    artifacts of its load (one checksummed read of the archive file;
    the trace inflates only if read).

    The simulation always runs through
    :func:`~repro.checkpoint.run_simulation`.  With a checkpoint cadence
    (``checkpoint_every`` events) and a store it is sliced: it resumes
    from the latest valid checkpoint for this job's stem, writes new
    ones as it goes, and clears them once the artifacts are safely in
    the store.  A retried/killed job therefore continues where the
    previous attempt stopped instead of restarting from instruction
    zero.  Without a cadence it runs as one slice.

    ``progress`` (in-process callers only; it cannot cross the pool's
    pickle pipe) is invoked with ``(benchmark, events)`` at job start and
    after every simulation slice — supervised shard workers refresh their
    heartbeat lease from it.  Independently of the caller's hook, a held
    store claim has its mtime refreshed on the same path (throttled by
    :data:`ArtifactStore.CLAIM_REFRESH_SECONDS`), so a slow-but-alive
    holder is never mistaken for a dead one by the mtime backstop.

    ``speculative`` marks a straggler re-execution: the job never waits
    on another writer's live claim, it simulates concurrently and relies
    on the store's idempotent atomic put — first writer wins, and the
    content address guarantees both writers carry identical bytes.

    An installed :class:`~repro.eval.faults.FaultPlan` is honoured here:
    crash/hang/flaky faults fire before the build, ``worker_kill`` fires
    from the simulation runner's slice loop, corruption faults right
    after the artifacts are stored.
    """
    spec, cache_root, in_worker, checkpoint_every, *given = payload
    started = time.perf_counter()
    plan = faults.active_plan()
    if plan is not None:
        plan.on_job_start(spec.name, in_worker)
    if progress is not None:
        progress(spec.name, 0)
    built_here: List[BuiltWorkload] = []
    digest = compute_job_digest(spec, cache_root, on_build=built_here.append)
    store = ArtifactStore(Path(cache_root)) if cache_root else None
    checkpoints = None
    if checkpoint_every is not None and store is not None:
        checkpoints = CheckpointConfig(
            store=CheckpointStore(Path(cache_root) / CHECKPOINT_SUBDIR),
            stem=store.stem(spec, digest),
            every_events=checkpoint_every,
        )

    def store_hit(artifacts: Optional[RunArtifacts] = None) -> JobResult:
        if checkpoints is not None:
            # artifacts exist; drop stale state
            checkpoints.store.clear(checkpoints.stem)
        return JobResult(
            spec=spec,
            digest=digest,
            source="store",
            seconds=time.perf_counter() - started,
            artifacts=artifacts,
            quarantined=len(store.corrupt_events),
            quarantine_pruned=store.pruned_entries,
        )

    if store is not None:
        if in_worker:
            if store.verify(spec, digest):
                return store_hit()
        else:
            stored = store.load(spec, digest)
            if stored is not None:
                return store_hit(stored)
    claimed = store.try_claim(spec, digest) if store is not None else False
    if store is not None and not claimed and not speculative:
        # Another engine (or daemon worker) is simulating this exact
        # digest right now: wait for its atomic publish instead of
        # duplicating the simulation.  A stale claim (the writer died)
        # or an exhausted wait budget falls through to simulating here.
        # Speculative re-executions skip the wait on purpose — racing
        # the (possibly wedged) claim holder is their entire job.
        if store.wait_for_writer(spec, digest):
            return store_hit()
        claimed = store.try_claim(spec, digest)

    if built_here:
        built = built_here[0]
    elif given and given[0] is not None:
        built = given[0]
    else:
        built = build_workload(get_benchmark(spec.name, scale=spec.scale))
    backend = spec.backend
    if backend == SuperblockBackend.name and cache_root:
        backend = SuperblockBackend(code_dir=Path(cache_root) / CODE_SUBDIR)
    last_refresh = [time.monotonic()]

    def _slice_progress(events: int) -> None:
        if claimed:
            now = time.monotonic()
            if now - last_refresh[0] >= store.CLAIM_REFRESH_SECONDS:
                last_refresh[0] = now
                try:
                    os.utime(store.claim_path(spec, digest))
                except OSError:
                    pass  # claim broken/raced away; put stays idempotent
        if progress is not None:
            progress(spec.name, events)

    try:
        # one pass: the bus fans each branch event to the profiler and
        # the chunked trace builder together (no capture-then-replay)
        profiler = InterleaveConsumer(label=spec.name)
        builder = TraceBuilder(label=spec.name)
        bus = BranchEventBus([profiler, builder])
        outcome = run_simulation(
            built,
            bus,
            config=checkpoints,
            fault_plan=plan,
            benchmark=spec.name,
            in_worker=in_worker,
            backend=backend,
            stop_check=interrupt.drain_requested,
            progress=_slice_progress,
        )
        result = outcome.result
        checkpoints_written = outcome.checkpoints_written
        if outcome.interrupted:
            raise JobInterrupted(
                f"{spec.name} drained on SIGTERM after "
                f"{bus.stats.events} events "
                f"({checkpoints_written} checkpoint(s) written; "
                "resumable)",
                benchmark=spec.name,
                events=bus.stats.events,
                checkpoints_written=checkpoints_written,
            )
        checkpoint_quarantined = (
            len(checkpoints.store.corrupt_events) if checkpoints else 0
        )
        pipeline = bus.finish()
        trace = builder.result
        profile = profiler.result
        profile.instructions = result.instructions
        artifacts = RunArtifacts(
            name=spec.name,
            trace=trace,
            profile=profile,
            instructions=result.instructions,
            static_branches=built.static_conditional_branches,
        )
        if store is not None:
            store.put(spec, digest, artifacts)
            if checkpoints is not None:
                # the artifacts are the durable state now
                checkpoints.store.clear(checkpoints.stem)
            if plan is not None:
                trace_path, meta_path = store.paths(spec, digest)
                plan.on_artifacts_stored(spec.name, trace_path, meta_path)
            artifacts = None  # parent reloads from the store
    finally:
        if claimed:
            store.release_claim(spec, digest)
    return JobResult(
        spec=spec,
        digest=digest,
        source="simulated",
        seconds=time.perf_counter() - started,
        artifacts=artifacts,
        quarantined=(
            len(store.corrupt_events) if store is not None else 0
        )
        + checkpoint_quarantined,
        pipeline=pipeline,
        checkpoints_written=checkpoints_written,
        resumed=outcome.resumed_from_checkpoint,
        quarantine_pruned=store.pruned_entries if store is not None else 0,
    )


def _worker_entry(conn, target, payload) -> None:
    """Process entry point: run ``target(payload)``, ship the outcome.

    Every exception is serialised and sent back as ``("error", dict)``,
    so a *raising* job can never take down its parent; a job that kills
    its process (``os._exit``) or hangs is detected parent-side by
    :meth:`WorkerProcess.poll` and the caller's deadline.

    SIGTERM is routed to the drain flag, so a terminated worker (drain,
    deadline cancellation) checkpoints at the next slice boundary and
    reports a typed ``job_interrupted`` outcome instead of dying with
    work in flight; a worker that ignores it (a hang fault) is escalated
    to SIGKILL by :meth:`WorkerProcess.reap`.
    """
    interrupt.install_worker_handler()
    interrupt.set_pdeathsig()
    try:
        try:
            result = target(payload)
        except Exception as exc:  # crash isolation: report, don't die
            conn.send(("error", error_to_dict(exc)))
        else:
            conn.send(("ok", result))
    finally:
        conn.close()


#: seconds a draining scheduler waits for terminated workers to report
#: their checkpointed ``job_interrupted`` outcome before escalating to
#: SIGKILL (progress is already durable in the checkpoint either way).
DRAIN_KILL_GRACE = 10.0


class WorkerProcess:
    """One sacrificial daemon process running ``target(payload)``.

    The one spawn/poll/terminate lifecycle behind the engine's parallel
    scheduler, the analysis daemon and the shard supervisor.  *target*
    must be a module-level function; its return value comes back as the
    ``ok`` payload.  ``poll`` is non-blocking, so each caller decides how
    to wait (a sleep loop, ``await asyncio.sleep``).

    ``poll`` outcomes (None while still running):

    * ``("ok", result)`` — *target* returned *result*;
    * ``("error", payload)`` — *target* raised; *payload* is the typed
      error dict (``payload["code"] == "job_interrupted"`` marks a
      drained worker that checkpointed on the way down);
    * ``("crash", exitcode)`` — the process died without reporting.
    """

    def __init__(self, target: Callable, payload: object) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context()
        self.started = time.monotonic()
        self.receiver, sender = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_entry,
            args=(sender, target, payload),
            daemon=True,
        )
        self.process.start()
        sender.close()

    def poll(self) -> Optional[Tuple[str, object]]:
        """The worker's outcome if it has one, else None (non-blocking)."""
        if not self.receiver.poll():
            if self.process.is_alive():
                return None
            # The child may have reported and exited between the pipe
            # check and the liveness probe: drain before calling it a
            # crash.
            if not self.receiver.poll():
                return ("crash", self.process.exitcode)
        try:
            return self.receiver.recv()
        except EOFError:
            return ("crash", self.process.exitcode)

    def terminate(self) -> None:
        """SIGTERM the worker: it checkpoints and reports interrupted."""
        self.process.terminate()

    def kill(self) -> None:
        """SIGKILL the worker: no cleanup, no report (crash outcome)."""
        self.process.kill()

    def reap(self, grace: float = 5.0) -> None:
        """Close the pipe and join, escalating to SIGKILL on a hang."""
        self.receiver.close()
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=grace)


class WorkerHandle(WorkerProcess):
    """One attempt of one engine job in a :class:`WorkerProcess`.

    Adds the job's *spec* and an optional wall-clock deadline: past it,
    ``poll`` SIGTERMs the worker (it checkpoints if a cadence is
    configured) and returns ``("timeout", None)``; the caller should
    then :meth:`reap` it.  *built*, the workload the caller already
    built for *spec*, spares the worker a second build.
    """

    def __init__(
        self,
        spec: JobSpec,
        cache_root: Optional[str],
        checkpoint_every: Optional[int] = None,
        timeout: Optional[float] = None,
        built: Optional[BuiltWorkload] = None,
    ) -> None:
        self.spec = spec
        super().__init__(
            _execute_job, (spec, cache_root, True, checkpoint_every, built)
        )
        self.deadline = (
            self.started + timeout if timeout is not None else None
        )

    def poll(self) -> Optional[Tuple[str, object]]:
        outcome = super().poll()
        if (
            outcome is None
            and self.deadline is not None
            and time.monotonic() > self.deadline
        ):
            self.terminate()
            return ("timeout", None)
        return outcome


def worker_error(
    kind: str, payload: object, benchmark: str, attempts: int
) -> ReproError:
    """The typed error for a worker's ``crash`` or ``error`` outcome.

    ``crash`` and a raised job become :class:`JobFailed`; an ``error``
    whose code is ``job_interrupted`` (a drained worker that wrote its
    checkpoint) becomes :class:`JobInterrupted`, which callers must not
    retry.  Timeouts are the caller's own decision and are not mapped.
    """
    if kind == "crash":
        return JobFailed(
            f"worker for {benchmark} died "
            f"(exit code {payload}, attempt {attempts})",
            benchmark=benchmark,
            exit_code=payload,
            attempts=attempts,
        )
    if payload.get("code") == JobInterrupted.code:
        return JobInterrupted(
            payload.get("message", f"{benchmark} drained on SIGTERM"),
            benchmark=benchmark,
            attempts=attempts,
            events=payload.get("events"),
            checkpoints_written=payload.get("checkpoints_written"),
        )
    return JobFailed(
        f"{benchmark} failed: {payload.get('message', 'unknown error')}",
        benchmark=benchmark,
        attempts=attempts,
        cause=payload,
    )
