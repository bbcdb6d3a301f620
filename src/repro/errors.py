"""Typed error taxonomy for the whole reproduction.

Every failure the pipeline can produce descends from :class:`ReproError`,
so callers can catch one root for "anything this package raised" and the
CLI can serialise any failure into the machine-readable JSON envelope via
:meth:`ReproError.to_dict`.

Layers::

    ReproError                      — root; carries a message + context dict
    ├── ArtifactCorrupt             — cache entry failed verification/load
    ├── CheckpointCorrupt           — checkpoint file failed verification
    ├── JobFailed                   — one engine job exhausted its retries
    │   ├── JobTimeout              — ... by exceeding its wall-clock budget
    │   └── JobCancelled            — cancelled by deadline/client, not retried
    ├── JobInterrupted              — checkpointed + stopped by a drain signal
    ├── SelectionError              — benchmark selector could not resolve
    │   ├── UnknownBenchmark        — ... named an unregistered benchmark
    │   └── UnknownSet              — ... named an unregistered set
    ├── ShardConflict               — shard stores disagree on artifact bytes
    ├── ShardLost                   — a supervised shard worker died or hung
    │   └── ShardRestartsExhausted  — ... and its restart budget ran out
    ├── ServiceOverloaded           — admission queue full / daemon draining
    ├── QuotaExceeded               — tenant token bucket empty
    ├── SuiteDegraded               — *every* benchmark of a run failed
    ├── ClaimsNotMet                — a paper claim failed on the suite
    ├── SuiteInterrupted            — a suite run drained on SIGTERM
    ├── MemAccessError              — invalid simulated memory access
    ├── SimulationError             — executor left text / decoded garbage
    │   (defined in repro.sim.executor, folded in here)
    ├── FuelExhausted               — instruction budget ran out
    ├── SyscallError                — unknown environment call
    ├── AsmSyntaxError              — malformed assembly input
    └── EncodingError               — unencodable instruction

The simulator/assembler errors keep their historical bases
(``RuntimeError`` / ``ValueError``) so existing ``except`` clauses keep
working; they are re-exported from this module lazily to avoid import
cycles (this module must stay import-free at the bottom of the package
dependency graph).
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Root of the package's error taxonomy.

    Context is carried as keyword arguments (``benchmark=...``,
    ``path=...``) and surfaces both in ``str()`` output and in the
    machine-readable :meth:`to_dict` form.  Subclasses set ``code`` to a
    stable machine-readable identifier.
    """

    code = "repro_error"

    def __init__(self, message: str = "", **context: Any) -> None:
        super().__init__(message)
        self.message = message
        self.context: Dict[str, Any] = context

    def __str__(self) -> str:
        return self.message

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view for the CLI envelope's ``failures`` array."""
        return {
            "error": type(self).__name__,
            "code": self.code,
            "message": self.message,
            **self.context,
        }


class ArtifactCorrupt(ReproError):
    """A stored artifact failed digest/schema verification or did not load.

    The store reports these as cache *misses* (quarantining the bad files)
    so a corrupt entry costs a resimulation, never an aborted run.  It is
    raised when a loaded entry's trace, whose bytes passed their
    checksum, fails to inflate on first read (the entry is quarantined).
    """

    code = "artifact_corrupt"


class CheckpointCorrupt(ReproError):
    """A simulation checkpoint failed magic/version/checksum verification.

    The checkpoint store reports these as misses (quarantining the bad
    file) so a damaged checkpoint costs falling back to the previous
    sequence number — or, at worst, a cold start — never an aborted run.
    """

    code = "checkpoint_corrupt"


class JobFailed(ReproError):
    """One engine job failed after exhausting its retry budget."""

    code = "job_failed"


class JobTimeout(JobFailed):
    """A job exceeded its per-attempt wall-clock budget."""

    code = "job_timeout"


class JobCancelled(JobFailed):
    """A job was cancelled — deadline expiry or an explicit client cancel.

    Cancellation is a *decision*, not a fault: the job is terminated
    through the engine's timeout path (checkpointing on the way down when
    a cadence is configured) and is never retried.
    """

    code = "job_cancelled"


class JobInterrupted(ReproError):
    """A drain signal (SIGTERM) stopped this job after a checkpoint.

    Not a failure: the job's progress is durable in its checkpoint and a
    later run (or a restarted daemon) resumes it mid-simulation.  Drain
    handling must therefore never retry an interrupted job.
    """

    code = "job_interrupted"


class ServiceOverloaded(ReproError):
    """The analysis service shed this request instead of queueing it.

    Returned (as a typed wire rejection, never a crash) when the
    admission queue is at capacity or the daemon is draining.  Clients
    should back off and resubmit.
    """

    code = "service_overloaded"


class QuotaExceeded(ReproError):
    """The submitting tenant's token bucket had no tokens left.

    Per-tenant rate limiting: the rejection names the tenant and the
    earliest time a token will be available (``retry_after_s``).
    """

    code = "quota_exceeded"


class SelectionError(ReproError):
    """A benchmark selector expression could not be resolved.

    Raised by :func:`repro.workloads.registry.resolve_selection` for
    malformed or empty selections; the CLI turns any
    :class:`SelectionError` into an exit-2 usage diagnostic (these are
    caller errors, not pipeline faults).
    """

    code = "invalid_selection"


class UnknownBenchmark(SelectionError):
    """A selector named a benchmark that is not registered.

    Carries a ``suggestion`` context entry with the closest registered
    name when one exists, so the CLI diagnostic can offer a near-miss.
    """

    code = "unknown_benchmark"


class UnknownSet(SelectionError):
    """A selector named a benchmark set that is not registered.

    Carries a ``suggestion`` context entry with the closest registered
    set name when one exists.
    """

    code = "unknown_set"


class ShardConflict(ReproError):
    """Two shard stores disagree about the bytes of one artifact.

    Content-addressed filenames embed the artifact digest, so two files
    with the same name must be byte-identical; a mismatch means one
    shard host ran divergent code (or suffered silent corruption) and
    the merge must not paper over it.  Raised by
    :func:`repro.eval.shards.merge_shards` naming the file and both
    sources.
    """

    code = "shard_conflict"


class ShardLost(ReproError):
    """A supervised shard worker died (crash) or stopped heartbeating (hang).

    Raised — or recorded, when the supervisor can recover — by
    :mod:`repro.eval.supervisor` after the pid probe finds the worker
    process gone, or after its heartbeat lease expired and the wedged
    process was killed.  Its finished work is durable in the store; the
    benchmarks without a verified entry there are restarted or reassigned.
    """

    code = "shard_lost"


class ShardRestartsExhausted(ShardLost):
    """A lost shard burned through its bounded restart budget.

    The supervisor stops respawning this shard slot; its remaining
    benchmarks are re-partitioned across surviving workers.  Raised only
    when no survivor is left to take the work.
    """

    code = "shard_restarts_exhausted"


class SuiteDegraded(ReproError):
    """Every benchmark an experiment needed failed.

    Partial failure degrades gracefully (experiments run on the surviving
    set); this is raised — and turned into a nonzero exit — only when
    nothing survived.
    """

    code = "suite_degraded"


class ClaimsNotMet(ReproError):
    """A paper claim failed on the analog suite (:mod:`repro.eval.claims`)."""

    code = "claims_not_met"


class SuiteInterrupted(ReproError):
    """A SIGTERM drained this suite run before it finished.

    Completed benchmarks are journaled and their artifacts durable;
    in-flight jobs wrote checkpoints on the way down.  Rerunning the
    same command continues from where the drain stopped: finished work
    is served by the store, in-flight work restores its checkpoint.
    """

    code = "suite_interrupted"


class MemAccessError(ReproError, RuntimeError):
    """Raised on invalid simulated memory access.

    Replaces the historical ``MemoryError_`` name, which shadowed the
    builtin pattern; the deprecated alias was removed from
    :mod:`repro.sim.memory` after one release of warnings.
    """

    code = "mem_access_error"


#: Errors defined in their home modules but folded into the taxonomy here.
_FOLDED = {
    "SimulationError": ("repro.sim.executor", "SimulationError"),
    "FuelExhausted": ("repro.sim.executor", "FuelExhausted"),
    "SyscallError": ("repro.sim.syscalls", "SyscallError"),
    "AsmSyntaxError": ("repro.asm.lexer", "AsmSyntaxError"),
    "EncodingError": ("repro.isa.encoding", "EncodingError"),
}


def __getattr__(name: str):  # lazy re-exports, avoids import cycles
    target = _FOLDED.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target[0]), target[1])


def error_to_dict(exc: BaseException) -> Dict[str, Any]:
    """Serialise any exception for the JSON envelope.

    :class:`ReproError` instances use their typed :meth:`~ReproError.to_dict`;
    foreign exceptions get a generic wrapper so the envelope never loses a
    failure just because it was not ours.
    """
    if isinstance(exc, ReproError):
        return exc.to_dict()
    return {
        "error": type(exc).__name__,
        "code": "unexpected_error",
        "message": str(exc),
    }


__all__ = [
    "ArtifactCorrupt",
    "AsmSyntaxError",
    "CheckpointCorrupt",
    "ClaimsNotMet",
    "EncodingError",
    "FuelExhausted",
    "JobCancelled",
    "JobFailed",
    "JobInterrupted",
    "JobTimeout",
    "MemAccessError",
    "QuotaExceeded",
    "ReproError",
    "SelectionError",
    "ServiceOverloaded",
    "ShardConflict",
    "ShardLost",
    "ShardRestartsExhausted",
    "SimulationError",
    "SuiteDegraded",
    "SuiteInterrupted",
    "SyscallError",
    "UnknownBenchmark",
    "UnknownSet",
    "error_to_dict",
]
