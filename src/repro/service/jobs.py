"""Service job records, the crash-safe service journal, and predictors.

A job's lifecycle must survive the daemon dying at any instant, so it is
written down twice:

* the **service journal** (``<cache>/service/service.jsonl``, same
  fsynced append discipline as the suite run journal) records one
  ``submitted`` line when a job is admitted and one ``done`` line when
  it reaches a terminal state.  A ``submitted`` line without a matching
  ``done`` line is an *orphan*: the daemon died (or was SIGKILLed) with
  the job in flight, and the restarted daemon re-enqueues it;
* the job's simulation progress lives in the shared checkpoint store
  under the job's artifact stem, so a re-enqueued orphan resumes
  mid-simulation and produces artifacts byte-identical to an
  undisturbed run (the engine's checkpoint/resume guarantee).

Predictor configs ride along as compact specs (``"gshare:10"``) so a
submit frame stays one JSON line; :func:`build_predictor` maps them to
instances inside the daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..checkpoint.journal import RunJournal
from ..errors import ReproError
from ..eval.digest import JobSpec
from ..predictors import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BimodalPredictor,
    BranchPredictor,
    BTFNTPredictor,
    GSharePredictor,
)

#: Terminal job states: exactly these get a ``done`` journal record.
#: ``interrupted`` is deliberately NOT terminal — an interrupted job
#: stays an orphan in the journal so the restarted daemon resumes it.
TERMINAL_STATES = ("completed", "failed", "cancelled")


def build_predictor(spec: str) -> BranchPredictor:
    """A predictor instance for a compact wire spec.

    ``"bimodal[:SIZE]"``, ``"gshare[:HISTORY_BITS]"``,
    ``"always_taken"``, ``"always_not_taken"``, ``"btfnt"``.

    Raises:
        ValueError: unknown predictor name or malformed parameter.
    """
    name, _, param = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "bimodal":
            return BimodalPredictor(size=int(param) if param else 2048)
        if name == "gshare":
            return GSharePredictor(
                history_bits=int(param) if param else 12
            )
        if name == "always_taken" and not param:
            return AlwaysTakenPredictor()
        if name == "always_not_taken" and not param:
            return AlwaysNotTakenPredictor()
        if name == "btfnt" and not param:
            return BTFNTPredictor()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad predictor spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown predictor spec {spec!r} (expected bimodal[:size], "
        "gshare[:bits], always_taken, always_not_taken or btfnt)"
    )


@dataclass
class ServiceJob:
    """One submitted analysis job and its in-daemon runtime state."""

    id: str
    tenant: str
    spec: JobSpec
    digest: str
    stem: str
    predictors: Tuple[str, ...] = ()
    #: wall-clock budget from admission to completion; None = unbounded.
    deadline_s: Optional[float] = None
    state: str = "queued"
    #: monotonic admission time (latency measurements).
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    attempts: int = 0
    error: Optional[ReproError] = None
    #: True when this job was re-enqueued from the journal after a
    #: daemon crash (no client is waiting on it).
    recovered: bool = False
    #: (outbox, client job id) pairs to stream result frames to;
    #: deduped submits attach here with their own id.
    waiters: List[Tuple[Any, str]] = field(default_factory=list)
    #: the workload built to digest a never-seen submit; handed to the
    #: job's worker and dropped at launch (never journaled).
    built: Optional[Any] = None
    #: True once a stored entry could not be served in the daemon (it
    #: vanished or was quarantined): the next launch spawns a worker,
    #: and a second loss counts as a failed attempt.
    needs_worker: bool = False

    def deadline_remaining(self, now: float) -> Optional[float]:
        """Seconds left on the deadline at *now* (None = unbounded)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - (now - self.submitted_at)

    def journal_record(self) -> Dict[str, Any]:
        """The ``submitted`` journal line — everything a restarted
        daemon needs to rebuild and resume this job."""
        return {
            "kind": "submitted",
            "job": self.id,
            "tenant": self.tenant,
            "benchmark": self.spec.name,
            "scale": self.spec.scale,
            "backend": self.spec.backend,
            "digest": self.digest,
            "predictors": list(self.predictors),
        }


class ServiceJournal(RunJournal):
    """Append-only, fsynced record of the daemon's job lifecycle.

    Reuses the suite journal's torn-tail-safe append and tolerant reads;
    only the record vocabulary differs (``kind: submitted | done``
    keyed by job id, rather than per-benchmark completion).
    """

    FILENAME = "service.jsonl"

    def record_submitted(self, job: ServiceJob) -> None:
        self.append(job.journal_record())

    def record_done(
        self,
        job_id: str,
        status: str,
        digest: str = "",
        error: Optional[Dict[str, Any]] = None,
    ) -> None:
        record: Dict[str, Any] = {
            "kind": "done",
            "job": job_id,
            "status": status,
        }
        if digest:
            record["digest"] = digest
        if error is not None:
            record["error"] = error
        self.append(record)

    def orphans(self) -> List[Dict[str, Any]]:
        """``submitted`` records with no terminal ``done`` record.

        These are the jobs a dead daemon left in flight (or queued);
        the restarted daemon re-enqueues them and their simulations
        resume from the shared checkpoint store.  Append order is
        preserved so recovery re-runs jobs in submission order.
        """
        submitted: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        records, _ = self.read()
        for record in records:
            job_id = record.get("job")
            if not isinstance(job_id, str):
                continue
            kind = record.get("kind")
            if kind == "submitted":
                if job_id not in submitted:
                    order.append(job_id)
                submitted[job_id] = record
            elif kind == "done" and record.get("status") in TERMINAL_STATES:
                submitted.pop(job_id, None)
        return [submitted[job_id] for job_id in order if job_id in submitted]


__all__ = [
    "ServiceJob",
    "ServiceJournal",
    "TERMINAL_STATES",
    "build_predictor",
]
