"""The one worker-process lifecycle behind the engine, daemon and supervisor.

:class:`~repro.eval.worker.WorkerProcess` is driven here with tiny
module-level targets instead of simulations, so every outcome — ok,
error, crash, deadline, SIGKILL escalation — is exercised in well under
a second.  The last test pins that the engine and the daemon turn the
same worker outcome into the same typed error.
"""

import os
import signal
import time
from collections import namedtuple

import pytest

from repro.errors import JobInterrupted, error_to_dict
from repro.eval import engine as engine_module
from repro.eval import worker as worker_module
from repro.eval.digest import JobSpec
from repro.eval.engine import ExecutionEngine
from repro.eval.worker import WorkerHandle, WorkerProcess
from repro.service.app import (
    AnalysisService,
    Connection,
    ServiceConfig,
)
from repro.service.jobs import ServiceJob

pytestmark = pytest.mark.faults


def _double(value):
    return value * 2


def _raise(message):
    raise ValueError(message)


def _exit(code):
    os._exit(code)


def _hang(payload):
    time.sleep(60.0)


def _hang_after_marker(path):
    # Inside a worker SIGTERM only sets the drain flag, so this sleeps
    # through terminate() exactly like a wedged simulation would.
    open(path, "w").close()
    time.sleep(60.0)


def _wait_for(predicate, seconds=20.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError("timed out waiting for the worker")


def _ok(tmp_path, monkeypatch):
    return WorkerProcess(_double, 21)


def _error(tmp_path, monkeypatch):
    return WorkerProcess(_raise, "boom")


def _crash(tmp_path, monkeypatch):
    return WorkerProcess(_exit, 3)


def _deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(worker_module, "_execute_job", _hang)
    return WorkerHandle(JobSpec("plot"), None, timeout=0.2)


def _ignores_sigterm(tmp_path, monkeypatch):
    marker = tmp_path / "started"
    worker = WorkerProcess(_hang_after_marker, str(marker))
    _wait_for(marker.exists)
    worker.terminate()
    time.sleep(0.2)
    return worker


Case = namedtuple("Case", "spawn outcome exitcode")

CASES = {
    "ok": Case(_ok, ("ok", 42), 0),
    "error": Case(
        _error,
        ("error", error_to_dict(ValueError("boom"))),
        0,
    ),
    "crash": Case(_crash, ("crash", 3), 3),
    # the deadline SIGTERMs the worker, which sleeps on: reap kills it
    "deadline": Case(_deadline, ("timeout", None), -signal.SIGKILL),
    # a terminated worker that never reports is still running, and
    # reap escalates to SIGKILL after its grace period
    "ignores-sigterm": Case(_ignores_sigterm, None, -signal.SIGKILL),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_worker_process_lifecycle(name, tmp_path, monkeypatch):
    case = CASES[name]
    worker = case.spawn(tmp_path, monkeypatch)
    try:
        if case.outcome is None:
            assert worker.poll() is None
        else:
            assert _wait_for(worker.poll) == case.outcome
    finally:
        started = time.monotonic()
        worker.reap(grace=0.5)
    assert not worker.process.is_alive()
    assert worker.process.exitcode == case.exitcode
    assert time.monotonic() - started < 5.0


class _LateReceiver:
    """A result pipe whose first ``poll`` misses what is already sent.

    Forces the interleaving where the child reports and exits between
    the parent's pipe check and its liveness probe.
    """

    def __init__(self, conn):
        self.conn = conn
        self.polls = 0

    def poll(self):
        self.polls += 1
        return self.polls > 1 and self.conn.poll()

    def recv(self):
        return self.conn.recv()

    def close(self):
        self.conn.close()


def test_outcome_sent_just_before_exit_is_not_a_crash(monkeypatch):
    monkeypatch.setattr(worker_module, "_execute_job", _raise)
    handle = WorkerHandle(JobSpec("plot"), None)
    handle.process.join(timeout=20.0)
    assert handle.process.exitcode == 0
    handle.receiver = _LateReceiver(handle.receiver)
    try:
        kind, payload = handle.poll()
    finally:
        handle.reap()
    assert kind == "error"
    assert payload["code"] == "unexpected_error"


class _Reported:
    """A finished worker: ``poll`` returns one canned outcome."""

    def __init__(self, outcome, spec=None):
        self.outcome = outcome
        self.spec = spec

    def poll(self):
        return self.outcome

    def reap(self, grace=5.0):
        pass


OUTCOMES = {
    "crash": ("crash", -9),
    "error": ("error", error_to_dict(ValueError("boom"))),
    "job_interrupted": (
        "error",
        error_to_dict(
            JobInterrupted(
                "plot drained on SIGTERM after 10 events "
                "(1 checkpoint(s) written; resumable)",
                benchmark="plot",
                events=10,
                checkpoints_written=1,
            )
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(OUTCOMES))
def test_engine_and_daemon_type_outcomes_alike(
    name, tmp_path, monkeypatch
):
    outcome = OUTCOMES[name]

    monkeypatch.setattr(
        engine_module,
        "WorkerHandle",
        lambda spec, *args, **kwargs: _Reported(outcome, spec),
    )
    engine = ExecutionEngine(scale=0.05, jobs=2, retries=0)
    engine._run_parallel(["plot"])
    engine_error = error_to_dict(engine.failures["plot"])

    service = AnalysisService(
        ServiceConfig(
            socket_path=str(tmp_path / "svc.sock"),
            cache_dir=str(tmp_path / "cache"),
            retries=0,
        )
    )
    conn = Connection()
    job = ServiceJob(
        id="job-1",
        tenant="anonymous",
        spec=JobSpec("plot", scale=0.05),
        digest="0" * 64,
        stem="plot-0",
        attempts=1,
        waiters=[(conn, "job-1")],
    )
    service.jobs[job.id] = job
    service.running[job.id] = (job, _Reported(outcome))
    service._poll_outcomes(0.0)
    frame = conn.queue.get_nowait()
    assert frame["type"] == (
        "interrupted" if name == "job_interrupted" else "failed"
    )
    assert frame["error"]["code"] == engine_error["code"]
    assert frame["error"]["message"] == engine_error["message"]
