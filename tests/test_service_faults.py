"""Fault injection against the real daemon: crash, drain, recovery.

Everything here boots ``repro serve`` as a subprocess (a real process
group, real signals, real unix sockets) and drives it with a small
synchronous NDJSON client.  The acceptance property is the crash-safe
job lifecycle: a daemon SIGKILLed with jobs in flight must, on restart,
resume those jobs from the service journal + checkpoint store and
produce artifacts byte-identical to a run that was never disturbed.

Also covered: SIGTERM drain (interrupted frames, exit 0, resumable
orphans), an injected ``worker_kill`` fault retried *inside* the daemon,
and the loadgen client-side fault modes (``conn_drop``/``slow_client``).
"""

import json
import os
import signal
import socket as socketlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.eval.engine import ExecutionEngine
from repro.eval.faults import FaultPlan
from repro.service import (
    LoadgenConfig,
    ServiceJournal,
    decode_frame,
    encode_frame,
    run_loadgen,
)

pytestmark = pytest.mark.faults

REPO = Path(__file__).resolve().parent.parent
SCALE = 0.05
TERMINAL = ("completed", "failed", "cancelled", "interrupted", "rejected")


def short_socket_dir():
    """Unix socket paths are capped (~108 bytes); stay under /tmp."""
    return Path(tempfile.mkdtemp(prefix="repro-svcf-", dir="/tmp"))


def daemon_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    if extra:
        env.update(extra)
    return env


def start_daemon(socket_path, cache_dir, *flags, env=None):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(socket_path), "--cache", str(cache_dir),
         *flags],
        env=env or daemon_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # readiness = answering a ping, not the socket file existing: a
    # SIGKILLed predecessor leaves a stale socket file behind, and the
    # restarted daemon only unlinks + rebinds it once it is actually up
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon died at boot (rc {proc.returncode}): "
                f"{proc.stderr.read().decode()}"
            )
        try:
            talk(
                socket_path, [{"op": "ping"}],
                lambda f: f.get("type") == "pong", timeout=5.0,
            )
            return proc
        except (OSError, AssertionError):
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never answered a ping")


def stop_daemon(proc, timeout=120):
    """SIGTERM drain; the daemon must exit 0 on its own."""
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError("daemon did not drain after SIGTERM")
    assert rc == 0, proc.stderr.read().decode()


def talk(socket_path, frames, stop, timeout=240.0):
    """Send *frames*, read replies until ``stop(reply)``; returns all."""
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(str(socket_path))
    got = []
    try:
        for frame in frames:
            sock.sendall(encode_frame(frame))
        with sock.makefile("rb") as fh:
            while True:
                line = fh.readline()
                assert line, f"daemon hung up early: {got}"
                reply = decode_frame(line)
                got.append(reply)
                if stop(reply):
                    return got
    finally:
        sock.close()


def stats(socket_path):
    (frame,) = talk(
        socket_path, [{"op": "stats"}],
        lambda f: f.get("type") == "stats", timeout=30.0,
    )
    return frame


def submit(benchmark, job_id, scale=SCALE, **fields):
    frame = {"op": "submit", "id": job_id, "benchmark": benchmark,
             "scale": scale}
    frame.update(fields)
    return frame


def artifact_bytes(cache_dir, name):
    """Every stored artifact byte for *name* (trace, profile, meta)."""
    files = {
        path.name: path.read_bytes()
        for path in Path(cache_dir).glob(f"{name}-*")
        if path.is_file() and not path.name.endswith(".claim")
    }
    assert files, f"no stored artifacts for {name} in {cache_dir}"
    return files


def journal_statuses(cache_dir):
    journal = ServiceJournal(Path(cache_dir) / "service")
    done = {}
    for record in journal.read()[0]:
        if record.get("kind") == "done":
            done[record["job"]] = record["status"]
    return done


def wait_for_done(cache_dir, job_ids, timeout=240.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done = journal_statuses(cache_dir)
        if all(job_id in done for job_id in job_ids):
            return done
        time.sleep(0.1)
    raise AssertionError(
        f"jobs {job_ids} never finished; journal says "
        f"{journal_statuses(cache_dir)}"
    )


def test_daemon_sigkill_midflight_then_restart_is_byte_identical():
    """The acceptance property: SIGKILL the daemon with two jobs in
    flight; the restarted daemon re-enqueues the journal orphans,
    resumes them from their checkpoints, and the artifacts match an
    undisturbed daemon's byte for byte."""
    root = short_socket_dir()
    jobs = [("plot", "job-plot"), ("compress", "job-compress")]

    # undisturbed run: the ground truth artifacts
    clean_sock = root / "clean.sock"
    clean_cache = root / "clean-cache"
    proc = start_daemon(clean_sock, clean_cache, "--workers", "2")
    try:
        frames = talk(
            clean_sock,
            [submit(name, job_id) for name, job_id in jobs],
            _both_done([job_id for _, job_id in jobs]),
        )
        assert all(
            f["type"] == "completed"
            for f in frames if f.get("type") in TERMINAL
        )
    finally:
        stop_daemon(proc)
    clean = {
        name: artifact_bytes(clean_cache, name) for name, _ in jobs
    }

    # crash run: SIGKILL once both jobs are running and checkpointed
    crash_sock = root / "crash.sock"
    crash_cache = root / "crash-cache"
    proc = start_daemon(
        crash_sock, crash_cache, "--workers", "2",
        "--checkpoint-every", "500",
    )
    talk(
        crash_sock,
        [submit(name, job_id) for name, job_id in jobs],
        _accepted_count(2),
    )
    ckpt_dir = crash_cache / "checkpoints"
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        frame = stats(crash_sock)
        checkpoints = list(ckpt_dir.glob("*.ckpt"))
        if frame["running"] == 2 and len(checkpoints) >= 2:
            break
        if frame["jobs"]["completed"] == 2:
            pytest.skip("jobs finished before the kill window")
        time.sleep(0.05)
    else:
        raise AssertionError("both jobs never got in flight together")
    proc.kill()  # SIGKILL: no drain, no journal flush, no cleanup
    proc.wait(timeout=30)
    assert journal_statuses(crash_cache) == {}  # nothing terminal

    # restart on the same cache: recovery must finish both jobs
    proc = start_daemon(
        crash_sock, crash_cache, "--workers", "2",
        "--checkpoint-every", "500",
    )
    try:
        frame = stats(crash_sock)
        assert frame["jobs"]["recovered"] == 2
        done = wait_for_done(
            crash_cache, [job_id for _, job_id in jobs]
        )
        assert set(done.values()) == {"completed"}
        journal = ServiceJournal(crash_cache / "service")
        assert journal.orphans() == []
    finally:
        stop_daemon(proc)

    for name, _ in jobs:
        assert artifact_bytes(crash_cache, name) == clean[name]


def _accepted_count(want):
    seen = []

    def stop(frame):
        if frame.get("type") == "accepted":
            seen.append(frame)
        elif frame.get("type") == "rejected":
            raise AssertionError(f"unexpected rejection: {frame}")
        return len(seen) >= want

    return stop


def _both_done(job_ids):
    seen = set()

    def stop(frame):
        if frame.get("type") in TERMINAL and frame.get("id") in job_ids:
            seen.add(frame["id"])
        return seen == set(job_ids)

    return stop


def test_daemon_sigterm_drains_interrupts_and_resumes_on_restart():
    """SIGTERM mid-job: the client gets a typed ``interrupted`` frame
    (resumable), the daemon exits 0, the job stays a journal orphan,
    and the restarted daemon finishes it."""
    import threading

    root = short_socket_dir()
    sock = root / "svc.sock"
    cache = root / "cache"
    proc = start_daemon(
        sock, cache, "--workers", "1", "--checkpoint-every", "500",
    )
    frames = []
    client = threading.Thread(
        target=lambda: frames.extend(
            talk(
                sock,
                [submit("plot", "job-drain", scale=0.3)],
                lambda f: f.get("type") in TERMINAL,
            )
        )
    )
    client.start()
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if stats(sock)["running"] == 1:
                break
            time.sleep(0.02)
        else:
            raise AssertionError("job never started running")
        time.sleep(0.2)  # let the worker make checkpointable progress
    finally:
        stop_daemon(proc)  # SIGTERM; must still exit 0
    client.join(timeout=60)
    assert not client.is_alive()
    terminal = [f for f in frames if f.get("type") in TERMINAL]
    assert len(terminal) == 1
    if terminal[0]["type"] == "completed":
        pytest.skip("job finished before the drain window")
    assert terminal[0]["type"] == "interrupted"
    assert terminal[0]["resumable"] is True
    assert terminal[0]["error"]["code"] == "job_interrupted"

    # the interrupted job is an orphan: restart resumes and finishes it
    journal = ServiceJournal(cache / "service")
    assert [r["job"] for r in journal.orphans()] == ["job-drain"]
    proc = start_daemon(
        sock, cache, "--workers", "1", "--checkpoint-every", "500",
    )
    try:
        assert stats(sock)["jobs"]["recovered"] == 1
        done = wait_for_done(cache, ["job-drain"])
        assert done["job-drain"] == "completed"
    finally:
        stop_daemon(proc)
    assert ServiceJournal(cache / "service").orphans() == []


def test_injected_worker_kill_is_retried_inside_the_daemon():
    """A worker SIGKILLed mid-simulation (injected fault) is retried by
    the daemon; the retry resumes the dead attempt's checkpoint and the
    artifacts match a clean engine run byte for byte."""
    root = short_socket_dir()
    sock = root / "svc.sock"
    cache = root / "cache"
    plan = FaultPlan(
        worker_kill={"plot": 12_000}, state_dir=str(root / "state"),
    )
    proc = start_daemon(
        sock, cache, "--workers", "1", "--retries", "2",
        "--checkpoint-every", "4000",
        env=daemon_env({"REPRO_FAULTS": plan.to_json()}),
    )
    try:
        frames = talk(
            sock,
            [submit("plot", "job-killed")],
            lambda f: f.get("type") in TERMINAL,
        )
    finally:
        stop_daemon(proc)
    done = frames[-1]
    assert done["type"] == "completed", done
    assert done["attempts"] == 2  # the kill cost exactly one attempt
    assert done["resumed"] is True
    assert done["checkpoints_written"] > 0

    engine = ExecutionEngine(cache_dir=root / "clean-cache", scale=SCALE)
    engine.prefetch(["plot"])
    assert artifact_bytes(cache, "plot") == artifact_bytes(
        root / "clean-cache", "plot"
    )


def test_loadgen_fault_modes_drop_connections_but_not_jobs():
    """``conn_drop`` clients vanish after their accepted frame and
    ``slow_client`` clients trickle their submit in two writes; neither
    may fail a job server-side."""
    root = short_socket_dir()
    sock = root / "svc.sock"
    cache = root / "cache"
    proc = start_daemon(sock, cache, "--workers", "2")
    plan = FaultPlan(
        slow_client=4, slow_client_seconds=0.05, conn_drop=3,
    )
    config = LoadgenConfig(
        socket_path=str(sock),
        rate=50.0,
        jobs=6,
        benchmarks=("plot",),
        tenants=("tenant-0", "tenant-1"),
        scale=SCALE,
    )
    try:
        report = run_loadgen(config, plan=plan)
    finally:
        stop_daemon(proc)
    # requests 2 and 5 drop ((i+1) % 3 == 0); everyone else completes
    assert report["dropped"] == 2
    assert report["completed"] == 4
    assert report["failed"] == 0
    assert report["client_errors"] == 0
    assert report["shed_rate"] == 0.0
    # the dropped clients' jobs still ran to completion server-side:
    # every journaled job has a terminal ``completed`` record
    statuses = journal_statuses(cache)
    assert statuses and set(statuses.values()) == {"completed"}
    assert ServiceJournal(cache / "service").orphans() == []
    # six identical submits collapse onto one simulation
    service_jobs = report["service"]["jobs"]
    assert service_jobs["simulated"] == 1
    assert service_jobs["deduped"] == 5
    assert report["cache_hit_ratio"] == pytest.approx(5 / 6)


def test_loadgen_cli_emits_report_envelope():
    """``repro loadgen --json`` against a live daemon: a machine-
    readable envelope with the loadgen report shape."""
    root = short_socket_dir()
    sock = root / "svc.sock"
    cache = root / "cache"
    proc = start_daemon(sock, cache, "--workers", "2")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen",
             "--socket", str(sock), "--rate", "20", "--jobs", "4",
             "--benchmarks", "plot", "--scale", str(SCALE),
             "--predictors", "bimodal:512", "--json"],
            env=daemon_env(), capture_output=True, timeout=300,
        )
    finally:
        stop_daemon(proc)
    assert result.returncode == 0, result.stderr.decode()
    envelope = json.loads(result.stdout.decode())
    assert envelope["command"] == "loadgen"
    report = envelope["results"]
    assert report["completed"] == 4
    assert report["failed"] == 0
    for key in ("jobs_per_sec", "latency_p50_s", "latency_p99_s",
                "shed_rate", "cache_hit_ratio"):
        assert key in report
