"""Analysis-service throughput under open-loop load.

Boots the ``repro serve`` daemon as a real subprocess and drives it with
the in-tree load generator through three phases:

* **cold** — every digest misses the artifact store, so the run measures
  the simulate-and-publish path (admission, worker pool, journal);
* **warm** — the identical job mix again: everything must be served from
  the store, measuring pure service overhead and the cache-hit ratio;
* **saturation** — a burst far beyond a deliberately tiny admission
  queue (one worker, ``--queue-limit 2``), measuring typed shedding
  under overload: the daemon must reject with ``service_overloaded``
  rather than queue without bound, and every *admitted* job must still
  complete.

Writes ``BENCH_service.json`` at the repo root with jobs/sec, p50/p99
latency, cache-hit ratio, and shed rate per phase.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.workloads.registry import members

REPO = Path(__file__).parent.parent
SCALE = float(os.environ.get("REPRO_BENCH_SERVICE_SCALE", "0.05"))
JOBS = int(os.environ.get("REPRO_BENCH_SERVICE_JOBS", "12"))
OUTPUT = REPO / "BENCH_service.json"
BENCHMARKS = ("plot", "compress")

PHASE_KEYS = (
    "jobs",
    "completed",
    "failed",
    "rejected",
    "rejected_overloaded",
    "dropped",
    "jobs_per_sec",
    "latency_p50_s",
    "latency_p99_s",
    "shed_rate",
    "cache_hit_ratio",
)


def _daemon_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    return env


def _ping(socket_path: str) -> bool:
    try:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(2.0)
        client.connect(socket_path)
        try:
            client.sendall(b'{"op": "ping"}\n')
            return b'"pong"' in client.makefile("rb").readline()
        finally:
            client.close()
    except OSError:
        return False


def _start_daemon(socket_path: str, cache_dir: Path, *flags: str):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", socket_path, "--cache", str(cache_dir), *flags,
        ],
        env=_daemon_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60
    # readiness is protocol-level (a pong), not socket-file existence:
    # a recycled socket path may hold a stale file from a dead daemon
    while time.monotonic() < deadline:
        if _ping(socket_path):
            return proc
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon died on boot: {proc.stderr.read().decode()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never answered a ping")


def _stop_daemon(proc) -> None:
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr.decode()


def _phase_row(name: str, report: dict) -> dict:
    row = {"phase": name}
    row.update({key: report[key] for key in PHASE_KEYS})
    return row


def test_service_throughput():
    root = Path(tempfile.mkdtemp(prefix="repro-bench-svc-", dir="/tmp"))
    cache = root / "cache"
    rows = []

    sock = str(root / "svc.sock")
    proc = _start_daemon(sock, cache, "--workers", "2")
    try:
        cold = run_loadgen(
            LoadgenConfig(
                socket_path=sock, rate=50.0, jobs=JOBS,
                benchmarks=BENCHMARKS, scale=SCALE,
            )
        )
        warm = run_loadgen(
            LoadgenConfig(
                socket_path=sock, rate=200.0, jobs=JOBS,
                benchmarks=BENCHMARKS, scale=SCALE,
            )
        )
    finally:
        _stop_daemon(proc)
    assert cold["completed"] == JOBS, cold
    assert cold["failed"] == 0, cold
    assert warm["completed"] == JOBS, warm
    assert warm["failed"] == 0, warm
    # the warm pass re-submits digests the cold pass published: all of
    # its jobs must be store/dedupe hits, never fresh simulations
    assert warm["service"]["jobs"]["simulated"] == len(BENCHMARKS), warm
    assert warm["cache_hit_ratio"] > cold["cache_hit_ratio"], (cold, warm)
    rows.append(_phase_row("cold", cold))
    rows.append(_phase_row("warm", warm))

    # saturation: one worker, a two-deep queue, and a burst of jobs with
    # *distinct* digests (the full table2 mix — same-digest submissions
    # would attach to the in-flight job instead of loading the queue)
    sat_sock = str(root / "sat.sock")
    sat_proc = _start_daemon(
        sat_sock, root / "sat-cache",
        "--workers", "1", "--queue-limit", "2",
    )
    try:
        saturation = run_loadgen(
            LoadgenConfig(
                socket_path=sat_sock, rate=400.0, jobs=JOBS,
                benchmarks=members("table2"), scale=SCALE,
            )
        )
    finally:
        _stop_daemon(sat_proc)
    assert saturation["failed"] == 0, saturation
    assert saturation["completed"] >= 1, saturation
    assert saturation["rejected_overloaded"] > 0, saturation
    rows.append(_phase_row("saturation", saturation))

    OUTPUT.write_text(
        json.dumps(
            {
                "description": "analysis-service daemon under open-loop "
                "load: cold simulate path, warm store-hit path, and "
                "typed shedding at saturation (1 worker, queue depth 2)",
                "scale": SCALE,
                "jobs_per_phase": JOBS,
                "benchmarks": list(BENCHMARKS),
                "phases": rows,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
