"""The repository benchmark: workloads, correctness gates, per-layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs one unit of the workload with the layer wrappers
installed and reports the per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
when every correctness check passed, 1 when one failed and 2 when the
benchmark could not run at all.

See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

#: the workloads BENCHMARK.json lists (``--workload all`` runs these).
WORKLOADS = ("suite-warm", "service-mix", "supervised")
#: runnable on request but outside BENCHMARK.json (run budget, README).
OPTIONAL_WORKLOADS = ("suite-cold",)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}
PER_LAYER = {
    "workloads.build_s": "s",
    "engine.digest_s": "s",
    "engine.store.verify_s": "s",
    "engine.store.load_s": "s",
    "engine.store.put_s": "s",
    "engine.store.claim_wait_s": "s",
    "engine.store.hit_ratio": "ratio",
    "engine.store.hits": "count",
    "engine.jobs": "count",
    "engine.spawn_s": "s",
    "engine.workers": "count",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.instructions": "count",
    "pipeline.interleave_s": "s",
    "pipeline.trace_builder_s": "s",
    "pipeline.chunk_flushes": "count",
    "checkpoint.save_s": "s",
    "checkpoint.writes": "count",
    "checkpoint.journal_s": "s",
    "checkpoint.journal_appends": "count",
    "analysis.working_sets_s": "s",
    "allocation.sizing_s": "s",
    "predictors.replay_s": "s",
    "predictors.events_replayed": "count",
    "service.accept_s": "s",
    "service.requests": "count",
    "service.deduped": "count",
    "service.dedup_ratio": "ratio",
    "service.rejected": "count",
    "supervisor.lease_s": "s",
    "supervisor.lease_writes": "count",
    "supervisor.restarts": "count",
    "supervisor.speculative_runs": "count",
    "supervisor.speculative_wins": "count",
    "supervisor.speculative_win_ratio": "ratio",
    "shards.partition_s": "s",
    "shards.merge_s": "s",
    "proc.import_s": "s",
    "residual_s": "s",
    "residual_share": "ratio",
    "trace.overhead_s": "s",
}
#: fresh ``python -m repro`` starts per setup_s median (suite workloads)
SETUP_STARTS = 5
#: daemon launches per setup_s median (service-mix)
SETUP_DAEMONS = 5
#: flag (not gate) a traced unit whose unattributed share exceeds this
RESIDUAL_TARGET = 0.10


class BenchError(Exception):
    """The benchmark cannot run here (not a correctness failure)."""


# -- processes ---------------------------------------------------------------


def child_env(trace_dir: Optional[Path] = None) -> Dict[str, str]:
    """The environment every program process gets (pinned for steadiness)."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PERFBENCH_") and k != "REPRO_FAULTS"
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    if trace_dir is not None:
        env[spans.TRACE_DIR_ENV] = str(trace_dir)
    return env


#: every process launched and not yet reaped (killed on the way out).
LIVE: List["Proc"] = []


@dataclass
class Proc:
    """One program process: launched, then reaped with its rusage."""

    popen: subprocess.Popen
    started: float
    out: Path
    ended: float = 0.0
    code: Optional[int] = None
    maxrss_mb: float = 0.0

    @classmethod
    def launch(
        cls, args: List[str], out: Path, trace_dir: Optional[Path] = None
    ) -> "Proc":
        env = child_env(trace_dir)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "boot.py"), *args]
        with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as err:
            started = time.monotonic()
            env[spans.LAUNCH_ENV] = repr(started)
            popen = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=stdout, stderr=err
            )
        proc = cls(popen, started, out)
        LIVE.append(proc)
        return proc

    def running(self) -> bool:
        """True while alive; never reaps (rusage is collected by wait)."""
        info = os.waitid(
            os.P_PID, self.popen.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT
        )
        return info is None

    def wait(self) -> "Proc":
        """Reap; rusage covers the process and every descendant it reaped."""
        _, status, usage = os.wait4(self.popen.pid, 0)
        self.ended = time.monotonic()
        LIVE.remove(self)
        self.code = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.code
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        return self

    @property
    def wall(self) -> float:
        return self.ended - self.started

    def envelope(self) -> dict:
        """The ``--json`` envelope the process printed (``{}`` if none)."""
        try:
            return json.loads(self.out.read_text(encoding="utf-8", errors="replace"))
        except ValueError:
            return {}


def reap_all(grace: float = 15.0) -> None:
    """Stop and reap whatever an interrupted unit left running.

    SIGTERM first: the daemon and the supervisor drain their own workers
    on it, so no grandchild outlives them; SIGKILL after *grace*.
    """
    for proc in list(LIVE):
        if proc.running():
            proc.popen.terminate()
            deadline = time.monotonic() + grace
            while proc.running() and time.monotonic() < deadline:
                time.sleep(0.05)
            if proc.running():
                proc.popen.kill()
        proc.wait()


def run_repro(args, out: Path, trace_dir: Optional[Path] = None) -> Proc:
    return Proc.launch(args, out, trace_dir).wait()


def median_start_seconds(run_dir: Path) -> Tuple[float, float]:
    """setup_s for the suite workloads: median of fresh ``python -m repro`` starts."""
    samples, rss = [], 0.0
    for i in range(SETUP_STARTS):
        proc = run_repro(["--version"], run_dir / f"start-{i}.out")
        if proc.code != 0:
            raise BenchError(f"`repro --version` exited {proc.code}")
        samples.append(proc.wall)
        rss = max(rss, proc.maxrss_mb)
    return statistics.median(samples), rss


# -- results -----------------------------------------------------------------


@dataclass
class Unit:
    """One repetition of a workload's measured work."""

    wall: float
    windows: List[Tuple[float, float]]
    latencies: List[float]
    ops: int
    failed_ops: int
    rss_mb: float
    setup: Optional[float] = None
    errors: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    extra_spans: List[list] = field(default_factory=list)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_stored(store: Path, name: str, scale: float):
    """The stored artifacts for *name*, verified by the store's own load."""
    from repro.eval.engine import ArtifactStore, JobSpec

    spec = JobSpec(name, scale, None, inputs.BACKEND)
    metas = sorted(store.glob(f"{spec.tag()}-*.meta.json"))
    if len(metas) != 1:
        return None
    digest = json.loads(metas[0].read_text())["digest"]
    return ArtifactStore(store).load(spec, digest)


def check_store(store: Path, names, scale: float, expected: dict) -> List[str]:
    """One error string per benchmark whose stored artifacts differ."""
    errors = []
    for name in names:
        artifacts = load_stored(store, name, scale)
        if artifacts is None:
            errors.append(f"{name}: no intact stored artifacts")
            continue
        got = inputs.artifact_summary(artifacts)
        if got != expected[name]:
            diff = sorted(k for k in got if got[k] != expected[name].get(k))
            errors.append(f"{name}: stored artifacts differ in {diff}")
    return errors


def expected_json(name: str) -> dict:
    path = EXPECTED / name
    if not path.exists():
        raise BenchError(f"missing expected values {path}")
    return json.loads(path.read_text())


# -- workloads ---------------------------------------------------------------


def suite_cold_unit(run_dir: Path, seed: int, index: int, trace_dir) -> Unit:
    store = run_dir / f"cold-store-{index}"
    names = inputs.shuffled(inputs.SUITE_COLD_BENCHMARKS, seed, "cold-order")
    proc = run_repro(
        [
            "experiment", "--benchmarks", ",".join(names),
            "--scale", f"{inputs.SUITE_COLD_SCALE:g}", "--jobs", "1",
            "--backend", inputs.BACKEND, "--cache", str(store), "--json",
        ],
        run_dir / f"cold-{index}.out",
        trace_dir,
    )
    errors: List[str] = []
    engine = proc.envelope().get("results", {}).get("engine", {})
    if proc.code != 0 or not engine:
        errors.append(f"experiment exited {proc.code}")
    else:
        errors += check_store(
            store, names, inputs.SUITE_COLD_SCALE,
            expected_json("suite_cold.json"),
        )
    latencies = [job["seconds"] for job in engine.get("jobs", [])]
    shutil.rmtree(store, ignore_errors=True)
    return Unit(
        wall=proc.wall,
        windows=[(proc.started, proc.ended)],
        latencies=latencies or [proc.wall],
        ops=len(names),
        failed_ops=len(names) if proc.code else len(errors),
        rss_mb=proc.maxrss_mb,
        errors=errors,
        counts=engine_counts(engine),
    )


def engine_counts(engine: dict) -> Dict[str, float]:
    pipeline = engine.get("pipeline", {})
    return {
        "engine.envelope.chunk_flushes": pipeline.get("chunk_flushes", 0),
        "engine.envelope.store_hits": engine.get("store_hits", 0),
        "engine.envelope.simulated": engine.get("simulated", 0),
        "engine.envelope.memo_hits": engine.get("memo_hits", 0),
        "engine.envelope.replayed_runs": engine.get("replayed_runs", 0),
        "engine.envelope.pipeline_events": pipeline.get("events", 0),
    }


def source_key() -> str:
    """Digest of the program's sources: names the filled warm store."""
    h = hashlib.sha256(sys.version.encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def warm_store() -> Path:
    """The store filled by the code under test (untimed; kept per source)."""
    cached = WORK / f"warm-store-{source_key()}"
    if cached.is_dir():
        return cached
    for stale in WORK.glob("warm-store-*"):
        shutil.rmtree(stale, ignore_errors=True)
    filling = WORK / f"warm-fill-{os.getpid()}"
    shutil.rmtree(filling, ignore_errors=True)
    filling.mkdir(parents=True)
    proc = run_repro(
        [
            "experiment", "--benchmarks",
            ",".join(inputs.SUITE_WARM_BENCHMARKS),
            "--scale", f"{inputs.SUITE_WARM_SCALE:g}", "--jobs", "2",
            "--backend", inputs.BACKEND, "--cache", str(filling / "store"),
        ],
        filling / "fill.out",
    )
    if proc.code != 0:
        raise BenchError(f"filling the warm store exited {proc.code}")
    os.rename(filling / "store", cached)
    shutil.rmtree(filling, ignore_errors=True)
    return cached


def suite_warm_unit(run_dir: Path, seed: int, index: int, trace_dir) -> Unit:
    store = run_dir / f"warm-store-{index}"
    shutil.copytree(warm_store(), store)
    order = inputs.shuffled(inputs.WARM_EXPERIMENTS, seed + index, "warm")
    windows, walls, errors, rss = [], [], [], 0.0
    counts: Dict[str, float] = {}
    for experiment in order:
        proc = run_repro(
            [
                "experiment", experiment, "--benchmarks",
                ",".join(inputs.SUITE_WARM_BENCHMARKS),
                "--scale", f"{inputs.SUITE_WARM_SCALE:g}",
                "--backend", inputs.BACKEND, "--cache", str(store), "--json",
            ],
            run_dir / f"warm-{index}-{experiment}.out",
            trace_dir,
        )
        windows.append((proc.started, proc.ended))
        walls.append(proc.wall)
        rss = max(rss, proc.maxrss_mb)
        results = proc.envelope().get("results", {})
        expected = (EXPECTED / f"{experiment}.txt").read_text().rstrip("\n")
        engine = results.get("engine", {})
        if proc.code != 0:
            errors.append(f"{experiment}: exited {proc.code}")
        elif results.get("output") != expected:
            errors.append(f"{experiment}: rendered output differs")
        elif engine.get("simulated", 0):
            errors.append(f"{experiment}: simulated on a warm store")
        for key, value in engine_counts(engine).items():
            counts[key] = counts.get(key, 0) + value
    shutil.rmtree(store, ignore_errors=True)
    return Unit(
        wall=sum(walls),
        windows=windows,
        # one request = regenerating all five tables and figures; per-job
        # and per-process samples are single sub-second to 9 s readings,
        # too short to average over this host's multi-second slow phases
        latencies=[sum(walls)],
        ops=len(order),
        failed_ops=len(errors),
        rss_mb=rss,
        errors=errors,
        counts=counts,
    )


class ServiceClient:
    """One blocking NDJSON connection to the daemon."""

    def __init__(self, sock_path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sock_path)
        self.reader = self.sock.makefile("rb")

    def send(self, frame: dict) -> None:
        self.sock.sendall(json.dumps(frame).encode() + b"\n")

    def recv(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def ping_until_ready(sock_path: str, proc: Proc, timeout: float = 60.0) -> float:
    """Seconds from launch until the daemon answers its first ping."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not proc.running():
            raise BenchError("daemon exited before answering a ping")
        try:
            client = ServiceClient(sock_path)
        except (FileNotFoundError, ConnectionRefusedError):
            time.sleep(0.005)
            continue
        try:
            client.send({"op": "ping"})
            if client.recv().get("type") == "pong":
                return time.monotonic() - proc.started
        finally:
            client.close()
    raise BenchError("daemon did not answer a ping in time")


def launch_daemon(run_dir: Path, tag: str, trace_dir) -> Tuple[Proc, str, float]:
    sock = os.path.relpath(run_dir / f"{tag}.sock", ROOT)
    proc = Proc.launch(
        [
            "serve", "--socket", sock, "--cache", str(run_dir / f"{tag}-store"),
            "--workers", str(inputs.SERVICE_WORKERS),
        ],
        run_dir / f"{tag}.out",
        trace_dir,
    )
    return proc, sock, ping_until_ready(sock, proc)


def stop_daemon(proc: Proc) -> Proc:
    if proc.running():
        os.kill(proc.popen.pid, signal.SIGTERM)
    return proc.wait()


def service_unit(run_dir: Path, seed: int, index: int, trace_dir) -> Unit:
    setups, rss = [], 0.0
    # setup_s is an end-to-end metric: traced units launch one daemon only
    for i in range(SETUP_DAEMONS - 1 if trace_dir is None else 0):
        proc, _, ready = launch_daemon(run_dir, f"probe-{index}-{i}", None)
        setups.append(ready)
        rss = max(rss, stop_daemon(proc).maxrss_mb)
    daemon, sock, ready = launch_daemon(run_dir, f"svc-{index}", trace_dir)
    setups.append(ready)
    schedule = inputs.service_schedule(seed)
    expected = expected_json("service_mix.json")
    outcomes: List[Optional[dict]] = [None] * len(schedule)
    next_index = iter(range(len(schedule)))
    lock = threading.Lock()
    accept_spans: List[list] = []

    client_errors: List[str] = []

    def client_loop(client_no: int) -> None:
        try:
            client = ServiceClient(sock)
        except OSError as exc:
            client_errors.append(f"client {client_no}: {exc}")
            return
        try:
            while True:
                with lock:
                    i = next(next_index, None)
                if i is None:
                    return
                name, scale, cold = schedule[i]
                rid = f"r{i}"
                sent = time.monotonic()
                client.send(
                    {
                        "op": "submit", "id": rid, "tenant": f"c{client_no}",
                        "benchmark": name, "scale": scale,
                        "backend": inputs.BACKEND,
                        "predictors": list(inputs.PREDICTORS),
                    }
                )
                accepted = None
                while True:
                    frame = client.recv()
                    kind = frame.get("type")
                    if kind == "accepted" and accepted is None:
                        accepted = time.monotonic()
                    elif kind in ("completed", "failed", "cancelled",
                                  "interrupted", "rejected"):
                        break
                done = time.monotonic()
                if accepted is not None:
                    accept_spans.append(
                        ["service.accept", sent, accepted, f"client.{i}",
                         "", os.getpid(), rid, {}]
                    )
                outcomes[i] = {"frame": frame, "latency": done - sent,
                               "sent": sent, "done": done}
        except (OSError, ValueError) as exc:
            client_errors.append(f"client {client_no}: {exc}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(n,))
        for n in range(inputs.SERVICE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats_client = ServiceClient(sock)
    try:
        stats_client.send({"op": "stats"})
        stats = stats_client.recv()
    finally:
        stats_client.close()
    rss = max(rss, stop_daemon(daemon).maxrss_mb)
    shutil.rmtree(run_dir / f"svc-{index}-store", ignore_errors=True)

    if not any(outcomes):
        raise BenchError("no service request completed: " + "; ".join(client_errors))
    errors: List[str] = list(client_errors)
    failed = rejected = flushes = 0
    latencies = []
    for i, (name, scale, cold) in enumerate(schedule):
        outcome = outcomes[i]
        frame = outcome["frame"] if outcome else {}
        latencies.append(outcome["latency"] if outcome else float("inf"))
        flushes += (frame.get("pipeline") or {}).get("chunk_flushes", 0)
        if frame.get("type") == "rejected":
            rejected += 1
        want = expected[f"{name}@{scale:g}"]
        problem = None
        if frame.get("type") != "completed":
            error = frame.get("error") or {}
            problem = f"ended {frame.get('type')}: {error.get('message', '')}"
        elif frame.get("digest") != want["digest"]:
            problem = "digest differs"
        elif cold and frame.get("source") != "simulated":
            problem = f"never-seen pair served from {frame.get('source')}"
        else:
            got = {
                text: {
                    "branches": frame["predictions"][text]["branches"],
                    "mispredictions": frame["predictions"][text]["mispredictions"],
                }
                for text in inputs.PREDICTORS
            }
            if got != want["predictions"]:
                problem = "misprediction counts differ"
        if problem:
            failed += 1
            errors.append(f"request r{i} {name}@{scale:g}: {problem}")
    if errors:
        stderr = daemon.out.with_suffix(".err").read_text(errors="replace")
        errors.append("daemon stderr tail: " + stderr[-600:].replace("\n", " | "))
    if inputs.composition(schedule) != inputs.composition(
        inputs.service_schedule(0)
    ):
        errors.append("request composition depends on the seed")
    start = min(o["sent"] for o in outcomes if o)
    end = max(o["done"] for o in outcomes if o)
    jobs = stats.get("jobs", {})
    counts = {
        "service.requests": len(schedule),
        "service.deduped": jobs.get("deduped", 0),
        "service.dedup_ratio": jobs.get("deduped", 0) / max(1, jobs.get("submitted", 0)),
        "service.rejected": rejected,
        "service.frames.chunk_flushes": flushes,
        "service.stats.submitted": jobs.get("submitted", 0),
        "service.stats.completed": jobs.get("completed", 0),
        "service.stats.store_hits": jobs.get("store_hits", 0),
        "service.stats.simulated": jobs.get("simulated", 0),
        "service.stats.retries": jobs.get("retries", 0),
        "service.stats.cache_hit_ratio": stats.get("cache_hit_ratio", 0.0),
        "service.stats.claim_waits": stats.get("store", {}).get("claim_waits", 0),
    }
    return Unit(
        wall=end - start,
        windows=[(start, end)],
        latencies=latencies,
        ops=len(schedule),
        failed_ops=failed,
        rss_mb=rss,
        setup=statistics.median(setups),
        errors=errors,
        counts=counts,
        extra_spans=accept_spans,
    )


def supervised_unit(run_dir: Path, seed: int, index: int, trace_dir) -> Unit:
    from repro.workloads.registry import members

    store = run_dir / f"sup-store-{index}"
    leases = [
        store / "supervisor" / f"lease-{slot}.json"
        for slot in range(1, inputs.SUPERVISED_WORKERS + 1)
    ]
    proc = Proc.launch(
        [
            "supervise", "--workers", str(inputs.SUPERVISED_WORKERS),
            "--set", inputs.SUPERVISED_SET,
            "--scale", f"{inputs.SUPERVISED_SCALE:g}",
            "--backend", inputs.BACKEND, "--cache", str(store), "--json",
        ],
        run_dir / f"sup-{index}.out",
        trace_dir,
    )
    setup = None
    while proc.running():
        if all(lease.exists() for lease in leases):
            setup = time.monotonic() - proc.started
            break
        time.sleep(0.002)
    proc.wait()
    names = members(inputs.SUPERVISED_SET)
    results = proc.envelope().get("results", {})
    errors: List[str] = []
    if proc.code != 0:
        errors.append(f"supervise exited {proc.code}")
    elif sorted(results.get("completed", [])) != sorted(names):
        errors.append(f"supervise completed {results.get('completed')}")
    else:
        errors += check_store(
            store, names, inputs.SUPERVISED_SCALE,
            expected_json("supervised.json"),
        )
    failed_ops = len(errors) if proc.code == 0 else len(names)
    if setup is None:
        errors.append("worker leases never appeared")
    latencies = []
    journal = store / "journal.jsonl"
    if journal.exists():
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            if record.get("status") == "completed" and "seconds" in record:
                latencies.append(float(record["seconds"]))
    sup = results.get("supervisor", {})
    counts = {
        "supervisor.restarts": sup.get("restarts", 0),
        "supervisor.speculative_runs": sup.get("speculative_runs", 0),
        "supervisor.speculative_wins": sup.get("speculative_wins", 0),
        "supervisor.speculative_win_ratio": (
            sup.get("speculative_wins", 0) / sup["speculative_runs"]
            if sup.get("speculative_runs") else 0.0
        ),
        "supervisor.lease_expiries": sup.get("lease_expiries", 0),
        "supervisor.reassigned_benchmarks": sup.get("reassigned_benchmarks", 0),
        "supervisor.merge.journal_records": sum(
            (results.get("merge") or {}).get("journal_records", {}).values()
        ),
    }
    shutil.rmtree(store, ignore_errors=True)
    return Unit(
        wall=proc.wall,
        windows=[(proc.started, proc.ended)],
        latencies=latencies or [proc.wall],
        ops=len(names),
        failed_ops=min(len(names), failed_ops),
        rss_mb=proc.maxrss_mb,
        setup=setup,
        errors=errors,
        counts=counts,
    )


UNITS: Dict[str, Callable[..., Unit]] = {
    "suite-cold": suite_cold_unit,
    "suite-warm": suite_warm_unit,
    "service-mix": service_unit,
    "supervised": supervised_unit,
}


# -- command line ------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    fs = "unknown"
    try:
        best = ""
        for line in Path("/proc/mounts").read_text().splitlines():
            _, mount, fstype, *_ = line.split()
            if str(ROOT).startswith(mount) and len(mount) > len(best):
                best, fs = mount, fstype
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "store_fs": fs,
        "backend": inputs.BACKEND,
        "PYTHONDONTWRITEBYTECODE": child_env()["PYTHONDONTWRITEBYTECODE"],
        "PYTHONHASHSEED": child_env()["PYTHONHASHSEED"],
        "service_composition": inputs.composition(inputs.service_schedule(seed)),
    }


def end_to_end(workload: str, units: List[Unit], run_dir: Path) -> Dict[str, float]:
    setup_rss = 0.0
    if workload.startswith("suite"):
        setup, setup_rss = median_start_seconds(run_dir)
    else:
        setup = statistics.median(u.setup for u in units if u.setup is not None)
    latencies = [x for u in units for x in u.latencies]
    wall = statistics.median(u.wall for u in units)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": max([setup_rss] + [u.rss_mb for u in units]),
        "jobs_per_s": statistics.median(u.ops / u.wall for u in units),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
    }


def per_layer(workload: str, traced: Unit, trace_dir: Path) -> Dict[str, float]:
    """Per-layer metrics of one traced unit.

    ``trace.overhead_s`` is the calibrated cost of one span times the
    spans the program recorded: the difference of a traced and an
    untraced wall is far below the host's run-to-run noise (README).
    """
    program_spans = layers.load_spans(trace_dir)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        layers.attribute(program_spans + traced.extra_spans, traced.windows)
    )
    for key, value in traced.counts.items():
        metrics[key] = value
    metrics["trace.overhead_s"] = len(program_spans) * spans.span_cost(trace_dir)
    if metrics["residual_share"] > RESIDUAL_TARGET:
        print(
            f"note: {workload}: unattributed residual "
            f"{metrics['residual_s']:.3f} s is "
            f"{100 * metrics['residual_share']:.1f}% of the traced wall "
            f"(target {100 * RESIDUAL_TARGET:.0f}%)",
            file=sys.stderr,
        )
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    unit_fn = UNITS[workload]
    try:
        if trace:
            trace_dir = run_dir / "trace"
            trace_dir.mkdir()
            units = [unit_fn(run_dir, seed, 0, trace_dir)]
            measured = per_layer(workload, units[0], trace_dir)
            names = PER_LAYER
        else:
            units = []
            started = time.monotonic()
            while True:
                units.append(unit_fn(run_dir, seed, len(units), None))
                elapsed = time.monotonic() - started
                # whole units, as many as fit *seconds* to the nearest one
                if elapsed + elapsed / len(units) / 2 >= seconds:
                    break
            measured = end_to_end(workload, units, run_dir)
            names = END_TO_END
        counts = {}
        for unit in units:
            for key, value in unit.counts.items():
                counts.setdefault(key, []).append(value)
    finally:
        reap_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    errors = [e for u in units for e in u.errors]
    label = "per_layer" if trace else "end_to_end"
    print(f"perfbench {workload}: {len(units)} unit(s), {label}")
    for name, unit in names.items():
        value = measured.get(name, 0.0)
        print(f"  {name:32s} {value:14.6f} {unit}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print("# environment " + json.dumps(environment(workload, seed), sort_keys=True))
    print("# counts " + json.dumps(counts, sort_keys=True))
    return {
        "correct": not errors,
        "attempted": sum(u.ops for u in units),
        "failed": sum(u.failed_ops for u in units),
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=WORKLOADS + OPTIONAL_WORKLOADS + ("all",),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measure as many whole units as fit (at least one)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds through run_workload's cleanup, which reaps children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace)
            )
            if args.workload == "all":
                print(json.dumps(results[workload], sort_keys=True))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
