"""SIGTERM drain: the flag, the sliced runner, the engine, the CLI.

The cooperative-drain contract (:mod:`repro.eval.interrupt`) is what
turns a terminated run from "lost progress" into "checkpointed pause":

* the process-local drain flag and the driver/worker signal handlers;
* ``run_simulation``'s ``stop_check`` hook — a drained simulation
  writes one final checkpoint (regardless of cadence) and reports
  ``interrupted``, and the resumed run reproduces an uninterrupted
  run's artifacts byte for byte;
* ``ExecutionEngine.prefetch`` raising a typed
  :class:`~repro.errors.SuiteInterrupted` that names what completed and
  what remains, with a plain rerun continuing from there (finished work
  from the store, in-flight work from its checkpoint);
* the ``repro experiment`` process surviving a real SIGTERM with exit
  code 1, and the same command finishing the run.

The simulation-heavy cases are marked ``faults``; the flag/handler unit
tests run everywhere.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    run_simulation,
)
from repro.errors import SuiteInterrupted
from repro.eval import interrupt
from repro.eval.engine import ExecutionEngine
from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import TraceBuilder
from repro.trace.io import save_trace
from repro.workloads import build_workload, get_benchmark

REPO = Path(__file__).resolve().parent.parent
SCALE = 0.05


@pytest.fixture(autouse=True)
def clean_drain_flag():
    interrupt.reset_drain()
    yield
    interrupt.reset_drain()


# -- the drain flag and handlers ---------------------------------------------


def test_drain_flag_round_trip():
    assert not interrupt.drain_requested()
    interrupt.request_drain()
    assert interrupt.drain_requested()
    interrupt.reset_drain()
    assert not interrupt.drain_requested()


def test_sigterm_drain_routes_signal_and_restores_disposition():
    before = signal.getsignal(signal.SIGTERM)
    with interrupt.sigterm_drain():
        assert signal.getsignal(signal.SIGTERM) is not before
        os.kill(os.getpid(), signal.SIGTERM)
        # the handler sets the flag instead of killing this process
        for _ in range(100):
            if interrupt.drain_requested():
                break
            time.sleep(0.01)
        assert interrupt.drain_requested()
    assert signal.getsignal(signal.SIGTERM) is before
    assert not interrupt.drain_requested()  # cleared on exit


def test_install_worker_handler_sets_flag_on_sigterm():
    before = signal.getsignal(signal.SIGTERM)
    try:
        interrupt.install_worker_handler()
        os.kill(os.getpid(), signal.SIGTERM)
        for _ in range(100):
            if interrupt.drain_requested():
                break
            time.sleep(0.01)
        assert interrupt.drain_requested()
    finally:
        signal.signal(signal.SIGTERM, before)


def test_set_pdeathsig_is_gated_on_env(monkeypatch):
    # without the env opt-in this must be a silent no-op everywhere
    monkeypatch.delenv(interrupt.PDEATHSIG_ENV, raising=False)
    interrupt.set_pdeathsig()
    monkeypatch.setenv(interrupt.PDEATHSIG_ENV, "1")
    interrupt.set_pdeathsig()  # best-effort; must never raise


# -- engine: a drained prefetch raises SuiteInterrupted ----------------------


def test_prefetch_drained_before_start_raises_suite_interrupted(tmp_path):
    engine = ExecutionEngine(cache_dir=tmp_path / "cache", scale=SCALE)
    interrupt.request_drain()
    with pytest.raises(SuiteInterrupted) as info:
        engine.prefetch(["plot"])
    assert engine.interrupted is True
    assert info.value.context["completed"] == []
    assert info.value.context["remaining"] == ["plot"]
    assert "rerun the same command" in str(info.value)
    # nothing ran: the rerun simulates from scratch
    interrupt.reset_drain()
    fresh = ExecutionEngine(cache_dir=tmp_path / "cache", scale=SCALE)
    results = fresh.prefetch(["plot"])
    assert set(results) == {"plot"}
    assert fresh.interrupted is False
    assert fresh.stats.simulated == 1


# -- sliced runner: stop_check drains with zero progress lost ----------------


def _trace_bytes(built, tmp_path, tag, config=None, stop_check=None):
    builder = TraceBuilder(label="plot")
    bus = BranchEventBus([builder])
    outcome = run_simulation(
        built, bus, config=config, stop_check=stop_check,
    )
    bus.finish()
    path = tmp_path / f"{tag}.trace.npz"
    save_trace(builder.result, path)
    return outcome, path.read_bytes()


@pytest.mark.faults
def test_stop_check_writes_final_checkpoint_and_resume_is_identical(
    tmp_path,
):
    built = build_workload(get_benchmark("plot", scale=SCALE))
    _, baseline = _trace_bytes(built, tmp_path, "baseline")

    store = CheckpointStore(tmp_path / "checkpoints")
    config = CheckpointConfig(
        store=store, stem="plot-stem", every_events=1_000_000,
    )
    # cadence far beyond the run: the only checkpoint is the drain's
    outcome, _ = _trace_bytes(
        built, tmp_path, "drained", config=config,
        stop_check=lambda: True,
    )
    assert outcome.interrupted is True
    assert outcome.checkpoints_written == 1
    assert store.sequences("plot-stem")  # the final checkpoint exists

    resumed, resumed_bytes = _trace_bytes(
        built, tmp_path, "resumed", config=config,
    )
    assert resumed.interrupted is False
    assert resumed.resumed_from_checkpoint is True
    assert resumed_bytes == baseline


@pytest.mark.faults
def test_parallel_prefetch_drains_mid_run_and_resumes(tmp_path):
    """SIGTERM (simulated via the flag) while two workers are busy:
    prefetch raises SuiteInterrupted, and a fresh engine on the same
    cache finishes the suite, restoring the drained jobs' checkpoints."""
    engine = ExecutionEngine(
        cache_dir=tmp_path / "cache",
        scale=0.3,
        jobs=2,
        checkpoint_every_events=1_000,
        retry_backoff=0.01,
    )
    timer = threading.Timer(1.5, interrupt.request_drain)
    timer.start()
    try:
        with pytest.raises(SuiteInterrupted) as info:
            engine.prefetch(["plot", "compress"])
    finally:
        timer.cancel()
    assert engine.interrupted is True
    assert set(info.value.context["remaining"]) <= {"plot", "compress"}

    interrupt.reset_drain()
    resumed = ExecutionEngine(
        cache_dir=tmp_path / "cache",
        scale=0.3,
        jobs=2,
        checkpoint_every_events=1_000,
        retry_backoff=0.01,
    )
    results = resumed.prefetch(["plot", "compress"])
    assert set(results) == {"plot", "compress"}
    assert resumed.failures == {}
    assert resumed.interrupted is False
    assert resumed.stats.resumed_from_checkpoint >= 1


# -- the CLI process under a real SIGTERM ------------------------------------


@pytest.mark.faults
def test_cli_experiment_survives_sigterm_and_resumes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_FAULTS", None)
    cache = tmp_path / "cache"
    args = [
        sys.executable, "-m", "repro", "experiment", "table2",
        "--scale", str(SCALE), "--jobs", "2",
        "--cache", str(cache), "--checkpoint-every", "2000", "--json",
    ]
    proc = subprocess.Popen(
        args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    # wait until at least one benchmark has been journaled, then drain
    journal = cache / "journal.jsonl"
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if journal.exists() and journal.stat().st_size > 0:
            break
        if proc.poll() is not None:
            raise AssertionError(
                f"experiment exited early: {proc.stderr.read().decode()}"
            )
        time.sleep(0.05)
    else:
        raise AssertionError("journal never appeared")
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=120)
    if proc.returncode == 0:
        pytest.skip("suite finished before the drain window")
    assert proc.returncode == 1
    text = stderr.decode()
    assert "suite_interrupted" in text
    assert "rerun the same command" in text

    # the same command finishes the run: completed work is a store hit,
    # the rest runs (from any checkpoint a drained job wrote), and the
    # experiment emits its envelope with exit code 0
    result = subprocess.run(
        args, env=env, capture_output=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr.decode()
    envelope = json.loads(result.stdout.decode())
    assert envelope["command"] == "experiment"
    engine = envelope["results"]["engine"]
    assert engine["store_hits"] >= 1
    assert engine["store_hits"] + engine["simulated"] == len(engine["jobs"])
