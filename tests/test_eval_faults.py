"""Fault injection and recovery: the engine's failure paths, on purpose.

Every test here damages something — a cache entry, a worker process, a
job's first attempts — and asserts the engine degrades instead of
crashing: corruption quarantines and resimulates, crashes and hangs
become typed per-benchmark failures, experiments run on the survivors.
"""

import json

import pytest

from repro.__main__ import main
from repro.errors import (
    ArtifactCorrupt,
    JobFailed,
    JobTimeout,
    ReproError,
    SuiteDegraded,
)
from repro.eval.engine import ArtifactStore, ExecutionEngine, JobResult, JobSpec
from repro.eval.experiments import (
    EXPERIMENTS,
    Experiment,
    format_failure_report,
    run_all_experiments,
    run_experiment,
)
from repro.eval.faults import ENV_VAR, FaultPlan, InjectedFault, corrupt_file
from repro.schema import SCHEMA_VERSION

pytestmark = pytest.mark.faults

#: Small enough to keep each simulation around a second.
SCALE = 0.05
SUBSET = ["plot", "pgp", "compress"]

#: Fast retry backoff so retry tests don't sleep for real.
BACKOFF = 0.01


def make_engine(tmp_path, **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("retry_backoff", BACKOFF)
    return ExecutionEngine(cache_dir=tmp_path / "cache", **kwargs)


# -- corrupted store entries ------------------------------------------------


@pytest.mark.parametrize("victim", ["trace", "meta"])
def test_corrupt_entry_is_quarantined_and_resimulated(tmp_path, victim):
    cold = make_engine(tmp_path)
    cold.artifacts("plot")
    spec, digest = cold.job("plot"), cold.digest("plot")
    trace_path, meta_path = cold.store.paths(spec, digest)
    corrupt_file(trace_path if victim == "trace" else meta_path)

    fresh = make_engine(tmp_path)
    artifacts = fresh.artifacts("plot")
    assert artifacts.profile.pairs  # real artifacts came back
    assert fresh.stats.simulated == 1
    assert fresh.stats.store_hits == 0
    assert fresh.stats.quarantined >= 1
    assert not fresh.failures

    quarantine = tmp_path / "cache" / ArtifactStore.QUARANTINE_DIR
    names = {p.name for p in quarantine.iterdir()}
    assert any(n.endswith(".trace.npz") for n in names)
    # the resimulated entry is back in the store and verifies clean
    warm = make_engine(tmp_path)
    warm.artifacts("plot")
    assert warm.stats.store_hits == 1
    assert warm.stats.quarantined == 0


def test_store_load_never_raises_on_garbage(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = JobSpec("plot", scale=SCALE)
    digest = "ab" * 32
    trace_path, meta_path = store.paths(spec, digest)
    trace_path.write_bytes(b"\x00not a zip")
    meta_path.write_text("{not json", encoding="utf-8")

    assert store.load(spec, digest) is None
    assert len(store.corrupt_events) == 1
    event = store.corrupt_events[0]
    assert event.code == "artifact_corrupt"
    assert event.context["benchmark"] == "plot"
    # the bad files were moved aside: the entry now reads as a plain miss
    assert not store.contains(spec, digest)
    moved = {p.name for p in (tmp_path / store.QUARANTINE_DIR).iterdir()}
    assert trace_path.name in moved and meta_path.name in moved


def test_store_put_leaves_no_stage_litter(tmp_path):
    engine = make_engine(tmp_path)
    engine.artifacts("plot")
    assert not list((tmp_path / "cache").glob(".stage-*"))


def test_persistent_corruption_fails_benchmark_not_pass(tmp_path):
    """A plan that re-corrupts every freshly stored trace must yield a
    recorded ArtifactCorrupt failure, never an aborted prefetch."""
    plan = FaultPlan(corrupt_trace=("plot",))
    with plan.installed():
        engine = make_engine(tmp_path, retries=0)
        got = engine.prefetch(["plot", "pgp"])
    assert set(got) == {"pgp"}
    assert isinstance(engine.failures["plot"], ArtifactCorrupt)
    assert engine.stats.failed == 1
    assert engine.stats.quarantined >= 1

    # a clean engine over the same store recovers everything
    clean = make_engine(tmp_path)
    assert set(clean.prefetch(["plot", "pgp"])) == {"plot", "pgp"}
    assert not clean.failures


# -- crashed / flaky / hung workers ----------------------------------------


def test_worker_crash_is_isolated_in_parallel(tmp_path):
    plan = FaultPlan(worker_crash=("pgp",))
    with plan.installed():
        engine = make_engine(tmp_path, jobs=4, retries=0)
        got = engine.prefetch(SUBSET)
    assert set(got) == {"plot", "compress"}
    failure = engine.failures["pgp"]
    assert isinstance(failure, JobFailed)
    assert failure.context["exit_code"] == 13
    assert engine.stats.failed == 1
    assert engine.stats.job_source["pgp"] == "failed"
    # survivors produced real artifacts despite the dead worker
    assert engine.artifacts("plot").profile.pairs


def test_in_process_crash_raises_and_memoises_failure(tmp_path):
    plan = FaultPlan(worker_crash=("plot",))
    with plan.installed():
        engine = make_engine(tmp_path, retries=0)
        engine.prefetch(["plot"])
        failure = engine.failures["plot"]
        assert failure.code == "job_failed"
        assert failure.context["cause"]["code"] == "injected_fault"
        with pytest.raises(JobFailed):
            engine.artifacts("plot")
    # invalidate clears the failure; the next (clean) access retries
    engine.invalidate("plot")
    assert engine.artifacts("plot").profile.pairs
    assert not engine.failures


def test_flaky_job_succeeds_after_retry(tmp_path):
    plan = FaultPlan(flaky={"plot": 1}, state_dir=str(tmp_path / "state"))
    with plan.installed():
        engine = make_engine(tmp_path, retries=2)
        artifacts = engine.artifacts("plot")
    assert artifacts.profile.pairs
    assert engine.stats.retried >= 1
    assert engine.stats.failed == 0
    assert not engine.failures


def test_flaky_job_exhausts_retries(tmp_path):
    plan = FaultPlan(flaky={"plot": 5}, state_dir=str(tmp_path / "state"))
    with plan.installed():
        engine = make_engine(tmp_path, retries=1)
        engine.prefetch(["plot"])
    failure = engine.failures["plot"]
    assert isinstance(failure, JobFailed)
    assert failure.context["attempts"] == 2
    assert engine.stats.retried == 1
    assert engine.stats.failed == 1


def test_hung_worker_times_out(tmp_path):
    # the budget must comfortably cover pgp's honest run (worker spawn
    # included) on a loaded machine while staying far below the hang
    plan = FaultPlan(worker_hang=("plot",), hang_seconds=30.0)
    with plan.installed():
        engine = make_engine(tmp_path, jobs=2, timeout=5.0, retries=0)
        got = engine.prefetch(["plot", "pgp"])
    assert set(got) == {"pgp"}
    failure = engine.failures["plot"]
    assert isinstance(failure, JobTimeout)
    assert failure.context["timeout_seconds"] == 5.0
    assert engine.stats.timeouts == 1
    assert engine.stats.failed == 1


# -- _absorb invariants -----------------------------------------------------


def test_absorb_without_store_requires_artifacts():
    engine = ExecutionEngine(scale=SCALE)
    orphan = JobResult(
        spec=JobSpec("plot", scale=SCALE), digest="x" * 64,
        source="simulated", seconds=0.0,
    )
    with pytest.raises(ReproError, match="no store is configured"):
        engine._absorb(orphan)


def test_absorb_resimulates_missing_store_entry(tmp_path):
    engine = make_engine(tmp_path)
    result = JobResult(
        spec=engine.job("plot"), digest=engine.digest("plot"),
        source="store", seconds=0.0,
    )
    engine._absorb(result)  # store is empty: must rerun inline
    assert engine.stats.job_source["plot"] == "resimulated"
    assert engine.artifacts("plot").profile.pairs


def test_absorb_records_failure_when_store_keeps_losing(tmp_path, monkeypatch):
    engine = make_engine(tmp_path)
    monkeypatch.setattr(ArtifactStore, "load", lambda self, spec, digest: None)
    result = JobResult(
        spec=engine.job("plot"), digest=engine.digest("plot"),
        source="store", seconds=0.0,
    )
    absorbed = engine._absorb(result)
    assert absorbed.source == "failed"
    assert isinstance(engine.failures["plot"], ArtifactCorrupt)


# -- graceful experiment degradation ---------------------------------------


@pytest.fixture
def tiny_experiment(monkeypatch):
    """A registry entry whose run is just the surviving benchmark list."""
    exp = Experiment(
        "tiny_demo", "demo", "fault-injection test experiment",
        lambda engine, benchmarks: "survivors: " + ",".join(benchmarks),
        ("plot", "pgp"),
    )
    monkeypatch.setitem(EXPERIMENTS, exp.id, exp)
    return exp


def test_experiment_runs_on_survivors(tmp_path, tiny_experiment):
    plan = FaultPlan(worker_crash=("plot",))
    with plan.installed():
        engine = make_engine(tmp_path, retries=0)
        out = run_experiment("tiny_demo", engine)
    assert "survivors: pgp" in out
    assert "-- degraded: 1 benchmark(s) failed --" in out
    assert "plot: job_failed" in out


def test_experiment_with_zero_survivors_degrades(tmp_path, tiny_experiment):
    plan = FaultPlan(worker_crash=("plot", "pgp"))
    with plan.installed():
        engine = make_engine(tmp_path, retries=0)
        with pytest.raises(SuiteDegraded) as excinfo:
            run_experiment("tiny_demo", engine)
    failures = excinfo.value.context["failures"]
    assert {f["benchmark"] for f in failures} == {"plot", "pgp"}
    assert excinfo.value.code == "suite_degraded"


def test_run_all_experiments_raises_when_nothing_survives(tmp_path):
    every = {n for exp in EXPERIMENTS.values() for n in exp.benchmarks}
    plan = FaultPlan(worker_crash=tuple(sorted(every)))
    with plan.installed():
        engine = make_engine(tmp_path, retries=0)
        with pytest.raises(SuiteDegraded):
            run_all_experiments(engine)
    assert set(engine.failures) == every


def test_failure_report_formatting():
    report = format_failure_report(
        {"gcc": JobTimeout("gcc blew its budget", benchmark="gcc")}
    )
    assert report.splitlines()[0] == "-- degraded: 1 benchmark(s) failed --"
    assert "gcc: job_timeout — gcc blew its budget" in report


# -- fault plan plumbing ----------------------------------------------------


def test_fault_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        worker_crash=("a",), worker_hang=("b",), flaky={"c": 2},
        corrupt_trace=("d",), corrupt_meta=("e",), hang_seconds=3.5,
        state_dir=str(tmp_path),
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_fault_plan_installed_restores_environment(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    plan = FaultPlan(worker_crash=("x",))
    with plan.installed():
        import os

        assert ENV_VAR in os.environ
        with pytest.raises(InjectedFault):
            plan.on_job_start("x", in_worker=False)
    import os

    assert ENV_VAR not in os.environ


def test_flaky_plan_requires_state_dir():
    with pytest.raises(ValueError, match="state_dir"):
        FaultPlan(flaky={"plot": 1})


def test_corrupt_file_flips_bytes(tmp_path):
    path = tmp_path / "blob"
    original = bytes(range(256))
    path.write_bytes(original)
    corrupt_file(path)
    damaged = path.read_bytes()
    assert len(damaged) == len(original)
    assert damaged != original


# -- CLI --------------------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_faults_demo_recovers(tmp_path, capsys):
    code, out = run_cli(capsys, [
        "faults", "--benchmarks", "plot,pgp", "--scale", "0.03",
        "--jobs", "2", "--retries", "0", "--json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "faults"
    results = doc["results"]
    # the default demo crashes the first benchmark and corrupts the last
    failed = {f["benchmark"] for f in results["failures"]}
    assert failed == {"plot", "pgp"}
    assert results["recovered"] == ["pgp", "plot"]
    assert results["recovery"]["failed"] == 0


def test_cli_experiment_degrades_to_survivors(
    tmp_path, capsys, tiny_experiment, monkeypatch
):
    """The acceptance scenario: a poisoned parallel run completes, reports
    the failure in the envelope, and a clean rerun fully recovers."""
    plan = FaultPlan(worker_crash=("pgp",))
    monkeypatch.setenv(ENV_VAR, plan.to_json())
    cache = str(tmp_path / "cache")
    argv = [
        "experiment", "tiny_demo", "--scale", "0.03", "--jobs", "4",
        "--cache", cache, "--retries", "0", "--json",
    ]
    code, out = run_cli(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert "survivors: plot" in results["output"]
    assert [f["benchmark"] for f in results["failures"]] == ["pgp"]
    assert results["engine"]["failed"] == 1

    monkeypatch.delenv(ENV_VAR)
    code, out = run_cli(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["failures"] == []
    assert "survivors: plot,pgp" in results["output"]
    assert results["engine"]["store_hits"] == 1  # plot came from the cache


def test_cli_experiment_exits_nonzero_only_when_all_fail(
    tmp_path, capsys, tiny_experiment, monkeypatch
):
    plan = FaultPlan(worker_crash=("plot", "pgp"))
    monkeypatch.setenv(ENV_VAR, plan.to_json())
    code, out = run_cli(capsys, [
        "experiment", "tiny_demo", "--scale", "0.03",
        "--retries", "0", "--json",
    ])
    assert code == 1
    results = json.loads(out)["results"]
    assert results["degraded"]["code"] == "suite_degraded"
    assert {f["benchmark"] for f in results["failures"]} == {"plot", "pgp"}
