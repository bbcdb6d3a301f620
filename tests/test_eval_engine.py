"""ExecutionEngine tests: digests, the artifact store, and parallel runs."""

import json

import numpy as np
import pytest

import repro.eval.digest as digest_module
import repro.eval.experiments as experiments_mod
import repro.eval.worker as worker_module
from repro.eval.digest import JobSpec, compute_job_digest
from repro.eval.engine import ExecutionEngine
from repro.eval.store import ArtifactStore
from repro.eval.experiments import run_experiment
from repro.eval.tables import format_table2, run_table2
from repro.trace.io import read_trace_meta

#: Small enough to keep each simulation ~1s.
SCALE = 0.05
SUBSET = ["plot", "pgp", "compress"]


# -- content digests --------------------------------------------------------


def test_digest_is_deterministic():
    spec = JobSpec("plot", scale=SCALE)
    first = compute_job_digest(spec)
    second = compute_job_digest(spec)
    assert first == second
    assert len(first) == 64
    int(first, 16)  # valid hex


def test_digest_tracks_content():
    base = compute_job_digest(JobSpec("plot", scale=SCALE))
    # a different program image and a different scale (hence input/fuel)
    # must both produce different digests
    assert compute_job_digest(JobSpec("pgp", scale=SCALE)) != base
    assert compute_job_digest(JobSpec("plot", scale=0.1)) != base
    # every job captures its full trace: a capture limit is refused
    with pytest.raises(ValueError, match="trace_limit"):
        JobSpec("plot", scale=SCALE, trace_limit=500)


def test_cache_paths_fold_digest(tmp_path):
    """The legacy name-sSCALE scheme now carries the content digest, so a
    kernel edit (different digest) can never resurrect a stale artifact."""
    spec = JobSpec("plot", scale=SCALE)
    digest = compute_job_digest(spec, str(tmp_path))
    trace_path, meta_path = ArtifactStore(tmp_path).paths(spec, digest)
    assert digest[: ArtifactStore.DIGEST_CHARS] in trace_path.name
    assert digest[: ArtifactStore.DIGEST_CHARS] in meta_path.name
    assert trace_path.name.startswith(f"plot-s{SCALE:g}-")


# -- artifact store ---------------------------------------------------------


def test_store_round_trip_and_counters(tmp_path):
    cold = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    first = cold.artifacts("plot")
    assert cold.stats.simulated == 1
    assert cold.stats.store_hits == 0

    digest = cold.digest("plot")
    stem = f"plot-s{SCALE:g}-{digest[:ArtifactStore.DIGEST_CHARS]}"
    trace_path = tmp_path / f"{stem}.trace.npz"
    meta_path = tmp_path / f"{stem}.meta.json"
    assert trace_path.exists()
    assert meta_path.exists()
    # the profile lives inside the trace archive: no sidecar of its own
    assert not (tmp_path / f"{stem}.profile.json").exists()

    # provenance is stamped both in the sidecar and inside the trace file
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["digest"] == digest
    assert meta["benchmark"] == "plot"
    assert read_trace_meta(trace_path)["digest"] == digest

    # a fresh engine loads from the store instead of re-simulating
    warm = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    second = warm.artifacts("plot")
    assert warm.stats.store_hits == 1
    assert warm.stats.simulated == 0
    assert np.array_equal(first.trace.pcs, second.trace.pcs)
    assert second.profile.pairs == first.profile.pairs
    assert second.instructions == first.instructions
    assert second.static_branches == first.static_branches

    # repeated access is memoised (and counted)
    assert warm.artifacts("plot") is second
    assert warm.stats.memo_hits == 1


def test_artifacts_are_memoised(engine):
    first = engine.artifacts("compress")
    second = engine.artifacts("compress")
    assert first is second


def test_disk_cache_round_trip(tmp_path):
    fast = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    first = fast.artifacts("plot")
    files = list(tmp_path.iterdir())
    assert any(f.suffix == ".npz" for f in files)
    assert any(f.suffix == ".json" for f in files)

    # a fresh engine loads from disk instead of re-simulating
    reloaded = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    second = reloaded.artifacts("plot")
    assert reloaded.stats.simulated == 0
    assert np.array_equal(first.trace.pcs, second.trace.pcs)
    assert second.profile.pairs == first.profile.pairs


def test_artifacts_contents(engine):
    artifacts = engine.artifacts("compress")
    assert artifacts.name == "compress"
    assert len(artifacts.trace) > 1000
    assert artifacts.profile.static_branch_count > 20
    assert artifacts.instructions > 100_000
    # the profile's branch population matches the trace's
    assert set(artifacts.profile.branches) == set(
        artifacts.trace.static_branches()
    )


def test_invalidate_drops_memo(engine):
    first = engine.artifacts("compress")
    engine.invalidate("compress")
    second = engine.artifacts("compress")
    assert first is not second
    assert np.array_equal(first.trace.pcs, second.trace.pcs)
    engine._memo["compress"] = first  # restore for other tests


def test_stats_render_mentions_jobs_and_cache(tmp_path):
    engine = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    engine.artifacts("plot")
    rendered = engine.stats.render()
    assert "plot" in rendered
    assert "simulated" in rendered
    assert "cache:" in rendered
    as_dict = engine.stats.as_dict()
    assert as_dict["simulated"] == 1
    assert as_dict["jobs"][0]["benchmark"] == "plot"


def test_engine_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        ExecutionEngine(scale=SCALE, jobs=0)


# -- parallel determinism ---------------------------------------------------


def test_parallel_matches_sequential(tmp_path):
    """--jobs N must be invisible in the outputs: same digests, same
    traces, same rendered table as a sequential run."""
    seq = ExecutionEngine(scale=SCALE, cache_dir=tmp_path / "seq")
    seq.prefetch(SUBSET)
    par = ExecutionEngine(scale=SCALE, cache_dir=tmp_path / "par", jobs=4)
    par.prefetch(SUBSET)
    assert par.stats.simulated == len(SUBSET)

    for name in SUBSET:
        assert seq.digest(name) == par.digest(name)
        a, b = seq.artifacts(name), par.artifacts(name)
        assert np.array_equal(a.trace.pcs, b.trace.pcs)
        assert np.array_equal(a.trace.taken, b.trace.taken)
        assert a.profile.pairs == b.profile.pairs

    table_seq = format_table2(run_table2(seq, SUBSET, threshold=5))
    table_par = format_table2(run_table2(par, SUBSET, threshold=5))
    assert table_seq == table_par


def test_parallel_warm_rerun_spawns_no_worker(tmp_path, monkeypatch):
    """A jobs=N rerun over a warm store takes every finished benchmark
    in-process (memoised digest, one store read): no worker process,
    no build, all store hits."""
    ExecutionEngine(scale=SCALE, cache_dir=tmp_path, jobs=2).prefetch(SUBSET)
    spawned, built = [], []
    real_spawn = worker_module.WorkerProcess.__init__

    def counting_spawn(self, target, payload):
        spawned.append(payload)
        real_spawn(self, target, payload)

    monkeypatch.setattr(
        worker_module.WorkerProcess, "__init__", counting_spawn
    )
    for module in (digest_module, worker_module):
        monkeypatch.setattr(
            module, "build_workload", lambda spec: built.append(spec.name)
        )
    warm = ExecutionEngine(scale=SCALE, cache_dir=tmp_path, jobs=2)
    assert set(warm.prefetch(SUBSET)) == set(SUBSET)
    assert spawned == [] and built == []
    assert warm.stats.store_hits == len(SUBSET)
    assert warm.stats.simulated == 0
    assert warm.stats.memo_hits == 0
    assert set(warm.stats.job_source.values()) == {"store"}


def test_parallel_without_store_ships_artifacts(tmp_path):
    """With no store the pool pickles artifacts back to the parent."""
    seq = ExecutionEngine(scale=SCALE)
    par = ExecutionEngine(scale=SCALE, jobs=4)
    names = SUBSET[:2]
    seq.prefetch(names)
    par.prefetch(names)
    for name in names:
        assert np.array_equal(
            seq.trace(name).pcs, par.trace(name).pcs
        )
        assert seq.profile(name).pairs == par.profile(name).pairs


# -- experiment entry points ------------------------------------------------


def test_run_experiment_accepts_bare_engine(tmp_path):
    """Experiment entry points take the engine directly."""
    engine = ExecutionEngine(scale=0.03, cache_dir=tmp_path, jobs=2)
    out = run_experiment("table2", engine)
    assert "Table 2" in out
    assert engine.stats.simulated > 0


def test_run_all_shim_is_gone():
    # the deprecated run_all alias completed its removal cycle
    assert not hasattr(experiments_mod, "run_all")
    import repro.eval

    assert not hasattr(repro.eval, "run_all")
