"""Store entries: one archive per entry, verified cheaply, read once.

An entry is ``<stem>.trace.npz`` (trace columns, profile columns and the
embedded digest) plus its ``<stem>.meta.json`` commit record.
"""

import json
import os
import zipfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore
from repro.eval.engine import (
    CHECKPOINT_SUBDIR,
    ArtifactStore,
    ExecutionEngine,
    JobSpec,
)
from repro.profiling.profile import (
    PROFILE_COLUMNS,
    BranchStats,
    InterleaveProfile,
)
from repro.trace.events import BranchTrace
from repro.trace.io import read_trace_archive, save_trace

SCALE = 0.05

PCS = st.integers(min_value=0, max_value=2**64 - 1)
COUNTS = st.integers(min_value=0, max_value=2**62)


@st.composite
def profiles(draw):
    branches = draw(st.dictionaries(PCS, st.tuples(COUNTS, COUNTS)))
    pairs = draw(st.dictionaries(st.tuples(PCS, PCS), COUNTS))
    return InterleaveProfile(
        branches={pc: BranchStats(ex, tk) for pc, (ex, tk) in branches.items()},
        pairs={(min(a, b), max(a, b)): n for (a, b), n in pairs.items()},
        instructions=draw(COUNTS),
        name=draw(st.text(max_size=8)),
    )


def _same(loaded: InterleaveProfile, profile: InterleaveProfile) -> None:
    assert list(loaded.branches.items()) == list(profile.branches.items())
    assert list(loaded.pairs.items()) == list(profile.pairs.items())
    values = [
        v
        for pc, s in loaded.branches.items()
        for v in (pc, s.executions, s.taken)
    ] + [v for key, n in loaded.pairs.items() for v in (*key, n)]
    assert all(type(v) is int for v in values)
    # perfbench's profile_checksum serialises these
    json.dumps(sorted(values))


@settings(max_examples=60, deadline=None)
@given(profile=profiles())
def test_profile_columns_round_trip(profile):
    columns = profile.to_columns()
    assert set(columns) == set(PROFILE_COLUMNS)
    loaded = InterleaveProfile.from_columns(
        columns, instructions=profile.instructions, name=profile.name
    )
    _same(loaded, profile)
    assert loaded.instructions == profile.instructions
    assert loaded.name == profile.name


def test_empty_profile_round_trips_through_an_archive(tmp_path):
    empty = np.zeros(0, dtype=np.uint64)
    trace = BranchTrace(empty, empty, np.zeros(0, dtype=bool), empty)
    profile = InterleaveProfile()
    path = tmp_path / "empty.trace.npz"
    save_trace(trace, path, meta={"digest": "x"},
               columns=profile.to_columns())
    loaded_trace, columns, meta = read_trace_archive(path, PROFILE_COLUMNS)
    assert len(loaded_trace) == 0
    assert meta == {"digest": "x"}
    loaded = InterleaveProfile.from_columns(columns)
    assert loaded.branches == {} and loaded.pairs == {}


def test_high_pcs_round_trip_through_an_archive(tmp_path):
    high = 2**63 + 5
    profile = InterleaveProfile(
        branches={high: BranchStats(7, 3), 2**31: BranchStats(1, 0)},
        pairs={(2**31, high): 4},
    )
    empty = np.zeros(0, dtype=np.uint64)
    path = tmp_path / "high.trace.npz"
    save_trace(BranchTrace(empty, empty, np.zeros(0, dtype=bool), empty),
               path, columns=profile.to_columns())
    _, columns, _ = read_trace_archive(path, PROFILE_COLUMNS)
    _same(InterleaveProfile.from_columns(columns), profile)


def test_mismatched_columns_are_rejected():
    columns = InterleaveProfile(
        branches={1: BranchStats(1, 1)}, pairs={(1, 2): 3}
    ).to_columns()
    columns["pair_b"] = columns["pair_b"][:0]
    try:
        InterleaveProfile.from_columns(columns)
    except ValueError:
        pass
    else:
        raise AssertionError("short pair column was accepted")


# -- the engine's store ------------------------------------------------------


def _filled(tmp_path):
    engine = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    artifacts = engine.artifacts("plot")
    return engine, artifacts


def test_entry_is_one_archive_and_its_commit_record(tmp_path):
    engine, artifacts = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    stem = engine.store.stem(spec, digest)
    entry = sorted(p.name for p in tmp_path.glob(f"{stem}*"))
    assert entry == [f"{stem}.meta.json", f"{stem}.trace.npz"]
    meta = json.loads((tmp_path / f"{stem}.meta.json").read_text())
    assert meta["store_format"] == 2
    with zipfile.ZipFile(tmp_path / f"{stem}.trace.npz") as archive:
        members = set(archive.namelist())
    assert {f"{key}.npy" for key in PROFILE_COLUMNS} <= members
    # the stored profile is the simulated one, row for row
    uncached = ExecutionEngine(scale=SCALE).artifacts("plot")
    _same(artifacts.profile, uncached.profile)
    assert artifacts.profile.instructions == uncached.profile.instructions
    assert artifacts.profile.name == uncached.profile.name


def test_verify_reads_no_columns(tmp_path, monkeypatch):
    engine, _ = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    opened = []
    real_open = zipfile.ZipFile.open

    def recording_open(self, name, *args, **kwargs):
        opened.append(getattr(name, "filename", name))
        return real_open(self, name, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "open", recording_open)
    assert ArtifactStore(tmp_path).verify(spec, digest)
    assert set(opened) == {"meta.npy", "version.npy"}


def test_warm_hit_opens_the_archive_once(tmp_path, monkeypatch):
    _filled(tmp_path)
    loads = []
    real_load = np.load

    def counting_load(path, *args, **kwargs):
        loads.append(Path(path).name)
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(np, "load", counting_load)
    warm = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    warm.artifacts("plot")
    assert warm.stats.store_hits == 1
    assert len(loads) == 1 and loads[0].endswith(".trace.npz")


def test_previous_format_entry_is_a_miss_and_resimulated(tmp_path):
    """A three-file entry (trace, profile.json, meta without a store
    format) from the previous layout is quarantined and resimulated."""
    engine, artifacts = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    stem = engine.store.stem(spec, digest)
    trace_path, meta_path = engine.store.paths(spec, digest)
    save_trace(artifacts.trace, trace_path,
               meta={"digest": digest, "benchmark": "plot"})
    artifacts.profile.save(tmp_path / f"{stem}.profile.json")
    meta = json.loads(meta_path.read_text())
    del meta["store_format"]
    meta_path.write_text(json.dumps(meta))

    fresh = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    again = fresh.artifacts("plot")
    assert fresh.stats.simulated == 1
    assert fresh.stats.quarantined == 1
    _same(again.profile, artifacts.profile)
    quarantined = {
        p.name for p in (tmp_path / ArtifactStore.QUARANTINE_DIR).iterdir()
    }
    assert f"{stem}.profile.json" in quarantined
    assert not (tmp_path / f"{stem}.profile.json").exists()
    # the rewritten entry is current again
    assert ArtifactStore(tmp_path).verify(spec, digest)


def test_missing_profile_column_is_corrupt(tmp_path):
    engine, artifacts = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    trace_path, _ = engine.store.paths(spec, digest)
    columns = artifacts.profile.to_columns()
    del columns["pair_count"]
    save_trace(artifacts.trace, trace_path,
               meta={"digest": digest, "benchmark": "plot"}, columns=columns)
    store = ArtifactStore(tmp_path)
    assert not store.verify(spec, digest)
    assert len(store.corrupt_events) == 1


def test_quarantine_tolerates_a_concurrent_mover(tmp_path, monkeypatch):
    """Another reader may quarantine the same corrupt entry first: the
    vanished file is already handled, so verify and load read a miss."""
    store = ArtifactStore(tmp_path)
    spec = JobSpec("plot", scale=SCALE)
    digest = "cd" * 32
    real_replace = os.replace

    def raced_replace(src, dst):
        if Path(src).parent == tmp_path:
            Path(src).unlink()  # the other reader got there first
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", raced_replace)
    for read in (store.verify, store.load):
        trace_path, meta_path = store.paths(spec, digest)
        trace_path.write_bytes(b"\x00not a zip")
        meta_path.write_text("{not json", encoding="utf-8")
        assert not read(spec, digest)
    assert len(store.corrupt_events) == 2
    assert all(e.context["quarantined"] == [] for e in store.corrupt_events)


def test_store_hit_clears_stale_checkpoints(tmp_path):
    engine, _ = _filled(tmp_path)
    stem = engine.store.stem(engine.job("plot"), engine.digest("plot"))
    checkpoints = CheckpointStore(tmp_path / CHECKPOINT_SUBDIR)
    checkpoints.put(stem, 1, {"stale": True})
    assert checkpoints.sequences(stem) == [1]

    warm = ExecutionEngine(
        scale=SCALE, cache_dir=tmp_path, checkpoint_every_events=2000
    )
    warm.artifacts("plot")
    assert warm.stats.store_hits == 1
    assert checkpoints.sequences(stem) == []
