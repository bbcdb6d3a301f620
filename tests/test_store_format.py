"""Store entries: one archive per entry, verified cheaply, read once.

An entry is ``<stem>.trace.npz`` (trace columns, profile columns and the
embedded digest) plus its ``<stem>.meta.json`` commit record, which
holds the sha256 of the archive's bytes.  A load checks that sha256,
inflates the profile, and inflates the trace only when it is read.
"""

import builtins
import hashlib
import io
import json
import os
import shutil
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore
from repro.eval.digest import JobSpec
from repro.eval.engine import ExecutionEngine
from repro.errors import ArtifactCorrupt
from repro.eval.faults import corrupt_member
from repro.eval.store import ArtifactStore
from repro.eval.tables import run_table2, run_table3, run_table4
from repro.eval.worker import CHECKPOINT_SUBDIR
from repro.profiling.profile import (
    PROFILE_COLUMNS,
    BranchStats,
    InterleaveProfile,
)
from repro.trace.events import BranchTrace
from repro.trace.io import TRACE_COLUMNS, read_trace_archive, save_trace

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
    assert meta["store_format"] == 3
    archive_path = tmp_path / f"{stem}.trace.npz"
    assert (
        meta["archive_sha256"]
        == hashlib.sha256(archive_path.read_bytes()).hexdigest()
    )
    with zipfile.ZipFile(archive_path) as archive:
        members = set(archive.namelist())
    assert {f"{key}.npy" for key in (*TRACE_COLUMNS, *PROFILE_COLUMNS)} <= members
    # the stored profile is the simulated one, row for row
    uncached = ExecutionEngine(scale=SCALE).artifacts("plot")
    _same(artifacts.profile, uncached.profile)
    assert artifacts.profile.instructions == uncached.profile.instructions
    assert artifacts.profile.name == uncached.profile.name


def _record_member_opens(monkeypatch):
    """The names of every zip member opened from now on."""
    opened = []
    real_open = zipfile.ZipFile.open

    def recording_open(self, name, *args, **kwargs):
        opened.append(getattr(name, "filename", name))
        return real_open(self, name, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "open", recording_open)
    return opened


TRACE_MEMBERS = {f"{key}.npy" for key in TRACE_COLUMNS} - {"version.npy"}


def test_verify_reads_no_columns(tmp_path, monkeypatch):
    engine, _ = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    opened = _record_member_opens(monkeypatch)
    assert ArtifactStore(tmp_path).verify(spec, digest)
    assert set(opened) == {"meta.npy", "version.npy"}


def test_warm_hit_opens_the_archive_once(tmp_path, monkeypatch):
    """One read of the archive file serves the profile and the trace."""
    _filled(tmp_path)
    reads = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".trace.npz"):
            reads.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    warm = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    artifacts = warm.artifacts("plot")
    assert len(artifacts.trace) > 0
    assert warm.stats.store_hits == 1
    assert len(reads) == 1


def test_tables_over_a_warm_store_inflate_no_trace(tmp_path, monkeypatch):
    _filled(tmp_path)
    opened = _record_member_opens(monkeypatch)
    warm = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    for run_table in (run_table2, run_table3, run_table4):
        assert run_table(warm, ["plot"])
    assert warm.stats.store_hits == 1
    assert warm.stats.simulated == 0
    assert {f"{key}.npy" for key in PROFILE_COLUMNS} <= set(opened)
    assert not TRACE_MEMBERS & set(opened)


def test_lazy_trace_is_the_archived_trace_inflated_once(tmp_path, monkeypatch):
    engine, _ = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    trace_path, _ = engine.store.paths(spec, digest)
    expected, _, _ = read_trace_archive(trace_path)
    opened = _record_member_opens(monkeypatch)
    artifacts = ArtifactStore(tmp_path).load(spec, digest)
    assert not TRACE_MEMBERS & set(opened)
    trace = artifacts.trace
    assert artifacts.trace is trace
    assert sorted(n for n in opened if n in TRACE_MEMBERS) == sorted(
        TRACE_MEMBERS
    )
    assert trace.name == expected.name
    for key in ("pcs", "targets", "taken", "timestamps"):
        got, want = getattr(trace, key), getattr(expected, key)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# -- archive checksum ----------------------------------------------------------


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A filled store plus its entry's pristine archive and meta bytes."""
    root = tmp_path_factory.mktemp("pristine")
    engine, _ = _filled(root)
    spec, digest = engine.job("plot"), engine.digest("plot")
    trace_path, meta_path = engine.store.paths(spec, digest)
    return root, spec, digest, trace_path.read_bytes(), meta_path.read_bytes()


def _load_damaged(pristine, damage) -> ArtifactStore:
    """Restore the pristine entry, apply *damage* to its archive path,
    and assert that a load quarantines the entry as a miss."""
    root, spec, digest, archive, meta = pristine
    store = ArtifactStore(root)
    trace_path, meta_path = store.paths(spec, digest)
    shutil.rmtree(root / ArtifactStore.QUARANTINE_DIR, ignore_errors=True)
    trace_path.write_bytes(archive)
    meta_path.write_bytes(meta)
    damage(trace_path)
    assert store.load(spec, digest) is None
    assert len(store.corrupt_events) == 1
    assert not store.contains(spec, digest)
    quarantined = {
        p.name for p in (root / ArtifactStore.QUARANTINE_DIR).iterdir()
    }
    assert {trace_path.name, meta_path.name} <= quarantined
    return store


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_changed_archive_byte_is_a_quarantined_miss(pristine, data):
    size = len(pristine[3])
    offset = data.draw(st.integers(min_value=0, max_value=size - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))

    def damage(path):
        raw = bytearray(path.read_bytes())
        raw[offset] ^= flip
        path.write_bytes(bytes(raw))

    _load_damaged(pristine, damage)


def test_damage_inside_the_last_trace_member_is_a_quarantined_miss(pristine):
    """Profile-only loads still catch a damaged trace column: one byte
    flipped in the middle of the archive's last trace member."""
    def damage(path):
        corrupt_member(path, "timestamps.npy", 1)
        with zipfile.ZipFile(path) as archive:  # only that member is bad
            assert archive.testzip() == "timestamps.npy"

    _load_damaged(pristine, damage)


def _rehash(trace_path: Path) -> None:
    """Record the archive's current bytes in its meta, as a buggy writer
    that hashed what it wrote would."""
    meta_path = trace_path.with_name(
        trace_path.name.replace(".trace.npz", ".meta.json")
    )
    meta = json.loads(meta_path.read_text())
    meta["archive_sha256"] = hashlib.sha256(
        trace_path.read_bytes()
    ).hexdigest()
    meta_path.write_text(json.dumps(meta))


def test_missing_trace_column_is_a_quarantined_miss(pristine):
    def drop_taken(path):
        with zipfile.ZipFile(path) as source:
            members = {
                name: source.read(name)
                for name in source.namelist() if name != "taken.npy"
            }
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as target:
            for name, body in members.items():
                target.writestr(name, body)
        _rehash(path)

    store = _load_damaged(pristine, drop_taken)
    assert "KeyError" in str(store.corrupt_events[0])


def test_a_verified_trace_that_fails_to_inflate_raises_artifact_corrupt(
    tmp_path,
):
    engine, _ = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    trace_path, meta_path = engine.store.paths(spec, digest)
    corrupt_member(trace_path, "pcs.npy")
    _rehash(trace_path)

    store = ArtifactStore(tmp_path)
    artifacts = store.load(spec, digest)
    assert artifacts is not None  # the checksum and the profile pass
    assert store.corrupt_events == []
    for _ in range(2):  # every read fails the same typed way
        with pytest.raises(ArtifactCorrupt) as raised:
            artifacts.trace
        assert not isinstance(
            raised.value, (zipfile.BadZipFile, KeyError, ValueError)
        )
        assert raised.value.context["benchmark"] == "plot"
        assert raised.value.context["digest"] == digest[:16]
    assert len(store.corrupt_events) == 1
    assert not trace_path.exists() and not meta_path.exists()
    assert (tmp_path / ArtifactStore.QUARANTINE_DIR / trace_path.name).exists()

    rerun = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    assert len(rerun.artifacts("plot").trace) > 0
    assert rerun.stats.simulated == 1


def test_two_puts_of_one_entry_write_identical_bytes(tmp_path, monkeypatch):
    """A load racing a second put of the same digest reads a commit
    record and an archive from different puts; they still agree only
    because the archive bytes do not depend on when they were written."""
    engine, artifacts = _filled(tmp_path / "first")
    spec, digest = engine.job("plot"), engine.digest("plot")
    later = time.time() + 3 * 3600
    monkeypatch.setattr(time, "time", lambda: later)
    second = ArtifactStore(tmp_path / "second")
    second.put(spec, digest, artifacts)
    for first_path, second_path in zip(
        engine.store.paths(spec, digest), second.paths(spec, digest)
    ):
        assert first_path.read_bytes() == second_path.read_bytes()


def test_format_2_entry_is_a_miss_and_resimulated(tmp_path):
    engine, artifacts = _filled(tmp_path)
    spec, digest = engine.job("plot"), engine.digest("plot")
    trace_path, meta_path = engine.store.paths(spec, digest)
    archive = trace_path.read_bytes()
    meta = json.loads(meta_path.read_text())
    meta["store_format"] = 2
    del meta["archive_sha256"]
    meta_path.write_text(json.dumps(meta))

    fresh = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    again = fresh.artifacts("plot")
    assert fresh.stats.simulated == 1
    assert fresh.stats.quarantined == 1
    _same(again.profile, artifacts.profile)
    assert (
        tmp_path / ArtifactStore.QUARANTINE_DIR / meta_path.name
    ).exists()
    # the rewritten entry is format 3, and its archive bytes are unchanged
    assert json.loads(meta_path.read_text())["store_format"] == 3
    assert trace_path.read_bytes() == archive
    assert ArtifactStore(tmp_path).load(spec, digest) is not None


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
