"""Checkpoint/resume: crash-safe snapshots must restore bit-exactly.

Three layers are exercised:

* the :class:`~repro.checkpoint.CheckpointStore` file format — atomic
  writes, retention, corruption quarantine and fallback;
* the sliced simulation runner — a run killed at an arbitrary slice
  boundary and resumed must produce artifacts byte-identical to an
  uninterrupted run (the property test draws the kill point);
* the :class:`~repro.eval.engine.ExecutionEngine` — retries restore the
  dead attempt's checkpoint, a plain rerun takes finished benchmarks
  from the store without building, and both are visible in the engine
  stats.

The simulation-heavy tests are marked ``faults`` alongside the rest of
the injection suite; the store/journal unit tests run everywhere.
"""

import json
import pickle
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointConfig,
    CheckpointStore,
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_SLICE_INSTRUCTIONS,
    MIN_SLICE_INSTRUCTIONS,
    RunJournal,
    prune_directory,
    run_simulation,
    slice_for_cadence,
)
from repro.errors import CheckpointCorrupt
from repro.eval import digest as digest_module
from repro.eval import worker as worker_module
from repro.eval.engine import ExecutionEngine
from repro.eval.worker import CHECKPOINT_SUBDIR
from repro.eval.faults import FaultPlan, InjectedFault
from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import InterleaveConsumer, TraceBuilder
from repro.trace.io import save_trace
from repro.workloads import build_workload, get_benchmark, run_workload

#: Small enough to keep each simulation around a second.
SCALE = 0.05

#: Fast retry backoff so retry tests don't sleep for real.
BACKOFF = 0.01


# -- checkpoint store: format, retention, corruption -------------------------


def make_store(tmp_path, **kwargs):
    return CheckpointStore(tmp_path / "checkpoints", **kwargs)


def test_put_load_round_trip(tmp_path):
    store = make_store(tmp_path)
    payload = {"sim": {"pc": 4096, "pages": {0: b"\x01" * 16}}, "n": [1, 2]}
    store.put("plot-s1-abcd", 1, payload, meta={"events": 500})
    loaded = store.load_latest("plot-s1-abcd")
    assert loaded is not None
    header, restored = loaded
    assert header["stem"] == "plot-s1-abcd"
    assert header["seq"] == 1
    assert header["events"] == 500  # meta keys flatten into the header
    assert restored == payload
    assert not store.corrupt_events


def test_retention_keeps_newest_sequences(tmp_path):
    store = make_store(tmp_path, keep=2)
    for seq in range(1, 6):
        store.put("stem", seq, {"seq": seq})
    assert store.sequences("stem") == [4, 5]
    _, payload = store.load_latest("stem")
    assert payload == {"seq": 5}


def test_no_stage_files_left_behind(tmp_path):
    store = make_store(tmp_path)
    store.put("stem", 1, {"x": 1})
    leftovers = [p.name for p in store.root.iterdir() if ".stage-" in p.name]
    assert leftovers == []


def test_corrupt_latest_falls_back_to_previous(tmp_path):
    store = make_store(tmp_path)
    store.put("stem", 1, {"seq": 1})
    store.put("stem", 2, {"seq": 2})
    latest = store.path("stem", 2)
    raw = bytearray(latest.read_bytes())
    raw[-8:] = b"\x00" * 8  # damage the pickle payload
    latest.write_bytes(bytes(raw))

    loaded = store.load_latest("stem")
    assert loaded is not None
    header, payload = loaded
    assert header["seq"] == 1 and payload == {"seq": 1}
    # the damaged file was quarantined, not deleted, and the event recorded
    assert not latest.exists()
    quarantined = list((store.root / store.QUARANTINE_DIR).iterdir())
    assert [p.name for p in quarantined] == [latest.name]
    assert len(store.corrupt_events) == 1
    assert isinstance(store.corrupt_events[0], CheckpointCorrupt)


def test_truncated_checkpoint_falls_back(tmp_path):
    store = make_store(tmp_path)
    store.put("stem", 1, {"seq": 1})
    store.put("stem", 2, {"seq": 2})
    latest = store.path("stem", 2)
    raw = latest.read_bytes()
    latest.write_bytes(raw[: len(raw) // 2])
    _, payload = store.load_latest("stem")
    assert payload == {"seq": 1}


def test_all_checkpoints_corrupt_returns_none(tmp_path):
    store = make_store(tmp_path)
    store.put("stem", 1, {"seq": 1})
    store.put("stem", 2, {"seq": 2})
    for seq in (1, 2):
        store.path("stem", seq).write_bytes(b"garbage")
    assert store.load_latest("stem") is None
    assert len(store.corrupt_events) == 2
    assert store.sequences("stem") == []


def test_header_stem_mismatch_is_corruption(tmp_path):
    """A checkpoint renamed onto another stem must not restore."""
    store = make_store(tmp_path)
    store.put("other", 1, {"seq": 1})
    store.path("other", 1).rename(store.path("stem", 1))
    assert store.load_latest("stem") is None
    assert len(store.corrupt_events) == 1


def test_magic_prefix_is_stable(tmp_path):
    store = make_store(tmp_path)
    store.put("stem", 1, {"x": 1})
    raw = store.path("stem", 1).read_bytes()
    assert raw.startswith(CHECKPOINT_MAGIC)
    # header line is plain JSON: inspectable without unpickling anything
    header = json.loads(raw[len(CHECKPOINT_MAGIC):].split(b"\n", 1)[0])
    assert header["payload_sha256"]
    assert header["payload_bytes"] > 0


def test_clear_removes_only_that_stem(tmp_path):
    store = make_store(tmp_path)
    store.put("a", 1, {"x": 1})
    store.put("b", 1, {"x": 2})
    store.clear("a")
    assert store.sequences("a") == []
    assert store.sequences("b") == [1]


def test_prune_directory_keeps_newest(tmp_path):
    root = tmp_path / "quarantine"
    root.mkdir()
    for i in range(20):
        (root / f"f{i:02d}").write_bytes(b"x")
    pruned = prune_directory(root, keep=5)
    assert pruned == 15
    assert len(list(root.iterdir())) == 5
    assert prune_directory(tmp_path / "missing", keep=5) == 0


def test_quarantine_is_bounded(tmp_path):
    store = make_store(tmp_path)
    for i in range(store.QUARANTINE_KEEP + 8):
        store.put("stem", i, {"seq": i}, )
        store.path("stem", i).write_bytes(b"garbage")
        assert store.load_latest("stem") is None
    quarantine = store.root / store.QUARANTINE_DIR
    assert len(list(quarantine.iterdir())) <= store.QUARANTINE_KEEP


def test_clear_removes_the_block_log(tmp_path):
    store = make_store(tmp_path)
    log = store.log("a")
    log.append([b"block"])
    store.put("a", 1, {"x": 1}, meta=log.position())
    store.clear("a")
    assert not log.path.exists()
    assert store.sequences("a") == []


def test_version_1_checkpoint_reads_as_corrupt(tmp_path):
    """A file in the old whole-trace format is quarantined, not restored."""
    store = make_store(tmp_path)
    store.put("stem", 1, {"x": 1})
    path = store.path("stem", 1)
    head, blob = path.read_bytes()[len(CHECKPOINT_MAGIC):].split(b"\n", 1)
    header = json.loads(head)
    header["version"] = 1
    path.write_bytes(
        CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + blob
    )
    assert store.load_latest("stem") is None
    assert len(store.corrupt_events) == 1
    assert store.sequences("stem") == []


def test_block_log_restore_truncates_tail_and_checks_prefix(tmp_path):
    store = make_store(tmp_path)
    log = store.log("stem")
    log.append([b"first", b"second"])
    position = log.position()
    log.append([b"unnamed"])  # appended, but no checkpoint names it
    with log.path.open("ab") as fh:
        fh.write(b"\x01\x02\x03")  # a torn record

    reader = store.log("stem")
    assert [bytes(p) for p in reader.restore(position)] == [
        b"first", b"second",
    ]
    assert log.path.stat().st_size == position["log_bytes"]
    assert reader.position() == position
    reader.append([b"third"])  # continues exactly where the prefix ended
    assert [bytes(p) for p in store.log("stem").restore(reader.position())
            ] == [b"first", b"second", b"third"]

    raw = bytearray(log.path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    log.path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        store.log("stem").restore(reader.position())


def test_slice_for_cadence_bounds():
    assert slice_for_cadence(1) == MIN_SLICE_INSTRUCTIONS
    assert slice_for_cadence(2000) == 8000
    assert slice_for_cadence(10**9) == DEFAULT_SLICE_INSTRUCTIONS
    # the default cadence keeps full-size slices
    assert (
        slice_for_cadence(DEFAULT_CHECKPOINT_EVERY)
        == DEFAULT_SLICE_INSTRUCTIONS
    )
    config = CheckpointConfig(
        store=CheckpointStore.__new__(CheckpointStore), stem="s",
        every_events=2000,
    )
    assert config.slice_instructions == slice_for_cadence(2000)


# -- run journal -------------------------------------------------------------


def _digests(journal):
    records, _ = journal.read()
    return [(r["benchmark"], r["status"], r.get("digest")) for r in records]


def test_journal_records_round_trip(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record_completed("plot", "a" * 64, scale=0.05, trace_limit=0)
    journal.record_failed("pgp", scale=0.05, trace_limit=0,
                          error={"code": "job_failed"})
    records, warnings = journal.read()
    assert warnings == []
    assert _digests(journal) == [
        ("plot", "completed", "a" * 64), ("pgp", "failed", None),
    ]
    assert records[0]["scale"] == 0.05 and records[0]["trace_limit"] == 0
    assert records[1]["error"] == {"code": "job_failed"}


def test_journal_tolerates_torn_lines(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record_completed("plot", "a" * 64, scale=0.05, trace_limit=0)
    with journal.path.open("a") as handle:
        handle.write('{"benchmark": "pgp", "status": "comp')  # torn write
    journal.record_completed("compress", "b" * 64, scale=0.05, trace_limit=0)
    assert _digests(journal) == [
        ("plot", "completed", "a" * 64), ("compress", "completed", "b" * 64),
    ]


# -- sliced runner: kill anywhere, resume bit-exactly ------------------------


def _fingerprint(tmp_path, tag, profiler, builder, bus):
    """Byte-level fingerprint of everything a job would persist."""
    trace_path = tmp_path / f"{tag}.trace.npz"
    save_trace(builder.result, trace_path)
    profile = profiler.result
    profile_doc = json.dumps(
        {
            "branches": {
                pc: [s.executions, s.taken]
                for pc, s in sorted(profile.branches.items())
            },
            "pairs": {
                f"{a}:{b}": count
                for (a, b), count in sorted(profile.pairs.items())
            },
        },
        sort_keys=True,
    )
    stats = bus.stats
    return (
        trace_path.read_bytes(),
        profile_doc,
        (stats.events, stats.delivered, stats.chunk_flushes),
    )


def _run_to_completion(
    built, config=None, fault_plan=None, benchmark="", backend=None,
    chunk_events=None,
):
    # fixed labels: the fingerprint embeds them, and fault plans key on
    # the *benchmark* argument independently of the display label
    profiler = InterleaveConsumer(label="plot")
    builder = TraceBuilder(label="plot")
    kwargs = {} if chunk_events is None else {"chunk_events": chunk_events}
    bus = BranchEventBus([profiler, builder], **kwargs)
    outcome = run_simulation(
        built, bus, config=config, fault_plan=fault_plan,
        benchmark=benchmark, backend=backend,
    )
    bus.finish()
    return outcome, profiler, builder, bus


@pytest.fixture(scope="module")
def built_plot():
    return build_workload(get_benchmark("plot", scale=SCALE))


@pytest.fixture(scope="module")
def plot_baseline(built_plot, tmp_path_factory):
    """Uninterrupted run of plot: the ground truth for byte-identity."""
    tmp = tmp_path_factory.mktemp("baseline")
    outcome, profiler, builder, bus = _run_to_completion(built_plot)
    return (
        _fingerprint(tmp, "base", profiler, builder, bus),
        bus.stats.events,
    )


@pytest.mark.faults
def test_sliced_run_matches_unsliced(built_plot, plot_baseline, tmp_path):
    """Checkpointing itself must not perturb results."""
    baseline, _ = plot_baseline
    config = CheckpointConfig(
        store=make_store(tmp_path), stem="plot-stem", every_events=2_000,
    )
    outcome, profiler, builder, bus = _run_to_completion(
        built_plot, config=config,
    )
    assert outcome.checkpoints_written > 0
    assert not outcome.resumed_from_checkpoint
    assert _fingerprint(tmp_path, "sliced", profiler, builder, bus) == baseline


@pytest.mark.faults
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kill_fraction=st.integers(min_value=5, max_value=95))
def test_kill_anywhere_resume_is_byte_identical(
    built_plot, plot_baseline, tmp_path, kill_fraction
):
    """Interrupt at an arbitrary slice boundary; the resumed run must
    reproduce the uninterrupted artifacts byte for byte — warmup state,
    staged chunks and consumer internals all restore exactly."""
    baseline, total_events = plot_baseline
    threshold = max(1, total_events * kill_fraction // 100)
    workdir = tmp_path / f"kill-{kill_fraction}"
    workdir.mkdir()
    store = CheckpointStore(workdir / "checkpoints")
    config = CheckpointConfig(
        store=store, stem="plot-stem", every_events=1_000,
    )
    plan = FaultPlan(
        worker_kill={"plot": threshold}, state_dir=str(workdir / "state"),
    )
    with pytest.raises(InjectedFault):
        _run_to_completion(
            built_plot, config=config, fault_plan=plan, benchmark="plot",
        )
    # retry: the kill-once marker is claimed, so the plan stays inert
    outcome, profiler, builder, bus = _run_to_completion(
        built_plot, config=config, fault_plan=plan, benchmark="plot",
    )
    if threshold > config.every_events:
        assert outcome.resumed_from_checkpoint
        assert outcome.resumed_events > 0
    assert _fingerprint(workdir, "resumed", profiler, builder, bus) == baseline


@pytest.mark.faults
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(kill_fraction=st.integers(min_value=5, max_value=95))
def test_kill_anywhere_superblock_matches_interp_baseline(
    built_plot, plot_baseline, tmp_path, kill_fraction
):
    """Kill-anywhere under the superblock backend: the resumed compiled
    run must reproduce the *interpreter's* uninterrupted artifacts byte
    for byte — checkpoints restore mid-trace PCs onto the fallback path
    and the compiled regions take over from the next trace head."""
    baseline, total_events = plot_baseline
    threshold = max(1, total_events * kill_fraction // 100)
    workdir = tmp_path / f"sbkill-{kill_fraction}"
    workdir.mkdir()
    store = CheckpointStore(workdir / "checkpoints")
    config = CheckpointConfig(
        store=store, stem="plot-stem", every_events=1_000,
    )
    plan = FaultPlan(
        worker_kill={"plot": threshold}, state_dir=str(workdir / "state"),
    )
    with pytest.raises(InjectedFault):
        _run_to_completion(
            built_plot, config=config, fault_plan=plan, benchmark="plot",
            backend="superblock",
        )
    outcome, profiler, builder, bus = _run_to_completion(
        built_plot, config=config, fault_plan=plan, benchmark="plot",
        backend="superblock",
    )
    if threshold > config.every_events:
        assert outcome.resumed_from_checkpoint
    assert _fingerprint(workdir, "sb", profiler, builder, bus) == baseline


@pytest.mark.faults
def test_corrupt_checkpoint_falls_back_then_cold_starts(
    built_plot, plot_baseline, tmp_path
):
    """Every checkpoint damaged: the runner quarantines them all and the
    run still completes, bit-exact, from instruction zero."""
    baseline, total_events = plot_baseline
    store = make_store(tmp_path)
    config = CheckpointConfig(
        store=store, stem="plot-stem", every_events=2_000,
    )
    plan = FaultPlan(
        worker_kill={"plot": max(1, total_events // 2)},
        state_dir=str(tmp_path / "state"),
    )
    with pytest.raises(InjectedFault):
        _run_to_completion(
            built_plot, config=config, fault_plan=plan, benchmark="plot",
        )
    for seq in store.sequences("plot-stem"):
        store.path("plot-stem", seq).write_bytes(b"garbage")
    outcome, profiler, builder, bus = _run_to_completion(
        built_plot, config=config, fault_plan=plan, benchmark="plot",
    )
    assert not outcome.resumed_from_checkpoint
    assert outcome.corrupt_checkpoints > 0
    assert _fingerprint(tmp_path, "cold", profiler, builder, bus) == baseline


@pytest.mark.faults
def test_restorable_but_stale_payload_quarantines(built_plot, tmp_path):
    """A checkpoint whose payload unpickles but cannot restore (wrong
    consumer set) is quarantined and the run cold-starts."""
    store = make_store(tmp_path)
    store.put(
        "plot-stem", 1,
        {"sim": {"bogus": True}, "bus": {"staged": {}, "stats": {},
                                         "consumers": {}}},
        meta={"events": 1},
    )
    config = CheckpointConfig(
        store=store, stem="plot-stem", every_events=100_000,
    )
    outcome, _, _, _ = _run_to_completion(built_plot, config=config)
    assert not outcome.resumed_from_checkpoint
    assert outcome.corrupt_checkpoints > 0
    assert outcome.result.instructions > 0


# -- block log: each sealed block written once, damage cold-starts ----------

#: Bus chunk size for the block-log tests: small enough that plot seals
#: dozens of blocks, so the log, not the checkpoint file, holds the trace.
LOG_CHUNK = 1_024

_RECORD = struct.Struct("<Q32s")


def _header(path):
    raw = path.read_bytes()[len(CHECKPOINT_MAGIC):]
    return json.loads(raw.split(b"\n", 1)[0])


def _log_payloads(path):
    """Every record payload in a block log, parsed independently."""
    raw, payloads, at = path.read_bytes(), [], 0
    while at < len(raw):
        length, _ = _RECORD.unpack_from(raw, at)
        at += _RECORD.size
        payloads.append(raw[at:at + length])
        at += length
    return payloads


@pytest.fixture(scope="module")
def plot_log_baseline(built_plot, tmp_path_factory):
    """Uninterrupted plot over LOG_CHUNK-event chunks."""
    tmp = tmp_path_factory.mktemp("log-baseline")
    _, profiler, builder, bus = _run_to_completion(
        built_plot, chunk_events=LOG_CHUNK,
    )
    return (
        _fingerprint(tmp, "base", profiler, builder, bus),
        bus.stats.events,
    )


def _killed_halfway(built, tmp_path, total_events):
    """Checkpoint every 1,000 events, kill at half the run."""
    config = CheckpointConfig(
        store=make_store(tmp_path), stem="plot-stem", every_events=1_000,
    )
    plan = FaultPlan(
        worker_kill={"plot": total_events // 2},
        state_dir=str(tmp_path / "state"),
    )
    with pytest.raises(InjectedFault):
        _run_to_completion(
            built, config=config, fault_plan=plan, benchmark="plot",
            chunk_events=LOG_CHUNK,
        )
    return config, plan


@pytest.mark.faults
def test_log_blocks_past_newest_checkpoint_resume_byte_identical(
    built_plot, plot_log_baseline, tmp_path
):
    """A kill between the log append and the checkpoint commit leaves
    blocks no checkpoint names (and maybe a torn record); the resume
    truncates them and continues byte-identically."""
    baseline, total_events = plot_log_baseline
    config, plan = _killed_halfway(built_plot, tmp_path, total_events)
    store = config.store
    newest = _header(store.path("plot-stem", store.sequences("plot-stem")[-1]))
    log_path = store.log("plot-stem").path
    assert log_path.stat().st_size == newest["log_bytes"] > 0
    with log_path.open("ab") as fh:
        first = _log_payloads(log_path)[0]
        fh.write(_RECORD.pack(len(first), b"\x00" * 32) + first)
        fh.write(b"\x05" * 20)

    outcome, profiler, builder, bus = _run_to_completion(
        built_plot, config=config, fault_plan=plan, benchmark="plot",
        chunk_events=LOG_CHUNK,
    )
    assert outcome.resumed_from_checkpoint
    assert outcome.resumed_events == newest["events"]
    assert outcome.corrupt_checkpoints == 0
    assert _fingerprint(tmp_path, "tail", profiler, builder, bus) == baseline


@pytest.mark.faults
def test_flipped_log_byte_quarantines_and_cold_starts(
    built_plot, plot_log_baseline, tmp_path
):
    """A bit flip inside the logged prefix: the log and every checkpoint
    of the job are quarantined and the run cold-starts, bit-exact."""
    baseline, total_events = plot_log_baseline
    config, plan = _killed_halfway(built_plot, tmp_path, total_events)
    store = config.store
    names = {store.path("plot-stem", seq).name
             for seq in store.sequences("plot-stem")}
    log_path = store.log("plot-stem").path
    raw = bytearray(log_path.read_bytes())
    # records here are equal-sized, so the middle can be a record head;
    # step past one to flip a payload (trace) byte
    raw[len(raw) // 2 + _RECORD.size + 1] ^= 0xFF
    log_path.write_bytes(bytes(raw))

    outcome, profiler, builder, bus = _run_to_completion(
        built_plot, config=config, fault_plan=plan, benchmark="plot",
        chunk_events=LOG_CHUNK,
    )
    assert not outcome.resumed_from_checkpoint
    assert outcome.corrupt_checkpoints == 1
    quarantined = {
        p.name for p in (store.root / store.QUARANTINE_DIR).iterdir()
    }
    assert quarantined == names | {log_path.name}
    assert _fingerprint(tmp_path, "flip", profiler, builder, bus) == baseline


@pytest.mark.faults
def test_each_sealed_block_is_logged_once(built_plot, tmp_path, monkeypatch):
    """Across one run the log holds exactly the final trace's column
    bytes up to the newest checkpoint, block by block, and checkpoint
    files do not grow with the trace."""
    store = make_store(tmp_path)
    sizes = []
    real_put = store.put

    def sized_put(*args, **kwargs):
        path = real_put(*args, **kwargs)
        sizes.append(path.stat().st_size)
        return path

    monkeypatch.setattr(store, "put", sized_put)
    config = CheckpointConfig(
        store=store, stem="plot-stem", every_events=1_000,
    )
    _, _, builder, _ = _run_to_completion(
        built_plot, config=config, chunk_events=LOG_CHUNK,
    )
    newest = _header(store.path("plot-stem", store.sequences("plot-stem")[-1]))
    log_path = store.log("plot-stem").path
    assert log_path.stat().st_size == newest["log_bytes"]
    payloads = _log_payloads(log_path)
    assert len(payloads) == newest["log_blocks"] > 10
    trace = builder.result
    columns = (trace.pcs, trace.targets, trace.taken, trace.timestamps)
    expected = [
        b"".join(
            col[i * LOG_CHUNK:(i + 1) * LOG_CHUNK].tobytes()
            for col in columns
        )
        for i in range(len(payloads))
    ]
    assert payloads == expected
    # A whole-trace checkpoint would grow by every logged byte.  These
    # grow only with the touched memory pages and the interleave pair
    # table, both bounded by the program, not by the run's length.
    assert len(sizes) > 20
    assert max(sizes) - sizes[0] < newest["log_bytes"] // 4


# -- engine integration: retries resume, reruns are store hits --------------


def make_engine(tmp_path, **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("retry_backoff", BACKOFF)
    return ExecutionEngine(cache_dir=tmp_path / "cache", **kwargs)


def _artifact_bytes(cache_dir, name):
    """Every stored artifact byte for *name* (trace, profile, meta)."""
    files = {
        path.name: path.read_bytes()
        for path in cache_dir.glob(f"{name}-*")
        if path.is_file()
    }
    assert files, f"no stored artifacts for {name}"
    return files


def test_checkpoint_flags_require_cache():
    with pytest.raises(ValueError):
        ExecutionEngine(scale=SCALE, checkpoint_every_events=1_000)
    with pytest.raises(ValueError):
        ExecutionEngine(
            scale=SCALE, cache_dir="/tmp/x", checkpoint_every_events=0,
        )


@pytest.mark.faults
@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_kill_resumes_and_matches_baseline(tmp_path, jobs):
    """The acceptance criterion: a worker SIGKILLed mid-chunk is retried,
    the retry restores the checkpoint (``resumed_from_checkpoint`` > 0)
    and the final artifacts are byte-identical to an undisturbed run."""
    baseline = make_engine(tmp_path / "clean")
    baseline.prefetch(["plot"])
    clean = _artifact_bytes(tmp_path / "clean" / "cache", "plot")

    plan = FaultPlan(
        worker_kill={"plot": 12_000}, state_dir=str(tmp_path / "state"),
    )
    with plan.installed():
        engine = make_engine(
            tmp_path / "faulty", jobs=jobs, retries=2,
            checkpoint_every_events=4_000,
        )
        results = engine.prefetch(["plot"])
    assert set(results) == {"plot"}
    assert engine.failures == {}
    assert engine.stats.retried == 1
    assert engine.stats.resumed_from_checkpoint == 1
    assert engine.stats.checkpoints_written > 0
    assert _artifact_bytes(tmp_path / "faulty" / "cache", "plot") == clean
    # checkpoints are cleared once the artifacts are durable
    ckpt_dir = tmp_path / "faulty" / "cache" / CHECKPOINT_SUBDIR
    assert not list(ckpt_dir.glob("*.ckpt"))


@pytest.mark.faults
def test_journal_resume_skips_completed_benchmarks(tmp_path):
    """Rerunning a finished pass continues it: every benchmark is a
    store hit, nothing simulates, and the journal is only appended."""
    first = make_engine(tmp_path)
    first.prefetch(["plot", "pgp"])
    journal = RunJournal(tmp_path / "cache")
    assert len(journal.read()[0]) == 2

    second = make_engine(tmp_path)
    results = second.prefetch(["plot", "pgp"])
    assert set(results) == {"plot", "pgp"}
    assert second.stats.store_hits == 2
    assert second.stats.simulated == 0
    assert [r["source"] for r in journal.read()[0][2:]] == ["store"] * 2


@pytest.mark.faults
def test_journal_resume_survives_missing_artifacts(tmp_path):
    """A journal that says done does not make a deleted entry a hit:
    the rerun simulates it again."""
    first = make_engine(tmp_path)
    first.prefetch(["plot"])
    for stale in (tmp_path / "cache").glob("plot-*"):
        stale.unlink()

    second = make_engine(tmp_path)
    results = second.prefetch(["plot"])
    assert set(results) == {"plot"}
    assert second.stats.job_source["plot"] == "simulated"
    assert second.stats.simulated == 1
    assert second.stats.store_hits == 0
    assert second.failures == {}


@pytest.mark.faults
@pytest.mark.parametrize(
    "backends", [("superblock",), ("interp", "superblock")],
    ids=["superblock-only", "both-backends"],
)
def test_resumed_artifacts_lookup_matches_the_engine_backend(
    tmp_path, monkeypatch, backends
):
    """``artifacts()`` on a rerun engine finds its own backend's entry.

    The digest-memo lookup must match on backend as well as scale and
    trace limit.  Otherwise a superblock engine either misses its own
    record and rebuilds (superblock-only store), or takes the
    interpreter's digest and misses in the store (both backends
    stored)."""
    for backend in backends:
        make_engine(tmp_path, backend=backend).prefetch(["plot"])
    builds = []
    real_build = digest_module.build_workload

    def counting_build(spec):
        builds.append(spec.name)
        return real_build(spec)

    for module in (digest_module, worker_module):
        monkeypatch.setattr(module, "build_workload", counting_build)
    engine = make_engine(tmp_path, backend="superblock")
    engine.artifacts("plot")
    assert engine.stats.job_source["plot"] == "store"
    assert engine.stats.store_hits == 1
    assert engine.stats.simulated == 0
    assert builds == []
    # the hit is journaled under the engine's own backend
    last = RunJournal(tmp_path / "cache").read()[0][-1]
    assert (last["source"], last["backend"]) == ("store", "superblock")


@pytest.mark.faults
def test_stats_surface_checkpoint_counters(tmp_path):
    plan = FaultPlan(
        worker_kill={"plot": 12_000}, state_dir=str(tmp_path / "state"),
    )
    with plan.installed():
        engine = make_engine(
            tmp_path, retries=2, checkpoint_every_events=4_000,
        )
        engine.prefetch(["plot"])
    payload = engine.stats.as_dict()
    for key in (
        "checkpoints_written", "resumed_from_checkpoint",
        "quarantine_pruned",
    ):
        assert key in payload
    assert "journal_skips" not in payload
    assert payload["resumed_from_checkpoint"] == 1
    rendered = engine.stats.render()
    assert "resumed" in rendered and "journal skip" not in rendered


@pytest.mark.faults
def test_cli_experiment_checkpoint_resume(tmp_path, capsys):
    from repro.__main__ import main

    cache = str(tmp_path / "cache")
    code = main([
        "experiment", "table2", "--scale", str(SCALE), "--cache", cache,
        "--checkpoint-every", "50000", "--json",
    ])
    assert code == 0
    first = json.loads(capsys.readouterr().out)
    assert first["params"]["checkpoint_every"] == 50000
    assert "resume" not in first["params"]

    # the same command again continues the run: all store hits
    code = main([
        "experiment", "table2", "--scale", str(SCALE), "--cache", cache,
        "--json",
    ])
    assert code == 0
    second = json.loads(capsys.readouterr().out)
    engine = second["results"]["engine"]
    assert engine["simulated"] == 0
    assert engine["store_hits"] == first["results"]["engine"]["simulated"]
    assert "journal_skips" not in engine
    assert second["results"]["output"] == first["results"]["output"]


def test_cli_resume_without_cache_exits_2(capsys):
    """``--resume`` is gone (a rerun continues a run), and checkpoints
    still need a cache to live in: both are usage errors, exit 2."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as info:
        main(["experiment", "table2", "--resume"])
    assert info.value.code == 2
    assert "unrecognized arguments: --resume" in capsys.readouterr().err
    assert main(["experiment", "table2", "--checkpoint-every", "100"]) == 2
    assert "--cache" in capsys.readouterr().err


def test_checkpoint_payloads_use_protocol_4(tmp_path):
    """Snapshot payloads stay loadable by any modern interpreter."""
    store = make_store(tmp_path)
    store.put("stem", 1, {"x": 1})
    raw = store.path("stem", 1).read_bytes()
    blob = raw[len(CHECKPOINT_MAGIC):].split(b"\n", 1)[1]
    assert pickle.loads(blob) == {"x": 1}
