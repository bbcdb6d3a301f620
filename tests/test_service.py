"""The analysis service: wire protocol, quotas, admission, daemon.

Unit layers (wire framing, token buckets, the admission queue, the
service journal's orphan accounting, predictor wire specs, and the
daemon's synchronous submit/schedule paths driven by a fake clock) are
fully deterministic — no sockets, no sleeps.  Two integration tests
then boot the real asyncio daemon in-process on a unix socket: one
end-to-end pass (submit + predictors, in-flight dedupe, store hit
across a daemon restart) and one deadline cancellation through the
worker-timeout path.  Daemon crash/SIGKILL recovery lives in
``test_service_faults.py`` with the rest of the injection suite.
"""

import asyncio
import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.errors import QuotaExceeded, ReproError, ServiceOverloaded
from repro.eval import interrupt
from repro.eval.digest import JobSpec, compute_job_digest
from repro.eval.store import ArtifactStore
from repro.schema import SCHEMA_VERSION
from repro.service import (
    AdmissionController,
    AnalysisService,
    LoadgenConfig,
    MAX_FRAME_BYTES,
    QuotaManager,
    ServiceConfig,
    ServiceJob,
    ServiceJournal,
    TokenBucket,
    WireError,
    build_predictor,
    decode_frame,
    encode_frame,
    read_frame,
    rejection,
    response,
    summarize,
)
from repro.service.loadgen import RequestOutcome, _percentile
from repro.predictors import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BimodalPredictor,
    BTFNTPredictor,
    GSharePredictor,
)

#: Small enough to keep each daemon-side simulation around a second.
SCALE = 0.05


# -- wire protocol ----------------------------------------------------------


def test_frame_round_trip():
    frame = {"op": "submit", "benchmark": "plot", "scale": 0.5}
    assert decode_frame(encode_frame(frame)) == frame


def test_encode_frame_is_one_sorted_line():
    raw = encode_frame({"b": 1, "a": 2})
    assert raw == b'{"a": 2, "b": 1}\n'


def test_decode_frame_rejects_oversize():
    line = b'{"pad": "' + b"x" * MAX_FRAME_BYTES + b'"}'
    with pytest.raises(WireError, match="exceeds"):
        decode_frame(line)


def test_decode_frame_rejects_garbage_and_non_objects():
    with pytest.raises(WireError, match="unparsable"):
        decode_frame(b"{oops\n")
    with pytest.raises(WireError, match="JSON object"):
        decode_frame(b"[1, 2]\n")


def test_read_frame_skips_blank_lines_and_signals_eof():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(b"\n  \n" + encode_frame({"op": "ping"}))
        reader.feed_eof()
        first = await read_frame(reader)
        second = await read_frame(reader)
        return first, second

    first, second = asyncio.run(scenario())
    assert first == {"op": "ping"}
    assert second is None


def test_response_stamps_schema_version_and_id():
    frame = response("accepted", "job-1", digest="abcd")
    assert frame == {
        "type": "accepted",
        "schema_version": SCHEMA_VERSION,
        "id": "job-1",
        "digest": "abcd",
    }


def test_rejection_carries_typed_error():
    frame = rejection(
        ServiceOverloaded("full", queue_depth=4, queue_limit=4), "job-9"
    )
    assert frame["type"] == "rejected"
    assert frame["id"] == "job-9"
    assert frame["error"]["code"] == "service_overloaded"
    assert frame["error"]["queue_limit"] == 4
    # the frame must survive the NDJSON encoding it is destined for
    assert decode_frame(encode_frame(frame)) == frame


# -- token buckets and quotas ----------------------------------------------


def test_token_bucket_burst_then_exact_wait():
    bucket = TokenBucket(rate=2.0, burst=3.0, tokens=3.0, updated=0.0)
    assert bucket.try_take(0.0) == 0.0
    assert bucket.try_take(0.0) == 0.0
    assert bucket.try_take(0.0) == 0.0
    # empty: the promised wait is exactly when the next token lands
    wait = bucket.try_take(0.0)
    assert wait == pytest.approx(0.5)
    assert bucket.try_take(wait) == 0.0


def test_token_bucket_refill_caps_at_burst():
    bucket = TokenBucket(rate=10.0, burst=2.0, tokens=0.0, updated=0.0)
    assert bucket.try_take(100.0) == 0.0  # refilled long ago, capped at 2
    assert bucket.try_take(100.0) == 0.0
    assert bucket.try_take(100.0) > 0.0


def test_token_bucket_zero_rate_never_refills():
    bucket = TokenBucket(rate=0.0, burst=1.0, tokens=0.0, updated=0.0)
    assert bucket.try_take(10.0) == float("inf")


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_quota_manager_rejects_with_retry_after():
    clock = FakeClock()
    quotas = QuotaManager(rate=1.0, burst=1.0, clock=clock)
    quotas.admit("t0")
    with pytest.raises(QuotaExceeded) as info:
        quotas.admit("t0")
    assert info.value.context["tenant"] == "t0"
    assert info.value.context["retry_after_s"] == pytest.approx(1.0)
    clock.advance(1.0)
    quotas.admit("t0")  # the promised retry_after was honest


def test_quota_manager_buckets_are_per_tenant():
    clock = FakeClock()
    quotas = QuotaManager(rate=1.0, burst=1.0, clock=clock)
    quotas.admit("t0")
    quotas.admit("t1")  # t1's bucket is untouched by t0's spend
    with pytest.raises(QuotaExceeded):
        quotas.admit("t0")


def test_quota_manager_zero_rate_is_unlimited():
    quotas = QuotaManager(rate=0.0, clock=FakeClock())
    for _ in range(100):
        quotas.admit("t0")
    assert quotas.usage_for("t0").admitted == 100


@pytest.mark.parametrize("burst", [0.5, 0.0, -1.0, float("nan")])
def test_quota_manager_rejects_a_burst_below_one_token(burst):
    """A bucket that can never hold a whole token would reject every
    submit forever; it is refused at construction instead."""
    with pytest.raises(ValueError, match="quota_burst"):
        QuotaManager(rate=1.0, burst=burst, clock=FakeClock())
    QuotaManager(rate=0.0, burst=burst, clock=FakeClock())  # limiting off


def test_quota_manager_rejects_a_nan_rate():
    with pytest.raises(ValueError, match="quota_rate"):
        QuotaManager(rate=float("nan"), clock=FakeClock())


def test_quota_manager_fairness_snapshot():
    clock = FakeClock()
    quotas = QuotaManager(rate=1.0, burst=1.0, clock=clock)
    quotas.admit("t0")
    with pytest.raises(QuotaExceeded):
        quotas.admit("t0")
    quotas.account("t0", completed=1, busy_seconds=2.5)
    snap = quotas.snapshot()
    assert snap["t0"] == {
        "submitted": 2,
        "admitted": 1,
        "rejected": 1,
        "completed": 1,
        "failed": 0,
        "busy_seconds": 2.5,
    }
    payload = json.loads(json.dumps(snap))  # stats frames are NDJSON
    assert payload == snap


# -- admission control -------------------------------------------------------


def test_admission_requires_positive_limit():
    with pytest.raises(ValueError):
        AdmissionController(0)


def test_admission_sheds_at_capacity_with_typed_context():
    admission = AdmissionController(2)
    admission.admit("a")
    admission.admit("b")
    with pytest.raises(ServiceOverloaded) as info:
        admission.admit("c")
    assert info.value.context["queue_depth"] == 2
    assert info.value.context["queue_limit"] == 2
    assert admission.shed == 1
    assert admission.admitted == 2


def test_admission_draining_sheds_everything():
    admission = AdmissionController(8)
    admission.draining = True
    with pytest.raises(ServiceOverloaded) as info:
        admission.admit("a")
    assert info.value.context["draining"] is True
    assert admission.depth() == 0


def test_admission_requeue_bypasses_cap_and_jumps_the_line():
    admission = AdmissionController(1)
    admission.admit("a")
    admission.requeue("retry")  # recovery path must never be shed
    assert admission.depth() == 2
    assert admission.pop() == "retry"
    assert admission.pop() == "a"
    assert admission.pop() is None


def test_admission_snapshot_shape():
    admission = AdmissionController(4)
    admission.admit("a")
    assert admission.snapshot() == {
        "queue_depth": 1,
        "queue_limit": 4,
        "admitted": 1,
        "shed": 0,
        "draining": False,
    }


# -- predictor wire specs ----------------------------------------------------


def test_build_predictor_specs():
    assert isinstance(build_predictor("bimodal"), BimodalPredictor)
    assert len(build_predictor("bimodal:512").counters.table) == 512
    assert build_predictor("gshare:10").history_bits == 10
    assert isinstance(build_predictor("gshare"), GSharePredictor)
    assert isinstance(
        build_predictor("always_taken"), AlwaysTakenPredictor
    )
    assert isinstance(
        build_predictor("always_not_taken"), AlwaysNotTakenPredictor
    )
    assert isinstance(build_predictor("BTFNT"), BTFNTPredictor)


@pytest.mark.parametrize(
    "spec",
    ["", "perceptron", "bimodal:tiny", "always_taken:1", "gshare:-3"],
)
def test_build_predictor_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        build_predictor(spec)


# -- service journal: orphan accounting --------------------------------------


def make_job(job_id, benchmark="plot", digest="d" * 16, **kwargs):
    spec = JobSpec(name=benchmark, scale=SCALE)
    return ServiceJob(
        id=job_id,
        tenant=kwargs.pop("tenant", "t0"),
        spec=spec,
        digest=digest,
        stem=f"{spec.tag()}-{digest[:16]}",
        **kwargs,
    )


def test_journal_orphans_are_submitted_without_done(tmp_path):
    journal = ServiceJournal(tmp_path)
    journal.record_submitted(make_job("job-a"))
    journal.record_submitted(make_job("job-b"))
    journal.record_done("job-a", "completed", digest="d" * 16)
    orphans = journal.orphans()
    assert [record["job"] for record in orphans] == ["job-b"]
    assert orphans[0]["benchmark"] == "plot"
    assert orphans[0]["scale"] == SCALE


def test_journal_all_terminal_states_clear_orphans(tmp_path):
    journal = ServiceJournal(tmp_path)
    for job_id, status in (
        ("job-a", "completed"),
        ("job-b", "failed"),
        ("job-c", "cancelled"),
    ):
        journal.record_submitted(make_job(job_id))
        journal.record_done(job_id, status)
    assert journal.orphans() == []


def test_journal_interrupted_is_not_terminal(tmp_path):
    # an interrupted job must STAY an orphan: that is the record the
    # restarted daemon's recovery pass resumes from
    journal = ServiceJournal(tmp_path)
    journal.record_submitted(make_job("job-a"))
    journal.record_done("job-a", "interrupted")
    assert [r["job"] for r in journal.orphans()] == ["job-a"]


def test_journal_orphans_preserve_submission_order(tmp_path):
    journal = ServiceJournal(tmp_path)
    for index in range(5):
        journal.record_submitted(make_job(f"job-{index}"))
    journal.record_done("job-2", "completed")
    assert [r["job"] for r in journal.orphans()] == [
        "job-0", "job-1", "job-3", "job-4",
    ]


def test_journal_record_includes_resume_parameters(tmp_path):
    journal = ServiceJournal(tmp_path)
    job = make_job("job-a", predictors=("gshare:10",))
    journal.record_submitted(job)
    (record,) = journal.read()[0]
    for key in ("benchmark", "scale", "backend",
                "digest", "predictors", "tenant"):
        assert key in record
    assert "trace_limit" not in record
    assert record["predictors"] == ["gshare:10"]


# -- the daemon's synchronous paths (fake clock, no sockets) -----------------


def make_service(tmp_path, **overrides):
    clock = overrides.pop("clock", FakeClock())
    config = ServiceConfig(
        socket_path=str(tmp_path / "svc.sock"),
        cache_dir=str(tmp_path / "cache"),
        **overrides,
    )
    return AnalysisService(config, clock=clock), clock


def drain_frames(conn):
    frames = []
    while True:
        try:
            frames.append(conn.queue.get_nowait())
        except asyncio.QueueEmpty:
            return frames


def submit_frame(job_id, **fields):
    frame = {
        "op": "submit",
        "id": job_id,
        "benchmark": "plot",
        "scale": SCALE,
    }
    frame.update(fields)
    return frame


def test_service_config_validation(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        ServiceConfig(socket_path="s", cache_dir="c", workers=0)
    with pytest.raises(ValueError, match="checkpoint_every"):
        ServiceConfig(socket_path="s", cache_dir="c", checkpoint_every=0)
    with pytest.raises(ValueError, match="retries"):
        ServiceConfig(socket_path="s", cache_dir="c", retries=-1)
    with pytest.raises(ValueError, match="quota_burst"):
        ServiceConfig(
            socket_path="s", cache_dir="c", quota_rate=1.0, quota_burst=0.5,
        )
    with pytest.raises(ValueError, match="quota_rate"):
        ServiceConfig(socket_path="s", cache_dir="c", quota_rate=float("nan"))


@pytest.mark.parametrize(
    "deadline",
    [-1.0, 0, 0.0, float("nan"), float("inf"), True, "soon"],
    ids=["negative", "zero-int", "zero", "nan", "inf", "bool", "string"],
)
def test_service_config_rejects_bad_default_deadline(deadline):
    """A default deadline that would reject every deadline-less submit
    is refused when the daemon is configured, not on each submit."""
    with pytest.raises(ValueError, match="default_deadline_s"):
        ServiceConfig(
            socket_path="s", cache_dir="c", default_deadline_s=deadline
        )


@pytest.mark.parametrize("deadline", [None, 0.5, 30])
def test_service_config_accepts_a_usable_default_deadline(deadline):
    config = ServiceConfig(
        socket_path="s", cache_dir="c", default_deadline_s=deadline
    )
    assert config.default_deadline_s == deadline


def test_submit_admits_journals_and_acks(tmp_path):
    from repro.service.app import Connection

    service, _ = make_service(tmp_path)
    conn = Connection()
    service._dispatch(submit_frame("job-1"), conn)
    (ack,) = drain_frames(conn)
    assert ack["type"] == "accepted"
    assert ack["id"] == "job-1"
    assert ack["dedup"] is False
    assert len(ack["digest"]) == 64
    assert service.admission.depth() == 1
    (record,) = service.journal.read()[0]
    assert record["kind"] == "submitted"
    assert record["job"] == "job-1"


def test_submit_overload_is_shed_with_typed_rejection(tmp_path):
    from repro.service.app import Connection

    service, _ = make_service(tmp_path, queue_limit=2)
    conn = Connection()
    for index in range(3):
        # distinct scales, so the submits cannot dedupe onto one digest
        service._dispatch(
            submit_frame(f"job-{index}", scale=SCALE * (index + 1)),
            conn,
        )
    frames = drain_frames(conn)
    assert [f["type"] for f in frames] == [
        "accepted", "accepted", "rejected",
    ]
    assert frames[2]["error"]["code"] == "service_overloaded"
    assert frames[2]["error"]["queue_limit"] == 2
    # the shed job left no trace: no journal record, no job entry
    assert len(service.journal.read()[0]) == 2
    assert "job-2" not in service.jobs


def test_submit_dedupes_in_flight_digest(tmp_path):
    from repro.service.app import Connection

    service, _ = make_service(tmp_path)
    conn = Connection()
    service._dispatch(submit_frame("job-1"), conn)
    service._dispatch(submit_frame("job-2"), conn)
    first, second = drain_frames(conn)
    assert first["dedup"] is False
    assert second["dedup"] is True
    assert second["primary"] == "job-1"
    assert second["digest"] == first["digest"]
    assert service.counters["deduped"] == 1
    # only the primary occupies the queue; the dedup attached as waiter
    assert service.admission.depth() == 1
    primary = service.jobs["job-1"]
    assert [client_id for _, client_id in primary.waiters] == [
        "job-1", "job-2",
    ]
    # a different backend changes the digest: no dedupe across backends
    service._dispatch(
        submit_frame("job-3", backend="superblock"), conn
    )
    (third,) = drain_frames(conn)
    assert third["dedup"] is False
    assert third["digest"] != first["digest"]


def test_submit_quota_rejection_names_retry_after(tmp_path):
    from repro.service.app import Connection

    service, clock = make_service(
        tmp_path, quota_rate=1.0, quota_burst=1.0
    )
    conn = Connection()
    service._dispatch(submit_frame("job-1", tenant="t0"), conn)
    service._dispatch(submit_frame("job-2", tenant="t0"), conn)
    # another tenant's bucket is unaffected
    service._dispatch(submit_frame("job-3", tenant="t1"), conn)
    frames = drain_frames(conn)
    assert [f["type"] for f in frames] == [
        "accepted", "rejected", "accepted",
    ]
    assert frames[1]["error"]["code"] == "quota_exceeded"
    assert frames[1]["error"]["retry_after_s"] == pytest.approx(1.0)
    clock.advance(1.0)
    service._dispatch(submit_frame("job-4", tenant="t0"), conn)
    (retry,) = drain_frames(conn)
    assert retry["type"] == "accepted"


def test_submit_rejects_unknown_benchmark_and_predictor(tmp_path):
    from repro.service.app import Connection

    service, _ = make_service(tmp_path)
    conn = Connection()
    service._dispatch(submit_frame("job-1", benchmark="no-such"), conn)
    service._dispatch(
        submit_frame("job-2", predictors=["perceptron"]), conn
    )
    bad_bench, bad_pred = drain_frames(conn)
    assert bad_bench["type"] == "rejected"
    assert "no-such" in bad_bench["error"]["message"]
    assert bad_pred["type"] == "rejected"
    assert "perceptron" in bad_pred["error"]["message"]
    assert service.admission.depth() == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale", "abc"),
        ("scale", 0),
        ("scale", float("nan")),
        ("trace_limit", "x"),
        ("trace_limit", -1),
        ("trace_limit", 1.5),
        ("backend", "nope"),
        ("deadline_s", "soon"),
        ("deadline_s", 0),
        ("predictors", "bimodal"),
        ("predictors", [1]),
        ("trace_limit", 500),
    ],
)
def test_submit_rejects_malformed_fields(tmp_path, field, value):
    """Every submit field is checked before admission: a typed
    rejection naming the field, no ack, nothing journaled."""
    from repro.service.app import Connection

    service, _ = make_service(tmp_path)
    conn = Connection()
    service._dispatch(submit_frame("job-1", **{field: value}), conn)
    (frame,) = drain_frames(conn)
    assert frame["type"] == "rejected"
    assert frame["id"] == "job-1"
    assert frame["error"]["field"] == field
    assert repr(field) in frame["error"]["message"]
    assert service.admission.depth() == 0
    assert service.journal.read() == ([], [])


def test_submit_rejects_duplicate_live_job_id(tmp_path):
    from repro.service.app import Connection

    service, _ = make_service(tmp_path)
    conn = Connection()
    service._dispatch(submit_frame("job-1"), conn)
    service._dispatch(submit_frame("job-1", scale=2 * SCALE), conn)
    _, duplicate = drain_frames(conn)
    assert duplicate["type"] == "rejected"
    assert "already in flight" in duplicate["error"]["message"]


def test_unknown_op_gets_typed_rejection(tmp_path):
    from repro.service.app import Connection

    service, _ = make_service(tmp_path)
    conn = Connection()
    service._dispatch({"op": "frobnicate"}, conn)
    (frame,) = drain_frames(conn)
    assert frame["type"] == "rejected"
    assert "frobnicate" in frame["error"]["message"]


def test_queued_deadline_expiry_cancels_without_launching(tmp_path):
    from repro.service.app import Connection

    service, clock = make_service(tmp_path)
    conn = Connection()
    service._dispatch(submit_frame("job-1", deadline_s=1.0), conn)
    drain_frames(conn)
    clock.advance(2.0)
    service._expire_queued(clock())
    (frame,) = drain_frames(conn)
    assert frame["type"] == "cancelled"
    assert frame["error"]["code"] == "job_cancelled"
    assert "deadline" in frame["error"]["message"]
    # the cancellation is terminal in the journal: no orphan to resume
    assert service.journal.orphans() == []
    done = service.journal.read()[0][-1]
    assert done == {
        "kind": "done",
        "job": "job-1",
        "status": "cancelled",
        "error": done["error"],
        "v": done["v"],
    }


def test_cold_submit_hands_its_build_to_the_worker(tmp_path, monkeypatch):
    """The build a never-seen submit needs for its digest rides into
    the worker's payload, and the daemon drops it at launch."""
    from repro.service import app
    from repro.service.app import Connection

    handed = []

    class RecordingHandle:
        def __init__(self, spec, cache_root, checkpoint_every=None,
                     timeout=None, built=None):
            handed.append(built)

    monkeypatch.setattr(app, "WorkerHandle", RecordingHandle)
    service, clock = make_service(tmp_path)
    service._dispatch(submit_frame("job-1"), Connection())
    job = service.jobs["job-1"]
    built = job.built
    assert built is not None and built.spec.name == "plot"
    service._launch(clock())
    assert handed == [built]
    assert job.built is None  # the queue, not the daemon, holds builds

    # a second daemon digests the same spec through the memo: no build
    other, _ = make_service(tmp_path)
    other._dispatch(submit_frame("job-2"), Connection())
    assert other.jobs["job-2"].built is None


def test_execute_job_simulates_the_given_build(tmp_path, monkeypatch):
    from collections import OrderedDict

    from repro.eval import worker
    from repro.sim import compile as compile_mod

    # compile as a fresh worker process would, with no in-memory tables
    monkeypatch.setattr(compile_mod, "_code_cache", OrderedDict())
    spec = JobSpec(name="plot", scale=SCALE, backend="superblock")
    cache = str(tmp_path / "cache")
    built = []
    compute_job_digest(spec, cache, on_build=built.append)
    assert len(built) == 1

    def no_second_build(*args, **kwargs):
        raise AssertionError("the job was built twice")

    monkeypatch.setattr(worker, "build_workload", no_second_build)
    result = worker._execute_job((spec, cache, False, None, built[0]))
    assert result.source == "simulated"
    # the superblock code it compiled is kept for later jobs
    assert list((tmp_path / "cache" / worker.CODE_SUBDIR).glob("*.pack"))


def test_launch_cancels_already_expired_job(tmp_path):
    from repro.service.app import Connection

    service, clock = make_service(tmp_path)
    conn = Connection()
    service._dispatch(submit_frame("job-1", deadline_s=0.5), conn)
    drain_frames(conn)
    clock.advance(1.0)
    service._launch(clock())  # must cancel, never start a dead worker
    (frame,) = drain_frames(conn)
    assert frame["type"] == "cancelled"
    assert not service.running


def test_recover_reenqueues_journal_orphans(tmp_path):
    service, _ = make_service(tmp_path)
    job_done = make_job("job-done")
    job_lost = make_job(
        "job-lost", digest="e" * 64, predictors=("gshare:10",)
    )
    service.journal.record_submitted(job_done)
    service.journal.record_done("job-done", "completed")
    service.journal.record_submitted(job_lost)
    recovered, _ = make_service(tmp_path)
    recovered._recover()
    assert recovered.counters["recovered"] == 1
    assert recovered.admission.depth() == 1
    job = recovered.jobs["job-lost"]
    assert job.recovered is True
    assert job.waiters == []  # its client died with the old daemon
    assert job.deadline_s is None
    assert job.predictors == ("gshare:10",)
    # the digest is recomputed from the current sources, not trusted
    # from the record, so the job dedupes with a fresh submit
    assert job.digest == compute_job_digest(job.spec, str(tmp_path / "cache"))
    assert job.stem == recovered.store.stem(job.spec, job.digest)
    assert recovered.inflight[job.stem] is job


def test_recover_skips_unknown_benchmarks(tmp_path):
    service, _ = make_service(tmp_path)
    service.journal.append(
        {"kind": "submitted", "job": "job-x", "benchmark": "retired",
         "scale": 1.0, "trace_limit": None, "backend": "interp",
         "digest": "f" * 64, "predictors": []}
    )
    recovered, _ = make_service(tmp_path)
    recovered._recover()
    assert recovered.counters["recovered"] == 0
    assert recovered.admission.depth() == 0


def test_recover_skips_orphans_with_a_capture_limit(tmp_path):
    """An older daemon's capped job is never resumed as a full one; a
    record with a null limit (as older daemons wrote them) still is."""
    service, _ = make_service(tmp_path)
    for job_id, limit in (("job-capped", 500), ("job-full", None)):
        service.journal.append(
            {"kind": "submitted", "job": job_id, "benchmark": "plot",
             "scale": SCALE, "trace_limit": limit, "backend": "interp",
             "digest": "f" * 64, "predictors": []}
        )
    recovered, _ = make_service(tmp_path)
    recovered._recover()
    assert recovered.counters["recovered"] == 1
    assert list(recovered.jobs) == ["job-full"]


def test_stats_frame_shape_and_cache_hit_ratio(tmp_path):
    service, _ = make_service(tmp_path)
    service.counters["simulated"] = 1
    service.counters["store_hits"] = 2
    service.counters["deduped"] = 1
    frame = service.stats_frame()
    assert frame["type"] == "stats"
    assert frame["schema_version"] == SCHEMA_VERSION
    assert frame["cache_hit_ratio"] == pytest.approx(3 / 4)
    assert frame["admission"]["queue_limit"] == 16
    assert frame["store"] == {"corrupt_events": 0, "claim_waits": 0}
    assert decode_frame(encode_frame(frame)) == frame


# -- loadgen report shape ----------------------------------------------------


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert _percentile([], 0.5) == 0.0
    assert _percentile(values, 0.50) == 2.0
    assert _percentile(values, 0.99) == 4.0
    assert _percentile([7.5], 0.99) == 7.5


def test_loadgen_config_validation():
    with pytest.raises(ValueError, match="rate"):
        LoadgenConfig(socket_path="s", rate=0.0)
    with pytest.raises(ValueError, match="jobs"):
        LoadgenConfig(socket_path="s", jobs=0)
    with pytest.raises(ValueError, match="benchmark"):
        LoadgenConfig(socket_path="s", benchmarks=())


def test_summarize_classifies_outcomes():
    config = LoadgenConfig(socket_path="s", rate=5.0, jobs=4)
    records = [
        RequestOutcome(0, "plot", "t0", outcome="completed",
                       latency_s=1.0),
        RequestOutcome(1, "plot", "t0", outcome="completed",
                       latency_s=3.0),
        RequestOutcome(2, "plot", "t1", outcome="rejected",
                       error_code="service_overloaded"),
        RequestOutcome(3, "plot", "t1", outcome="dropped"),
    ]
    stats = {"jobs": {"completed": 3}, "cache_hit_ratio": 0.5,
             "admission": {"shed": 1}, "tenants": {}}
    report = summarize(records, 2.0, stats, config)
    assert report["completed"] == 2
    assert report["rejected"] == 1
    assert report["rejected_overloaded"] == 1
    assert report["dropped"] == 1
    assert report["jobs_per_sec"] == pytest.approx(1.0)
    assert report["latency_p50_s"] == pytest.approx(1.0)
    assert report["latency_p99_s"] == pytest.approx(3.0)
    assert report["shed_rate"] == pytest.approx(0.25)
    assert report["cache_hit_ratio"] == 0.5
    assert report["service"]["admission"] == {"shed": 1}
    assert json.loads(json.dumps(report)) == report  # JSON-ready


# -- the real daemon over a unix socket --------------------------------------


def short_socket_dir():
    """Unix socket paths are capped (~108 bytes); stay under /tmp."""
    return Path(tempfile.mkdtemp(prefix="repro-svc-", dir="/tmp"))


async def boot_service(config):
    service = AnalysisService(config)
    task = asyncio.create_task(service.run())
    for _ in range(1000):
        if task.done():
            task.result()  # surface a boot failure instead of hanging
        if os.path.exists(config.socket_path):
            return service, task
        await asyncio.sleep(0.01)
    raise AssertionError("daemon socket never appeared")


async def drain_service(task):
    interrupt.request_drain()
    assert await asyncio.wait_for(task, timeout=120) == 0


async def collect_until(reader, done, frames=None, timeout=120.0):
    """Read frames until ``done(frame)``; returns everything read."""
    frames = [] if frames is None else frames
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"timed out waiting on frames: {frames}"
        frame = await asyncio.wait_for(read_frame(reader), remaining)
        assert frame is not None, f"daemon hung up early: {frames}"
        frames.append(frame)
        if done(frame):
            return frames


def terminal_for(job_id):
    return lambda frame: (
        frame.get("id") == job_id
        and frame.get("type") in
        ("completed", "failed", "cancelled", "interrupted", "rejected")
    )


def test_daemon_end_to_end_dedupe_and_store_hit():
    """Boot the real daemon twice on one cache: ping, submit with a
    predictor bank, dedupe a concurrent identical submit, then restart
    and watch the same submit come back as a store hit."""
    root = short_socket_dir()
    config = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=2,
        checkpoint_every=2000,
    )
    submit = {
        "op": "submit",
        "tenant": "t0",
        "benchmark": "plot",
        "scale": SCALE,
        "predictors": ["bimodal:512", "always_taken"],
    }

    async def first_run():
        service, task = await boot_service(config)
        try:
            reader, writer = await asyncio.open_unix_connection(
                config.socket_path
            )
            writer.write(encode_frame({"op": "ping"}))
            writer.write(encode_frame(dict(submit, id="job-a")))
            writer.write(encode_frame(dict(submit, id="job-b")))
            await writer.drain()
            frames = await collect_until(reader, terminal_for("job-a"))
            frames = await collect_until(
                reader, terminal_for("job-b"), frames
            )
            writer.write(encode_frame({"op": "stats"}))
            await writer.drain()
            frames = await collect_until(
                reader, lambda f: f.get("type") == "stats", frames
            )
            writer.close()
            return frames
        finally:
            await drain_service(task)

    frames = asyncio.run(first_run())
    by_type = {}
    for frame in frames:
        by_type.setdefault(frame["type"], []).append(frame)
    assert len(by_type["pong"]) == 1
    acks = {f["id"]: f for f in by_type["accepted"]}
    dedups = sorted(f["dedup"] for f in acks.values())
    assert dedups == [False, True]
    done = {f["id"]: f for f in by_type["completed"]}
    assert set(done) == {"job-a", "job-b"}
    primary = done["job-a"] if acks["job-b"]["dedup"] else done["job-b"]
    assert primary["source"] in ("simulated", "resimulated")
    # both waiters got identical results for the one simulation
    assert done["job-a"]["digest"] == done["job-b"]["digest"]
    assert done["job-a"]["predictions"] == done["job-b"]["predictions"]
    bank = done["job-a"]["predictions"]
    assert set(bank) == {"bimodal:512", "always_taken"}
    for result in bank.values():
        assert result["branches"] > 0
        assert 0.0 <= result["misprediction_rate"] <= 1.0
    assert done["job-a"]["pipeline"]["events"] > 0
    (stats,) = by_type["stats"]
    assert stats["jobs"]["simulated"] == 1
    assert stats["jobs"]["deduped"] == 1
    # one *job* completed (the dedup attached as a second waiter)
    assert stats["jobs"]["completed"] == 1
    assert stats["cache_hit_ratio"] == pytest.approx(0.5)

    async def second_run():
        service, task = await boot_service(config)
        try:
            reader, writer = await asyncio.open_unix_connection(
                config.socket_path
            )
            writer.write(encode_frame(dict(submit, id="job-c")))
            await writer.drain()
            frames = await collect_until(reader, terminal_for("job-c"))
            writer.close()
            return frames, service.counters["recovered"]
        finally:
            await drain_service(task)

    frames, recovered = asyncio.run(second_run())
    assert recovered == 0  # the first daemon drained cleanly
    hit = frames[-1]
    assert hit["type"] == "completed"
    assert hit["source"] == "store"
    assert hit["digest"] == done["job-a"]["digest"]
    assert set(hit["predictions"]) == {"bimodal:512", "always_taken"}

    # the socket was removed on shutdown; the journal shows a clean
    # lifecycle (every submitted job has a terminal done record)
    assert not os.path.exists(config.socket_path)
    journal = ServiceJournal(
        Path(config.cache_dir) / "service"
    )
    assert journal.orphans() == []


class CountingHandle:
    """Stands in for the daemon's ``WorkerHandle``; counts spawns."""

    spawned = 0

    def __new__(cls, *args, **kwargs):
        from repro.eval.worker import WorkerHandle

        CountingHandle.spawned += 1
        return WorkerHandle(*args, **kwargs)


def _submit_twice(config, between):
    """Submit one job, call ``between(service, frame)`` with its
    terminal frame, submit it again; returns both terminal frames and
    the spawns the second one made."""
    submit = {
        "op": "submit", "tenant": "t0", "benchmark": "plot",
        "scale": SCALE, "predictors": ["bimodal:512", "gshare:10"],
    }

    async def scenario():
        service, task = await boot_service(config)
        try:
            reader, writer = await asyncio.open_unix_connection(
                config.socket_path
            )
            writer.write(encode_frame(dict(submit, id="job-cold")))
            await writer.drain()
            cold = (await collect_until(reader, terminal_for("job-cold")))[-1]
            between(service, cold)
            CountingHandle.spawned = 0
            writer.write(encode_frame(dict(submit, id="job-again")))
            await writer.drain()
            again = (await collect_until(
                reader, terminal_for("job-again")
            ))[-1]
            writer.close()
            return cold, again, CountingHandle.spawned
        finally:
            await drain_service(task)

    return asyncio.run(scenario())


def test_daemon_hot_resubmit_spawns_no_worker(monkeypatch):
    """A stored job is served in the daemon: no worker, the predictions
    a simulation gives, and the job's stale checkpoint dropped."""
    from repro.service import app

    monkeypatch.setattr(app, "WorkerHandle", CountingHandle)
    root = short_socket_dir()
    config = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=1,
        checkpoint_every=2000,
    )
    stale = []

    def plant_stale_checkpoint(service, cold):
        job_stem = service.store.stem(
            JobSpec(name="plot", scale=SCALE), cold["digest"]
        )
        path = service.checkpoints.path(job_stem, 1)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"stale")
        stale.append(path)

    cold, again, spawned = _submit_twice(config, plant_stale_checkpoint)
    assert cold["type"] == again["type"] == "completed"
    assert cold["source"] == "simulated" and again["source"] == "store"
    assert spawned == 0
    assert again["digest"] == cold["digest"]
    assert again["predictions"] == cold["predictions"]
    assert not stale[0].exists()


def test_daemon_hot_resubmit_reads_stored_predictions(monkeypatch):
    """The first response records its predictors beside the entry; a
    hot resubmit verifies the entry and reads those records: no load,
    no replay, the same predictions."""
    from repro.pipeline.bus import BranchEventBus
    from repro.service import app

    monkeypatch.setattr(app, "WorkerHandle", CountingHandle)
    root = short_socket_dir()
    config = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=1,
        checkpoint_every=2000,
    )
    calls = []

    def count_calls(service, cold):
        for name in ("verify", "load"):
            real = getattr(service.store, name)

            def counted(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            setattr(service.store, name, counted)
        real_replay = BranchEventBus.replay.__func__

        def replay(cls, *args, **kwargs):
            calls.append("replay")
            return real_replay(cls, *args, **kwargs)

        monkeypatch.setattr(BranchEventBus, "replay", classmethod(replay))

    cold, again, spawned = _submit_twice(config, count_calls)
    assert again["type"] == "completed" and again["source"] == "store"
    assert spawned == 0
    assert calls == ["verify"]
    assert again["predictions"] == cold["predictions"]


def test_daemon_vanished_entry_falls_back_to_a_worker(monkeypatch):
    """An entry that disappears between the store check and the load is
    requeued for a worker, which simulates it again; the job never
    fails."""
    from repro.service import app

    monkeypatch.setattr(app, "WorkerHandle", CountingHandle)
    root = short_socket_dir()
    config = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=1,
        retries=0,
        checkpoint_every=2000,
    )

    def vanish(service, cold):
        entry = list(Path(config.cache_dir).glob("plot-*"))
        assert len(entry) == 2
        for path in entry:
            path.unlink()
        # a stale positive: the files are gone when the load runs
        service.store.contains = lambda spec, digest: True

    cold, again, spawned = _submit_twice(config, vanish)
    assert again["type"] == "completed"
    assert again["source"] == "simulated"
    assert again["attempts"] == 1  # the failed serve cost no retry
    assert spawned == 1
    assert again["predictions"] == cold["predictions"]

    # the entry vanishes after a worker reported ok: the daemon finds it
    # gone when it replays the predictors, and a second worker runs it
    root = short_socket_dir()
    after_ok = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=1,
        retries=0,
        checkpoint_every=2000,
    )

    def vanish_after_ok(service, cold):
        def unlink_entry():
            for path in Path(after_ok.cache_dir).glob("plot-*"):
                path.unlink()

        unlink_entry()  # the resubmit needs a worker
        real_load = service.store.load
        loads = []

        def load(spec, digest):
            loads.append(digest)
            if len(loads) == 1:
                unlink_entry()
            return real_load(spec, digest)

        service.store.load = load

    cold, again, spawned = _submit_twice(after_ok, vanish_after_ok)
    assert again["type"] == "completed"
    assert again["source"] == "simulated"
    assert again["attempts"] == 1
    assert spawned == 2
    assert again["digest"] == cold["digest"]
    assert again["predictions"] == cold["predictions"]


def test_daemon_entry_corrupted_on_every_put_fails_the_job(monkeypatch):
    """Every worker's stored trace is corrupted, so each load after an
    ``ok`` quarantines the entry.  The first loss is a free requeue;
    every later one is a failed attempt, and the job ends ``failed``
    after ``retries + 1`` attempts instead of looping on workers."""
    from repro.service import app

    monkeypatch.setattr(app, "WorkerHandle", CountingHandle)
    monkeypatch.setenv("REPRO_FAULTS", "corrupt_trace:plot")
    CountingHandle.spawned = 0
    root = short_socket_dir()
    config = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=1,
        retries=1,
        checkpoint_every=2000,
    )
    submit = {
        "op": "submit", "id": "job-bad", "tenant": "t0",
        "benchmark": "plot", "scale": SCALE, "predictors": ["bimodal:512"],
    }

    async def scenario():
        service, task = await boot_service(config)
        try:
            reader, writer = await asyncio.open_unix_connection(
                config.socket_path
            )
            writer.write(encode_frame(submit))
            await writer.drain()
            frames = await collect_until(reader, terminal_for("job-bad"))
            writer.close()
            return frames[-1], dict(service.counters)
        finally:
            await drain_service(task)

    final, counters = asyncio.run(scenario())
    assert final["type"] == "failed"
    assert final["error"]["code"] == "artifact_corrupt"
    assert final["error"]["attempts"] == config.retries + 1
    assert CountingHandle.spawned == config.retries + 2  # one free requeue
    assert counters["retries"] == config.retries
    assert counters["simulated"] == counters["completed"] == 0


def test_recovered_orphan_replays_predictors_from_the_stored_digest(
    monkeypatch,
):
    """An orphan's journaled digest can be stale (the sources changed
    between daemon runs).  The recovered job must replay its predictors
    from the entry its worker actually stored, and complete with the
    predictions a fresh submit of the same spec gets."""
    root = short_socket_dir()
    config = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=1,
        checkpoint_every=2000,
    )
    journal = ServiceJournal(Path(config.cache_dir) / "service")
    journal.append(
        {"kind": "submitted", "job": "job-orphan", "tenant": "t0",
         "benchmark": "plot", "scale": SCALE, "trace_limit": None,
         "backend": "interp", "digest": "0" * 64,
         "predictors": ["bimodal"]}
    )
    predictions = {}
    real_complete = AnalysisService._complete

    def spy(self, job, result, bank, now):
        predictions[job.id] = bank
        real_complete(self, job, result, bank, now)

    monkeypatch.setattr(AnalysisService, "_complete", spy)

    async def scenario():
        service, task = await boot_service(config)
        try:
            deadline = time.monotonic() + 120
            while "job-orphan" in service.jobs:
                assert time.monotonic() < deadline, "orphan never finished"
                await asyncio.sleep(0.05)
            reader, writer = await asyncio.open_unix_connection(
                config.socket_path
            )
            writer.write(encode_frame({
                "op": "submit", "id": "job-fresh", "tenant": "t0",
                "benchmark": "plot", "scale": SCALE,
                "predictors": ["bimodal"],
            }))
            await writer.drain()
            frames = await collect_until(reader, terminal_for("job-fresh"))
            writer.close()
            return frames
        finally:
            await drain_service(task)

    fresh = asyncio.run(scenario())[-1]
    assert fresh["type"] == "completed"
    assert fresh["source"] == "store"  # the recovered job stored it
    (orphan_done,) = [
        r for r in journal.read()[0]
        if r.get("kind") == "done" and r["job"] == "job-orphan"
    ]
    assert orphan_done["status"] == "completed"
    assert orphan_done["digest"] == fresh["digest"]
    assert predictions["job-orphan"] == fresh["predictions"]
    assert journal.orphans() == []


def test_daemon_deadline_cancels_running_job():
    """A running job whose deadline expires is cancelled through the
    worker-timeout path: SIGTERM, checkpoint on the way down, a typed
    ``cancelled`` frame — and the daemon stays healthy afterwards."""
    root = short_socket_dir()
    config = ServiceConfig(
        socket_path=str(root / "svc.sock"),
        cache_dir=str(root / "cache"),
        workers=1,
        retries=0,
        checkpoint_every=500,
    )

    async def scenario():
        service, task = await boot_service(config)
        try:
            reader, writer = await asyncio.open_unix_connection(
                config.socket_path
            )
            writer.write(encode_frame({
                "op": "submit",
                "id": "job-slow",
                "benchmark": "plot",
                "scale": 1.0,
                "deadline_s": 0.3,
            }))
            await writer.drain()
            frames = await collect_until(
                reader, terminal_for("job-slow")
            )
            # the daemon is still serving after the cancellation
            writer.write(encode_frame({"op": "ping"}))
            await writer.drain()
            frames = await collect_until(
                reader, lambda f: f.get("type") == "pong", frames
            )
            writer.close()
            return frames
        finally:
            await drain_service(task)

    frames = asyncio.run(scenario())
    cancelled = next(f for f in frames if f["type"] == "cancelled")
    assert cancelled["id"] == "job-slow"
    assert cancelled["error"]["code"] == "job_cancelled"
    assert "deadline" in cancelled["error"]["message"]
    journal = ServiceJournal(Path(config.cache_dir) / "service")
    done = [r for r in journal.read()[0] if r.get("kind") == "done"]
    assert done[-1]["status"] == "cancelled"
    assert journal.orphans() == []  # cancellation is terminal
