"""Crash-safe shard supervisor: leases, classification, recovery, drain.

The supervisor's promise is that worker death is an *operational* event,
never a correctness event: kill any worker anywhere and the merged store
is byte-identical to an unsharded run (the digests never see shard
identity; what the store does not hold for the current sources is what
the restarted worker has left).
The units pin the decision logic — the pid-probe-before-lease-age
ordering in ``classify_worker``, the capped exponential in
``restart_delay``, the fsynced throttled lease writes — and the
end-to-end tests inject real SIGKILLs, hangs and stalls through
``REPRO_FAULTS`` and assert recovery, reassignment and honest drains.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.checkpoint.journal import RunJournal
from repro.errors import ShardRestartsExhausted
from repro.eval import interrupt
from repro.eval.digest import JobSpec, compute_job_digest
from repro.eval.store import ArtifactStore
from repro.eval.faults import FaultPlan
from repro.eval.shards import measured_costs, partition_selection
from repro.eval.supervisor import (
    LEASE_TIMEOUT_SECONDS,
    RESTART_DELAY_CAP,
    LeaseWriter,
    ShardSupervisor,
    classify_worker,
    read_lease,
    restart_delay,
)

SCALE = 0.02
SMOKE = ("plot", "compress", "pgp")


# -- restart backoff --------------------------------------------------------


def test_restart_delay_doubles_from_the_base():
    assert restart_delay(0.25, 1) == 0.25
    assert restart_delay(0.25, 2) == 0.5
    assert restart_delay(0.25, 3) == 1.0
    assert restart_delay(0.25, 4) == 2.0


def test_restart_delay_is_capped():
    assert restart_delay(1.0, 50) == RESTART_DELAY_CAP
    assert restart_delay(0.25, 1000, cap=2.0) == 2.0
    # the cap also clamps an oversized base
    assert restart_delay(100.0, 1, cap=3.0) == 3.0


def test_restart_delay_zeroth_restart_is_immediate():
    assert restart_delay(0.25, 0) == 0.0
    assert restart_delay(0.25, -1) == 0.0


# -- worker classification --------------------------------------------------


def test_dead_process_beats_a_fresh_lease():
    """The pid probe is checked first: a gone process is dead even if
    its lease file (which survives the writer) looks brand new."""
    assert classify_worker(False, 0.0, LEASE_TIMEOUT_SECONDS) == "dead"


def test_dead_process_beats_an_expired_lease():
    assert classify_worker(False, 1e9, LEASE_TIMEOUT_SECONDS) == "dead"


def test_live_process_with_expired_lease_is_a_straggler():
    assert classify_worker(True, 10.1, 10.0) == "straggler"


def test_live_process_with_fresh_lease_is_healthy():
    """Slow-but-heartbeating is healthy: never killed on age alone."""
    assert classify_worker(True, 9.9, 10.0) == "healthy"
    assert classify_worker(True, 0.0, 10.0) == "healthy"


# -- heartbeat leases -------------------------------------------------------


def test_lease_beat_writes_readable_payload(tmp_path):
    lease = LeaseWriter(tmp_path, slot=3, interval=0.0)
    lease.beat(benchmark="plot", events=1234)
    payload = read_lease(lease.path)
    assert payload is not None
    assert payload["slot"] == 3
    assert payload["benchmark"] == "plot"
    assert payload["events"] == 1234
    assert payload["pid"] > 0


def test_lease_beats_are_throttled_but_forceable(tmp_path):
    lease = LeaseWriter(tmp_path, slot=1, interval=3600.0)
    lease.beat(benchmark="a", events=1, force=True)
    lease.beat(benchmark="b", events=2)  # inside the interval: dropped
    assert read_lease(lease.path)["benchmark"] == "a"
    lease.beat(benchmark="c", events=3, force=True)
    assert read_lease(lease.path)["benchmark"] == "c"


def test_stalled_lease_never_writes(tmp_path):
    lease = LeaseWriter(tmp_path, slot=2, interval=0.0, stalled=True)
    lease.beat(benchmark="plot", events=1, force=True)
    assert not lease.path.exists()


def test_read_lease_tolerates_missing_and_torn(tmp_path):
    assert read_lease(tmp_path / "absent.json") is None
    torn = tmp_path / "torn.json"
    torn.write_text('{"pid": 12')
    assert read_lease(torn) is None
    foreign = tmp_path / "foreign.json"
    foreign.write_text('[1, 2]')
    assert read_lease(foreign) is None


# -- shard fault plan parsing -----------------------------------------------


def test_compact_shard_faults_parse():
    plan = FaultPlan.from_compact("shard_kill:1@5000,lease_stall:2")
    assert plan.shard_kill == {"1": 5000}
    assert plan.lease_stall == (2,)
    hang = FaultPlan.from_compact("shard_hang:3")
    assert hang.shard_hang == (3,)


def test_shard_fault_plan_json_roundtrip():
    plan = FaultPlan(shard_kill={"2": 7000}, shard_hang=(1,))
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.shard_kill == {"2": 7000}
    assert clone.shard_hang == (1,)


# -- learned cost model -----------------------------------------------------


def _record(journal, benchmark, seconds, source="simulated"):
    journal.record_completed(
        benchmark, "ab" * 32, SCALE,
        backend="interp", source=source, seconds=seconds,
    )


def test_measured_costs_takes_the_median_of_recent_runs(tmp_path):
    journal = RunJournal(tmp_path)
    for seconds in (1.0, 9.0, 2.0):
        _record(journal, "plot", seconds)
    costs = measured_costs(journal, SCALE, "interp")
    assert costs["plot"] == 2.0


def test_measured_costs_ignores_cache_hits(tmp_path):
    """Store/journal hits take milliseconds and say nothing about the
    benchmark's true cost; only real simulations train the model."""
    journal = RunJournal(tmp_path)
    _record(journal, "plot", 5.0)
    _record(journal, "plot", 0.001, source="store")
    _record(journal, "pgp", 0.002, source="journal")
    costs = measured_costs(journal, SCALE, "interp")
    assert costs["plot"] == 5.0
    assert "pgp" not in costs


def test_measured_costs_keys_on_run_parameters(tmp_path):
    journal = RunJournal(tmp_path)
    _record(journal, "plot", 5.0)
    assert measured_costs(journal, 0.5, "interp") == {}
    assert measured_costs(journal, SCALE, "superblock") == {}


def test_partition_follows_measured_costs():
    """A benchmark measured 100x heavier gets a bin to itself even when
    fuel estimates would have balanced the names differently."""
    names = ["plot", "compress", "pgp"]
    costs = {"plot": 100.0, "compress": 1.0, "pgp": 1.0}
    bins = partition_selection(names, 2, SCALE, costs=costs)
    assert ["plot"] in [sorted(b) for b in bins]
    assert sorted(n for b in bins for n in b) == sorted(names)


# -- end-to-end recovery ----------------------------------------------------


def _store_bytes(root):
    """Artifact filename -> bytes.  The journal (timestamps), lease
    state and checkpoints are operational, not results."""
    root = Path(root)
    return {
        p.name: p.read_bytes()
        for p in sorted(root.iterdir())
        if p.is_file() and p.name != "journal.jsonl"
    }


@pytest.fixture(scope="module")
def baseline_store(tmp_path_factory):
    """One unsharded smoke-set run to byte-compare every recovery
    scenario against."""
    root = tmp_path_factory.mktemp("baseline")
    assert main(
        ["experiment", "--set", "smoke", "--cache", str(root),
         "--scale", str(SCALE)]
    ) == 0
    return root


def _supervise(store, tmp, **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("checkpoint_every_events", 1_000)
    supervisor = ShardSupervisor(
        list(SMOKE), workers=2, store_root=store, **kwargs
    )
    return supervisor, supervisor.run()


@pytest.mark.slow
@pytest.mark.faults
def test_killed_shard_recovers_byte_identical(
    tmp_path, baseline_store
):
    """SIGKILL shard 1 mid-benchmark: the supervisor restarts it, the
    store census scopes the rerun, and the merged store is
    byte-identical to the unsharded baseline."""
    store = tmp_path / "store"
    plan = FaultPlan(
        shard_kill={"1": 4_000}, state_dir=str(tmp_path / "state")
    )
    (tmp_path / "state").mkdir()
    with plan.installed():
        supervisor, report = _supervise(store, tmp_path)
    assert report.remaining == []
    assert report.failed == {}
    assert not report.interrupted and not report.exhausted
    assert supervisor.stats.restarts >= 1
    assert len(report.shard_events) >= 1
    assert report.shard_events[0]["code"] == "shard_lost"
    assert _store_bytes(store) == _store_bytes(baseline_store)


@pytest.mark.slow
@pytest.mark.faults
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    slot=st.integers(min_value=1, max_value=2),
    events=st.sampled_from([500, 4_000, 12_000]),
)
def test_kill_any_worker_anywhere_is_byte_identical(
    tmp_path_factory, baseline_store, slot, events
):
    """The property behind the design: no (slot, kill point) produces a
    store that differs from the unsharded baseline by one byte."""
    tmp = tmp_path_factory.mktemp(f"kill-{slot}-{events}")
    store = tmp / "store"
    plan = FaultPlan(
        shard_kill={str(slot): events}, state_dir=str(tmp / "state")
    )
    (tmp / "state").mkdir()
    with plan.installed():
        _, report = _supervise(store, tmp)
    assert report.remaining == []
    assert _store_bytes(store) == _store_bytes(baseline_store)


@pytest.mark.slow
@pytest.mark.faults
def test_hung_shard_is_recycled_via_lease_expiry(
    tmp_path, baseline_store
):
    """A wedged-but-alive worker never crashes and never heartbeats
    past its entry; only the lease clock can catch it.  With no restart
    budget its work is reassigned to the surviving slot."""
    store = tmp_path / "store"
    plan = FaultPlan(shard_hang=(1,), hang_seconds=120.0)
    started = time.monotonic()
    with plan.installed():
        supervisor, report = _supervise(
            store, tmp_path, lease_timeout=1.5, max_restarts=0
        )
    assert time.monotonic() - started < 60.0  # not hang_seconds
    assert supervisor.stats.lease_expiries >= 1
    assert supervisor.stats.shards_lost >= 1
    assert report.remaining == []
    assert not report.exhausted
    assert _store_bytes(store) == _store_bytes(baseline_store)


@pytest.mark.slow
@pytest.mark.faults
def test_lease_stalled_worker_counts_as_straggler(tmp_path):
    """A lease_stall worker computes fine but never beats: the
    supervisor must recycle it (expiry) yet its completed work — journal
    and artifacts — survives into the final result."""
    store = tmp_path / "store"
    plan = FaultPlan(lease_stall=(1, 2))
    with plan.installed():
        supervisor, report = _supervise(
            store, tmp_path, lease_timeout=2.0
        )
    assert report.remaining == []
    assert report.failed == {}


@pytest.mark.slow
@pytest.mark.faults
def test_exhausted_restart_budget_is_an_honest_failure(tmp_path):
    """Kill the only slot more times than it may restart with no
    surviving slot to reassign to: the report says exhausted and names
    the lost benchmarks instead of pretending."""
    store = tmp_path / "store"
    # every incarnation of slot 1 dies at 500 events: marker files are
    # per-incarnation only for restarts, so re-arm by clearing state
    plan = FaultPlan(
        shard_kill={"1": 500, "2": 500},
        state_dir=str(tmp_path / "state"),
    )
    (tmp_path / "state").mkdir()

    class Rearm(threading.Thread):
        def __init__(self):
            super().__init__(daemon=True)
            self.stop = threading.Event()

        def run(self):
            while not self.stop.wait(0.05):
                for marker in (tmp_path / "state").glob("shard-kill-*"):
                    marker.unlink(missing_ok=True)

    rearm = Rearm()
    rearm.start()
    try:
        with plan.installed():
            supervisor = ShardSupervisor(
                list(SMOKE),
                workers=2,
                store_root=store,
                scale=SCALE,
                checkpoint_every_events=100,
                max_restarts=1,
                restart_backoff=0.05,
            )
            report = supervisor.run()
    finally:
        rearm.stop.set()
        rearm.join(timeout=5.0)
    assert report.exhausted
    assert report.lost  # the unfinished names are enumerated
    assert supervisor.stats.shards_lost == 2


@pytest.mark.slow
@pytest.mark.faults
def test_lost_entry_is_rerun_not_reported_complete(
    tmp_path, capsys, monkeypatch
):
    """Finished means stored.  plot runs once, its store entry is then
    deleted (the journal still records it as completed), and the rerun
    kills its only worker mid-simulation: the supervisor must see that
    plot has no entry, restart the worker and end with an entry that
    verifies for the current digest — not trust the journal."""
    store = tmp_path / "store"
    command = [
        "supervise", "--benchmarks", "plot", "--workers", "1",
        "--scale", "0.05", "--cache", str(store), "--json",
    ]
    assert main(command) == 0
    capsys.readouterr()
    entry = sorted(store.glob("plot-*.meta.json"))
    assert len(entry) == 1
    for path in store.glob("plot-*"):
        if path.name.endswith((".trace.npz", ".meta.json")):
            path.unlink()

    monkeypatch.setenv("REPRO_FAULTS", "shard_kill:1@1000")
    assert main(command) == 0
    document = json.loads(capsys.readouterr().out)
    results = document["results"]
    assert results["supervisor"]["restarts"] == 1
    (event,) = results["shard_events"]
    assert event["code"] == "shard_lost"
    assert event["benchmarks"] == ["plot"]
    assert results["completed"] == ["plot"]
    assert results["remaining"] == []
    assert results["merge"]["benchmarks"] == ["plot"]
    spec = JobSpec("plot", 0.05, None, document["params"]["backend"])
    assert ArtifactStore(store).verify(spec, compute_job_digest(spec))


# -- SIGTERM drain ----------------------------------------------------------


@pytest.mark.slow
@pytest.mark.faults
def test_drain_stops_cleanly_and_resume_completes(
    tmp_path, baseline_store
):
    """Drain mid-run: the report is honest (completed + remaining),
    completed work is merged and durable, and a rerun of the same
    supervisor finishes the suite byte-identically."""
    store = tmp_path / "store"
    # slow the first pass down enough to drain mid-flight
    plan = FaultPlan(shard_hang=(1,), hang_seconds=2.0)
    trigger = threading.Timer(0.5, interrupt.request_drain)
    trigger.start()
    try:
        with plan.installed():
            _, report = _supervise(store, tmp_path)
    finally:
        trigger.cancel()
        interrupt.reset_drain()
    assert report.interrupted
    assert sorted(report.completed + report.remaining) == sorted(SMOKE)
    # rerun (no faults, no drain): picks up exactly the remainder
    _, second = _supervise(store, tmp_path)
    assert second.remaining == []
    assert not second.interrupted
    assert _store_bytes(store) == _store_bytes(baseline_store)


# -- CLI --------------------------------------------------------------------


@pytest.mark.slow
def test_supervise_cli_emits_v9_envelope(tmp_path, capsys):
    store = tmp_path / "store"
    rc = main(
        ["supervise", "--set", "smoke", "--cache", str(store),
         "--workers", "2", "--scale", str(SCALE), "--json"]
    )
    assert rc == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == 15
    assert document["command"] == "supervise"
    assert document["params"]["workers"] == 2
    results = document["results"]
    assert sorted(results["completed"]) == sorted(SMOKE)
    assert results["remaining"] == []
    assert results["exhausted"] is False
    sup = results["supervisor"]
    assert sup["workers"] == 2
    assert sup["cost_model"] in ("fuel", "measured")
    assert results["merge"]["journal_skipped"] == 0


def test_supervise_cli_rejects_missing_selection(capsys, tmp_path):
    rc = main(["supervise", "--cache", str(tmp_path / "s")])
    assert rc == 2
    assert "select" in capsys.readouterr().err


def test_supervisor_rejects_bad_worker_counts(tmp_path):
    with pytest.raises(ValueError):
        ShardSupervisor(["plot"], workers=0, store_root=tmp_path)
    with pytest.raises(ValueError):
        ShardSupervisor(
            ["plot"], workers=1, store_root=tmp_path, max_restarts=-1
        )


@pytest.mark.parametrize(
    "bad",
    [{"retries": -1}, {"lease_timeout": 0.0}, {"lease_timeout": -1.0}],
    ids=["negative-retries", "zero-lease", "negative-lease"],
)
def test_supervisor_rejects_bad_retry_and_lease_settings(tmp_path, bad):
    """Settings that would fail every worker are rejected up front,
    not discovered as a burned restart budget."""
    with pytest.raises(ValueError, match=next(iter(bad))):
        ShardSupervisor(["plot"], workers=1, store_root=tmp_path, **bad)
