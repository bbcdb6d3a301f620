"""Advisory in-flight claims on the artifact store.

Two engines (or two daemon workers) that miss on the same digest must
not both simulate it.  ``try_claim`` arbitrates with ``O_CREAT|O_EXCL``
— the one filesystem primitive that is atomic across processes — so
under *any* interleaving exactly one writer wins; the loser
``wait_for_writer``\\ s for the winner's atomic publish.  Claims are
advisory: ``put`` stays atomic and idempotent, so a broken claim can
duplicate work but never corrupt results.

The two-writer race is property-tested with hypothesis across thread
counts and start orderings; the stale-claim paths (dead holder pid,
ancient mtime, unreadable content) are covered deterministically.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.digest import JobSpec
from repro.eval.store import ArtifactStore
from repro.eval.worker import _execute_job

SCALE = 0.05


def make_store(root) -> ArtifactStore:
    return ArtifactStore(Path(root) / "cache")


SPEC = JobSpec(name="plot", scale=SCALE)
DIGEST = "deadbeefcafef00d" * 4


# -- claim basics -----------------------------------------------------------


def test_claim_is_exclusive_until_released(tmp_path):
    store = make_store(tmp_path)
    assert store.try_claim(SPEC, DIGEST) is True
    assert store.try_claim(SPEC, DIGEST) is False
    assert store.claim_path(SPEC, DIGEST).exists()
    store.release_claim(SPEC, DIGEST)
    assert not store.claim_path(SPEC, DIGEST).exists()
    assert store.try_claim(SPEC, DIGEST) is True


def test_claim_file_records_holder_pid(tmp_path):
    store = make_store(tmp_path)
    assert store.try_claim(SPEC, DIGEST)
    payload = json.loads(store.claim_path(SPEC, DIGEST).read_bytes())
    assert payload["pid"] == os.getpid()
    assert payload["ts"] > 0


def test_release_claim_tolerates_missing_file(tmp_path):
    store = make_store(tmp_path)
    store.release_claim(SPEC, DIGEST)  # nothing claimed: must not raise


def test_distinct_digests_do_not_contend(tmp_path):
    store = make_store(tmp_path)
    other = "0123456789abcdef" * 4
    assert store.try_claim(SPEC, DIGEST)
    assert store.try_claim(SPEC, other)


# -- the two-writer race (property) -----------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    writers=st.integers(min_value=2, max_value=8),
    digest=st.text(alphabet="0123456789abcdef", min_size=16, max_size=64),
)
def test_exactly_one_writer_wins_the_claim(writers, digest):
    """N threads released simultaneously onto one digest: exactly one
    ``try_claim`` returns True, regardless of count or scheduling."""
    root = tempfile.mkdtemp(prefix="repro-claims-")
    store = make_store(root)
    barrier = threading.Barrier(writers)
    wins = []
    lock = threading.Lock()

    def contend():
        barrier.wait()
        won = store.try_claim(SPEC, digest)
        with lock:
            wins.append(won)

    threads = [threading.Thread(target=contend) for _ in range(writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wins.count(True) == 1
    assert wins.count(False) == writers - 1


# -- stale-claim breaking ---------------------------------------------------


def _dead_pid() -> int:
    """A pid that provably belonged to a now-reaped process of ours."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_dead_holders_claim_is_broken_and_retaken(tmp_path):
    store = make_store(tmp_path)
    store.root.mkdir(parents=True)
    store.claim_path(SPEC, DIGEST).write_text(
        json.dumps({"pid": _dead_pid(), "ts": time.time()})
    )
    # the pid probe sees the holder is gone; the claim is broken and
    # re-taken in the same call
    assert store.try_claim(SPEC, DIGEST) is True
    payload = json.loads(store.claim_path(SPEC, DIGEST).read_bytes())
    assert payload["pid"] == os.getpid()


def test_live_holders_claim_is_respected(tmp_path):
    store = make_store(tmp_path)
    store.root.mkdir(parents=True)
    store.claim_path(SPEC, DIGEST).write_text(
        json.dumps({"pid": os.getpid(), "ts": time.time()})
    )
    assert store.try_claim(SPEC, DIGEST) is False


def test_live_holders_old_claim_is_never_broken_on_age(tmp_path):
    """Regression: a checkpoint-resumed long job legitimately holds one
    claim far past CLAIM_STALE_SECONDS.  The pid probe is authoritative
    — a provably alive holder keeps its claim no matter the mtime."""
    store = make_store(tmp_path)
    store.root.mkdir(parents=True)
    path = store.claim_path(SPEC, DIGEST)
    path.write_text(json.dumps({"pid": os.getpid(), "ts": time.time()}))
    ancient = time.time() - (store.CLAIM_STALE_SECONDS * 100)
    os.utime(path, (ancient, ancient))
    assert store.try_claim(SPEC, DIGEST) is False
    # and a waiter keeps waiting (times out) instead of declaring it gone
    assert store.wait_for_writer(SPEC, DIGEST, timeout=0.2) is False
    assert path.exists()


def test_progress_refreshes_claim_mtime(tmp_path, monkeypatch):
    """The slice-progress path touches the claim so observers see a
    recent mtime while a long simulation is live."""
    monkeypatch.setattr(ArtifactStore, "CLAIM_REFRESH_SECONDS", 0.0)
    cache = tmp_path / "cache"
    spec = JobSpec(name="plot", scale=SCALE)
    payload = (spec, str(cache), False, 500)
    ages = []

    def probe(name, events):
        store = ArtifactStore(cache)
        for claim in store.root.rglob("*.claim"):
            ages.append(time.time() - claim.stat().st_mtime)

    result = _execute_job(payload, progress=probe)
    assert result.source == "simulated"
    assert ages, "progress callback never saw a live claim"
    assert min(ages) < 5.0


def test_unreadable_claim_falls_back_to_mtime_backstop(tmp_path):
    store = make_store(tmp_path)
    store.root.mkdir(parents=True)
    path = store.claim_path(SPEC, DIGEST)
    path.write_text("not json at all")
    # fresh garbage: assumed mid-write, treated as live
    assert store.try_claim(SPEC, DIGEST) is False
    # ancient garbage: the mtime backstop breaks it
    old = time.time() - (store.CLAIM_STALE_SECONDS + 10)
    os.utime(path, (old, old))
    assert store.try_claim(SPEC, DIGEST) is True


# -- waiting on another writer ----------------------------------------------


def test_wait_for_writer_returns_false_when_claim_released_bare(tmp_path):
    """Holder releases without publishing (it failed): the waiter must
    come back quickly with False so it can simulate itself."""
    store = make_store(tmp_path)
    assert store.try_claim(SPEC, DIGEST)
    store.release_claim(SPEC, DIGEST)
    started = time.monotonic()
    assert store.wait_for_writer(SPEC, DIGEST, timeout=5.0) is False
    assert time.monotonic() - started < 1.0
    assert store.claim_waits == 0


def test_wait_for_writer_times_out_on_a_wedged_live_holder(tmp_path):
    store = make_store(tmp_path)
    store.root.mkdir(parents=True)
    store.claim_path(SPEC, DIGEST).write_text(
        json.dumps({"pid": os.getpid(), "ts": time.time()})
    )
    started = time.monotonic()
    assert store.wait_for_writer(SPEC, DIGEST, timeout=0.2) is False
    elapsed = time.monotonic() - started
    assert 0.15 <= elapsed < 2.0
    assert store.claim_waits == 0


def test_wait_for_writer_treats_dead_holder_as_gone(tmp_path):
    store = make_store(tmp_path)
    store.root.mkdir(parents=True)
    store.claim_path(SPEC, DIGEST).write_text(
        json.dumps({"pid": _dead_pid(), "ts": time.time()})
    )
    started = time.monotonic()
    assert store.wait_for_writer(SPEC, DIGEST, timeout=5.0) is False
    assert time.monotonic() - started < 1.0


# -- the full two-writer path through _execute_job --------------------------


@pytest.mark.faults
def test_racing_engines_simulate_once_and_share_the_publish(tmp_path):
    """Two concurrent ``_execute_job`` calls on one cold cache entry:
    one claims and simulates, the other waits and loads the published
    artifacts — sources are {"simulated", "store"}, never twice
    "simulated"."""
    cache = tmp_path / "cache"
    spec = JobSpec(name="plot", scale=SCALE)
    payload = (spec, str(cache), False, None)
    barrier = threading.Barrier(2)
    results = [None, None]

    def run(slot):
        barrier.wait()
        results[slot] = _execute_job(payload)

    threads = [
        threading.Thread(target=run, args=(slot,)) for slot in (0, 1)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sources = sorted(r.source for r in results)
    assert sources == ["simulated", "store"]
    assert results[0].digest == results[1].digest
    # both claims were released: a third run is a plain store hit
    store = ArtifactStore(cache)
    assert not store.claim_path(spec, results[0].digest).exists()
    follow_up = _execute_job(payload)
    assert follow_up.source == "store"
