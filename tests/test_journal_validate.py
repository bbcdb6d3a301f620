"""The one journal reader, ``RunJournal.read()``.

The journal is a log the engine only writes; its readers (the shard
supervisor's cost model, ``merge-shards``, the service's crash
recovery) all read tolerantly.  Every damage class — a
torn tail, garbage mid-file, non-object records, records stamped by a
newer format version, an unreadable file — is skipped with a warning
naming ``path:line``, never raised, and a record from a newer writer is
never returned.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint.journal import JOURNAL_VERSION, RunJournal
from repro.eval.engine import ExecutionEngine
from repro.eval.shards import measured_costs

REPO = Path(__file__).resolve().parent.parent
SCALE = 0.05


def make_journal(tmp_path) -> RunJournal:
    journal = RunJournal(tmp_path / "cache")
    journal.record_completed("plot", "a" * 16, SCALE)
    journal.record_completed("compress", "b" * 16, SCALE)
    return journal


def append_raw(journal: RunJournal, data: bytes) -> None:
    with open(journal.path, "ab") as fh:
        fh.write(data)


# -- clean journals ---------------------------------------------------------


def test_clean_journal_validates_with_no_warnings(tmp_path):
    journal = make_journal(tmp_path)
    records, warnings = journal.read()
    assert [r["benchmark"] for r in records] == ["plot", "compress"]
    assert warnings == []


def test_missing_journal_validates_with_no_warnings(tmp_path):
    assert RunJournal(tmp_path / "nowhere").read() == ([], [])


# -- damage is skipped with a warning naming path:line -----------------------


def test_single_torn_tail_is_a_warning_naming_path_and_line(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b'{"status": "completed", "benchm')  # no newline
    records, warnings = journal.read()
    assert [r["benchmark"] for r in records] == ["plot", "compress"]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{journal.path}:3:")
    assert "torn tail" in warnings[0]


def test_append_after_torn_tail_terminates_it_first(tmp_path):
    """A new record after a torn tail must not fuse into the garbage
    line — append() seals the tail with a newline first."""
    journal = make_journal(tmp_path)
    append_raw(journal, b'{"torn')
    journal.record_completed("gcc", "c" * 16, SCALE)
    records, warnings = journal.read()
    assert [r["benchmark"] for r in records] == ["plot", "compress", "gcc"]
    # the sealed torn line is now mid-file garbage: skipped, named
    assert len(warnings) == 1 and "unparsable" in warnings[0]
    assert warnings[0].startswith(f"{journal.path}:3:")


def test_garbage_mid_file_is_skipped_naming_the_line(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b"{definitely not json}\n")
    journal.record_completed("gcc", "c" * 16, SCALE)
    records, warnings = journal.read()
    assert [r["benchmark"] for r in records] == ["plot", "compress", "gcc"]
    assert len(warnings) == 1 and "unparsable" in warnings[0]
    assert warnings[0].startswith(f"{journal.path}:3:")
    assert "definitely not json" in warnings[0]


def test_non_object_record_is_skipped(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b'["a", "list", "record"]\n')
    records, warnings = journal.read()
    assert [r["benchmark"] for r in records] == ["plot", "compress"]
    assert len(warnings) == 1 and "non-object" in warnings[0]
    assert warnings[0].startswith(f"{journal.path}:3:")


def test_newer_format_version_is_skipped_naming_both_versions(tmp_path):
    journal = make_journal(tmp_path)
    newer = {"status": "completed", "benchmark": "gcc",
             "digest": "c" * 16, "scale": SCALE, "trace_limit": None,
             "v": JOURNAL_VERSION + 1}
    append_raw(journal, json.dumps(newer).encode() + b"\n")
    records, warnings = journal.read()
    assert [r["benchmark"] for r in records] == ["plot", "compress"]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{journal.path}:3:")
    assert f"version {JOURNAL_VERSION + 1}" in warnings[0]
    assert f"supported {JOURNAL_VERSION}" in warnings[0]


def test_unreadable_journal_is_a_warning(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("root ignores file permissions")
    journal = make_journal(tmp_path)
    journal.path.chmod(0o000)
    try:
        records, warnings = journal.read()
        assert records == []
        assert len(warnings) == 1 and "unreadable" in warnings[0]
        assert str(journal.path) in warnings[0]
    finally:
        journal.path.chmod(0o644)


def test_snippet_is_bounded(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b"x" * 500 + b"\n")
    journal.record_completed("gcc", "c" * 16, SCALE)
    _, warnings = journal.read()
    assert len(warnings) == 1
    assert "x" * 120 + "..." in warnings[0]
    assert "x" * 121 not in warnings[0]


def test_newer_format_record_is_never_trusted(tmp_path):
    """A record from a newer writer is skipped by every consumer, not
    just reported: the shard cost model reads through the same reader
    as the warning."""
    journal = RunJournal(tmp_path / "cache")
    newer = {"v": JOURNAL_VERSION + 1, "status": "completed",
             "benchmark": "plot", "digest": "a" * 16, "scale": SCALE,
             "trace_limit": None, "source": "simulated", "seconds": 1.5}
    journal.root.mkdir(parents=True)
    append_raw(journal, json.dumps(newer).encode() + b"\n")
    records, warnings = journal.read()
    assert records == []
    assert len(warnings) == 1 and "skipped" in warnings[0]
    assert measured_costs(journal, SCALE) == {}


# -- the engine writes, the CLI readers warn ---------------------------------


def test_engine_without_resume_never_validates(tmp_path):
    """The engine never reads the journal: a damaged one neither stops
    a run nor gets repaired, and the run's outcome is appended after
    the damage."""
    cache = tmp_path / "cache"
    journal = RunJournal(cache)
    journal.root.mkdir(parents=True)
    append_raw(journal, b"garbage everywhere\n")
    engine = ExecutionEngine(cache_dir=cache, scale=SCALE)
    engine.prefetch(["plot"])
    assert engine.failures == {}
    records, warnings = journal.read()
    assert [r["benchmark"] for r in records] == ["plot"]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{journal.path}:1:")


def test_cli_merge_with_corrupt_journal_names_the_path(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cache = tmp_path / "cache"
    journal = RunJournal(cache)
    journal.record_completed("plot", "a" * 16, SCALE)
    append_raw(journal, b"{broken}\n")
    journal.record_completed("gcc", "c" * 16, SCALE)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "merge-shards", str(cache),
         "--into", str(tmp_path / "merged")],
        env=env, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    stderr = result.stderr.decode()
    assert f"warning: {journal.path}:2: unparsable record" in stderr
    assert "1 damaged line(s) skipped" in result.stdout.decode()
