"""The one journal reader, ``RunJournal.read(strict)``.

A tolerant read skips damage with a warning — a torn line is a skip,
never a crash.  But a *resume* run stakes correctness on the journal's
contents, so it reads strictly, which draws a sharp line: the one
damage pattern a dying writer legitimately leaves (a single torn tail)
becomes a warning naming the path and line; anything else — garbage
mid-file, non-object records, records stamped by a newer format
version — raises a typed :class:`~repro.errors.JournalInvalid` telling
the operator exactly which line to fix (or to rerun without
``--resume``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint.journal import JOURNAL_VERSION, RunJournal
from repro.errors import JournalInvalid
from repro.eval.engine import ExecutionEngine
from repro.eval.shards import measured_costs

REPO = Path(__file__).resolve().parent.parent
SCALE = 0.05


def make_journal(tmp_path) -> RunJournal:
    journal = RunJournal(tmp_path / "cache")
    journal.record_completed("plot", "a" * 16, SCALE, None)
    journal.record_completed("compress", "b" * 16, SCALE, None)
    return journal


def append_raw(journal: RunJournal, data: bytes) -> None:
    with open(journal.path, "ab") as fh:
        fh.write(data)


# -- strict read: tolerated damage -------------------------------------------


def test_clean_journal_validates_with_no_warnings(tmp_path):
    journal = make_journal(tmp_path)
    records, warnings = journal.read(strict=True)
    assert [r["benchmark"] for r in records] == ["plot", "compress"]
    assert warnings == []


def test_missing_journal_validates_with_no_warnings(tmp_path):
    assert RunJournal(tmp_path / "nowhere").read(strict=True) == ([], [])


def test_single_torn_tail_is_a_warning_naming_path_and_line(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b'{"status": "completed", "benchm')  # no newline
    records, warnings = journal.read(strict=True)
    assert len(records) == 2
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{journal.path}:3:")
    assert "torn tail" in warnings[0]
    # the tolerant read agrees: the torn record is simply absent
    assert journal.read(strict=False) == (records, warnings)


def test_append_after_torn_tail_terminates_it_first(tmp_path):
    """A new record after a torn tail must not fuse into the garbage
    line — append() seals the tail with a newline first."""
    journal = make_journal(tmp_path)
    append_raw(journal, b'{"torn')
    journal.record_completed("gcc", "c" * 16, SCALE, None)
    records, _ = journal.read(strict=False)
    assert [r["benchmark"] for r in records] == ["plot", "compress", "gcc"]
    # the torn line is now mid-file garbage: strict validation rejects it
    with pytest.raises(JournalInvalid):
        journal.read(strict=True)


# -- strict read: structural damage ------------------------------------------


def test_garbage_mid_file_raises_naming_the_line(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b"{definitely not json}\n")
    journal.record_completed("gcc", "c" * 16, SCALE, None)
    with pytest.raises(JournalInvalid) as info:
        journal.read(strict=True)
    message = str(info.value)
    assert str(journal.path) in message
    assert "line 3" in message
    assert "--resume" in message
    assert info.value.context["line"] == 3
    assert "definitely not json" in info.value.context["record"]
    # a tolerant read skips the line with a warning naming it instead
    records, warnings = journal.read(strict=False)
    assert [r["benchmark"] for r in records] == ["plot", "compress", "gcc"]
    assert len(warnings) == 1 and "unparsable" in warnings[0]
    assert warnings[0].startswith(f"{journal.path}:3:")


def test_non_object_record_raises(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b'["a", "list", "record"]\n')
    with pytest.raises(JournalInvalid) as info:
        journal.read(strict=True)
    assert "non-object" in str(info.value)
    assert info.value.context["line"] == 3
    records, warnings = journal.read(strict=False)
    assert len(records) == 2
    assert len(warnings) == 1 and "non-object" in warnings[0]


def test_newer_format_version_raises_with_versions_in_context(tmp_path):
    journal = make_journal(tmp_path)
    newer = {"status": "completed", "benchmark": "gcc",
             "digest": "c" * 16, "scale": SCALE, "trace_limit": None,
             "v": JOURNAL_VERSION + 1}
    append_raw(journal, json.dumps(newer).encode() + b"\n")
    with pytest.raises(JournalInvalid) as info:
        journal.read(strict=True)
    assert "newer repro" in str(info.value)
    assert info.value.context["version"] == JOURNAL_VERSION + 1
    assert info.value.context["supported"] == JOURNAL_VERSION
    assert info.value.code == "journal_invalid"


def test_unreadable_journal_raises(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("root ignores file permissions")
    journal = make_journal(tmp_path)
    journal.path.chmod(0o000)
    try:
        with pytest.raises(JournalInvalid) as info:
            journal.read(strict=True)
        assert "unreadable" in str(info.value)
    finally:
        journal.path.chmod(0o644)


def test_snippet_is_bounded(tmp_path):
    journal = make_journal(tmp_path)
    append_raw(journal, b"x" * 500 + b"\n")
    journal.record_completed("gcc", "c" * 16, SCALE, None)
    with pytest.raises(JournalInvalid) as info:
        journal.read(strict=True)
    assert len(info.value.context["record"]) <= 123  # snippet + ellipsis


def test_newer_format_record_is_never_trusted(tmp_path):
    """A record from a newer writer is skipped by every consumer, not
    just reported: completion lookups and the shard cost model read
    through the same reader as the warning."""
    journal = RunJournal(tmp_path / "cache")
    newer = {"v": JOURNAL_VERSION + 1, "status": "completed",
             "benchmark": "plot", "digest": "a" * 16, "scale": SCALE,
             "trace_limit": None, "source": "simulated", "seconds": 1.5}
    journal.root.mkdir(parents=True)
    append_raw(journal, json.dumps(newer).encode() + b"\n")
    records, warnings = journal.read(strict=False)
    assert records == []
    assert len(warnings) == 1 and "skipped" in warnings[0]
    assert journal.completed(SCALE, None) == {}
    assert measured_costs(journal, SCALE) == {}


# -- the engine and CLI surface validation ----------------------------------


def test_engine_resume_surfaces_torn_tail_warning(tmp_path):
    cache = tmp_path / "cache"
    journal = RunJournal(cache)
    journal.record_completed("plot", "a" * 16, SCALE, None)
    append_raw(journal, b'{"torn')
    engine = ExecutionEngine(cache_dir=cache, scale=SCALE, resume=True)
    assert len(engine.journal_warnings) == 1
    assert "torn tail" in engine.journal_warnings[0]


def test_engine_resume_raises_on_structural_damage(tmp_path):
    cache = tmp_path / "cache"
    journal = RunJournal(cache)
    journal.record_completed("plot", "a" * 16, SCALE, None)
    append_raw(journal, b"garbage\n")
    journal.record_completed("gcc", "c" * 16, SCALE, None)
    with pytest.raises(JournalInvalid):
        ExecutionEngine(cache_dir=cache, scale=SCALE, resume=True)


def test_engine_without_resume_never_validates(tmp_path):
    cache = tmp_path / "cache"
    journal = RunJournal(cache)
    journal.root.mkdir(parents=True)
    append_raw(journal, b"garbage everywhere\n")
    engine = ExecutionEngine(cache_dir=cache, scale=SCALE)
    assert engine.journal_warnings == []


def test_cli_resume_with_corrupt_journal_names_the_path(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cache = tmp_path / "cache"
    journal = RunJournal(cache)
    journal.record_completed("plot", "a" * 16, SCALE, None)
    append_raw(journal, b"{broken}\n")
    journal.record_completed("gcc", "c" * 16, SCALE, None)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "table2",
         "--scale", str(SCALE), "--cache", str(cache), "--resume"],
        env=env, capture_output=True, timeout=120,
    )
    assert result.returncode == 1
    stderr = result.stderr.decode()
    assert "error: [journal_invalid]" in stderr
    assert str(journal.path) in stderr
    assert "line 2" in stderr
