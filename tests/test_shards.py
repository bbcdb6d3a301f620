"""Distributed sharding (repro.eval.shards) and the merge-shards flow.

The acceptance property this file pins down: a sharded suite run —
every host running the same selector with ``--shard K/N`` — merged with
``repro merge-shards`` is **byte-identical** to the unsharded run of the
same selection.  Shard identity never enters job digests or artifact
names; it only decides where a job runs.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.errors import SelectionError, ShardConflict
from repro.eval.shards import (
    MergeReport,
    ShardSpec,
    merge_shards,
    partition_selection,
    shard_names,
)
from repro.workloads.registry import (
    estimated_cost,
    known_benchmarks,
    resolve_selection,
)

subsets = st.sets(
    st.sampled_from(list(known_benchmarks())), min_size=1, max_size=10
)


# -- ShardSpec ---------------------------------------------------------------


def test_shard_spec_parse_roundtrip():
    spec = ShardSpec.parse(" 2/3 ")
    assert (spec.index, spec.total) == (2, 3)
    assert spec.tag == "2/3" == str(spec)


@pytest.mark.parametrize("text", ["", "1", "a/b", "1/0", "0/2", "3/2", "-1/2"])
def test_shard_spec_rejects_malformed(text):
    with pytest.raises(SelectionError):
        ShardSpec.parse(text)


# -- partitioning properties -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(names=subsets, total=st.integers(min_value=1, max_value=5))
def test_shards_are_disjoint_and_cover_the_selection(names, total):
    ordered = sorted(names)
    bins = partition_selection(ordered, total)
    assert len(bins) == total
    flat = [name for shard in bins for name in shard]
    assert sorted(flat) == ordered  # exact cover, no duplicates
    covered = [
        name
        for k in range(1, total + 1)
        for name in shard_names(ordered, ShardSpec(k, total))
    ]
    assert sorted(covered) == ordered


@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(
        st.sampled_from(list(known_benchmarks())),
        min_size=1,
        max_size=10,
        unique=True,
    ),
    total=st.integers(min_value=1, max_value=4),
)
def test_partition_is_order_independent(names, total):
    forward = partition_selection(names, total)
    backward = partition_selection(list(reversed(names)), total)
    assert [frozenset(s) for s in forward] == [
        frozenset(s) for s in backward
    ]
    # within a shard, names keep the input order
    order = {name: i for i, name in enumerate(names)}
    for shard in forward:
        positions = [order[name] for name in shard]
        assert positions == sorted(positions)


def test_partition_balances_estimated_cost():
    selection = resolve_selection("all")
    bins = partition_selection(selection.names, 2)
    loads = [
        sum(estimated_cost(name) for name in shard) for shard in bins
    ]
    heaviest = max(estimated_cost(name) for name in selection.names)
    # LPT guarantee: the gap between bins never exceeds one benchmark
    assert abs(loads[0] - loads[1]) <= heaviest


def test_unsharded_spec_keeps_everything():
    names = ("plot", "pgp", "compress")
    assert shard_names(names, None) == names
    assert shard_names(names, ShardSpec(1, 1)) == names


def test_more_shards_than_benchmarks_leaves_empties():
    bins = partition_selection(["plot", "pgp"], 4)
    assert sorted(len(b) for b in bins) == [0, 0, 1, 1]


# -- merge mechanics (fabricated stores, no simulation) ----------------------


def _fake_store(root, entries):
    root.mkdir(parents=True, exist_ok=True)
    for name, payload in entries.items():
        (root / name).write_bytes(payload)


def test_merge_unions_disjoint_stores(tmp_path):
    _fake_store(
        tmp_path / "s1",
        {"plot-aa.trace.npz": b"A", "plot-aa.meta.json": b"{}"},
    )
    _fake_store(tmp_path / "s2", {"pgp-bb.trace.npz": b"B"})
    report = merge_shards(
        [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
    )
    assert isinstance(report, MergeReport)
    assert report.artifacts_copied == 3
    assert report.artifacts_identical == 0
    assert (tmp_path / "out" / "plot-aa.trace.npz").read_bytes() == b"A"
    assert (tmp_path / "out" / "pgp-bb.trace.npz").read_bytes() == b"B"
    assert sorted(report.as_dict()) == [
        "artifacts_copied",
        "artifacts_identical",
        "benchmarks",
        "destination",
        "journal_records",
        "journal_skipped",
        "sources",
        "warnings",
    ]


def test_merge_is_idempotent_and_byte_verifies_overlap(tmp_path):
    entries = {"plot-aa.trace.npz": b"A" * 64}
    _fake_store(tmp_path / "s1", entries)
    _fake_store(tmp_path / "s2", entries)
    report = merge_shards(
        [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
    )
    assert report.artifacts_copied == 1
    assert report.artifacts_identical == 1
    again = merge_shards([tmp_path / "s1"], tmp_path / "out")
    assert again.artifacts_copied == 0
    assert again.artifacts_identical == 1


def test_merge_detects_divergent_artifact_bytes(tmp_path):
    _fake_store(tmp_path / "s1", {"plot-aa.trace.npz": b"A" * 64})
    _fake_store(tmp_path / "s2", {"plot-aa.trace.npz": b"A" * 63 + b"X"})
    with pytest.raises(ShardConflict) as excinfo:
        merge_shards([tmp_path / "s1", tmp_path / "s2"], tmp_path / "out")
    assert excinfo.value.code == "shard_conflict"
    assert excinfo.value.context["artifact"] == "plot-aa.trace.npz"


def test_merge_rejects_missing_source(tmp_path):
    with pytest.raises(SelectionError):
        merge_shards([tmp_path / "nope"], tmp_path / "out")
    with pytest.raises(SelectionError):
        merge_shards([], tmp_path / "out")


def test_merge_shared_store_only_reads_the_journal(tmp_path):
    store = tmp_path / "shared"
    _fake_store(store, {"plot-aa.trace.npz": b"A"})
    report = merge_shards([store], store)
    assert report.artifacts_copied == 0
    assert report.artifacts_identical == 0


def _journal_line(benchmark):
    return json.dumps({
        "v": 1, "status": "completed", "benchmark": benchmark,
        "scale": 0.02, "trace_limit": None, "backend": "interp",
        "digest": "ab" * 32, "source": "simulated", "ts": 1.0,
    })


def _meta(benchmark):
    return json.dumps({"benchmark": benchmark}).encode()


def test_merge_tolerates_torn_journal_tail(tmp_path):
    """A shard whose worker was SIGKILLed mid-append leaves a torn last
    line; the merge keeps the intact records and reports a warning
    instead of aborting the whole union."""
    _fake_store(
        tmp_path / "s1",
        {"plot-aa.trace.npz": b"A", "plot-aa.meta.json": _meta("plot")},
    )
    (tmp_path / "s1" / "journal.jsonl").write_text(
        _journal_line("plot") + "\n" + '{"v": 1, "status": "comp'
    )
    report = merge_shards([tmp_path / "s1"], tmp_path / "out")
    assert report.benchmarks == ["plot"]
    assert report.journal_skipped == 1
    assert len(report.warnings) == 1
    assert "journal" in report.warnings[0]
    # the surviving record landed in the destination journal
    merged = (tmp_path / "out" / "journal.jsonl").read_text()
    assert '"plot"' in merged


def test_merge_tolerates_mid_file_garbage(tmp_path):
    """Garbage *between* valid records (a torn line a later appender
    terminated) is skipped with a warning; both neighbours survive."""
    _fake_store(
        tmp_path / "s1",
        {
            "plot-aa.trace.npz": b"A", "plot-aa.meta.json": _meta("plot"),
            "pgp-bb.trace.npz": b"B", "pgp-bb.meta.json": _meta("pgp"),
        },
    )
    (tmp_path / "s1" / "journal.jsonl").write_text(
        _journal_line("plot") + "\n"
        + '{"torn": tru' + "\n"
        + _journal_line("pgp") + "\n"
    )
    report = merge_shards([tmp_path / "s1"], tmp_path / "out")
    assert sorted(report.benchmarks) == ["pgp", "plot"]
    assert report.journal_skipped == 1
    assert report.journal_records != {}


def test_merge_census_lists_committed_entries_not_journal_records(
    tmp_path,
):
    """The census is what the destination stores: a journaled benchmark
    whose entry is gone is not counted, nor is a meta that does not
    parse or names no benchmark; a stored one needs no journal record."""
    _fake_store(
        tmp_path / "s1",
        {
            "pgp-bb.trace.npz": b"B", "pgp-bb.meta.json": _meta("pgp"),
            "gcc-cc.meta.json": b"{torn",
            "li-dd.meta.json": b"[]",
        },
    )
    (tmp_path / "s1" / "journal.jsonl").write_text(
        _journal_line("plot") + "\n"
    )
    report = merge_shards([tmp_path / "s1"], tmp_path / "out")
    assert report.benchmarks == ["pgp"]
    assert report.journal_records == {str(tmp_path / "s1"): 1}


# -- end-to-end acceptance: sharded == unsharded, byte for byte --------------


def _store_bytes(root):
    """Artifact filename -> bytes (journal excluded: records carry
    wall-clock timestamps, so byte-identity is asserted on artifacts)."""
    return {
        p.name: p.read_bytes()
        for p in sorted(root.iterdir())
        if p.is_file() and p.name != "journal.jsonl"
    }


@pytest.mark.slow
def test_sharded_unix_run_merges_byte_identical(tmp_path, capsys):
    """`experiment --set unix --shard K/2` x2 + merge == unsharded."""
    scale = ["--scale", "0.02", "--jobs", "2"]
    base, s1, s2, merged = (
        str(tmp_path / d) for d in ("base", "s1", "s2", "merged")
    )
    assert main(
        ["experiment", "--set", "unix", "--cache", base] + scale
    ) == 0
    assert main(
        ["experiment", "--set", "unix", "--shard", "1/2", "--cache", s1]
        + scale
    ) == 0
    assert main(
        ["experiment", "--set", "unix", "--shard", "2/2", "--cache", s2]
        + scale
    ) == 0
    capsys.readouterr()
    assert main(["merge-shards", s1, s2, "--into", merged, "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    report = document["results"]
    assert sorted(report["benchmarks"]) == sorted(
        resolve_selection("unix").names
    )
    assert _store_bytes(tmp_path / "merged") == _store_bytes(
        tmp_path / "base"
    )
    # each shard owned a strict, non-empty subset
    shard_benchmarks = [
        {r.rsplit("-", 1)[0] for r in _store_bytes(tmp_path / d)}
        for d in ("s1", "s2")
    ]
    assert all(shard_benchmarks)
    assert not shard_benchmarks[0] & shard_benchmarks[1]


def test_sharded_journal_records_identity(tmp_path, capsys):
    """Sharded runs journal their shard tag and selection expression."""
    store = tmp_path / "store"
    assert main(
        [
            "experiment",
            "--set",
            "smoke-compress",
            "--shard",
            "1/1",
            "--scale",
            "0.02",
            "--cache",
            str(store),
        ]
    ) == 0
    capsys.readouterr()
    records = [
        json.loads(line)
        for line in (store / "journal.jsonl").read_text().splitlines()
    ]
    completed = [r for r in records if r.get("status") == "completed"]
    assert completed
    for record in completed:
        assert record["shard"] == "1/1"
        assert record["selection"] == "smoke-compress"


def test_cli_merge_shards_conflict_exits_one(tmp_path, capsys):
    _fake_store(tmp_path / "s1", {"plot-aa.trace.npz": b"A" * 16})
    _fake_store(tmp_path / "s2", {"plot-aa.trace.npz": b"B" * 16})
    code = main(
        [
            "merge-shards",
            str(tmp_path / "s1"),
            str(tmp_path / "s2"),
            "--into",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "shard_conflict" in capsys.readouterr().err


def test_cli_shard_flag_rejects_malformed(capsys):
    assert main(["experiment", "--set", "unix", "--shard", "2"]) == 2
    assert "K/N" in capsys.readouterr().err
