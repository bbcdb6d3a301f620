"""Prediction records: a replay's result, stored beside its entry.

A record answers only for the entry, predictor and sources it was
written under; anything else about it (garbage, a torn write, another
entry's or another predictor's record, an older predictor source) is a
miss that the next replay rewrites.  A record's answer equals a fresh
replay's, and figures and the daemon replay each predictor once.
"""

import functools
import hashlib
import json
import shutil
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import figures
from repro.eval.engine import ExecutionEngine
from repro.eval.store import (
    PREDICTIONS_DIR,
    ArtifactStore,
    replay_predictors,
)
from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import PredictorConsumer
from repro.predictors.indexing import PCModuloIndex, StaticIndexMap
from repro.predictors.twolevel import InterferenceFreePAg, PAgPredictor
from repro.service import build_predictor

SCALE = 0.05


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """(store, spec, digest, trace) of plot, simulated once."""
    root = tmp_path_factory.mktemp("records")
    engine = ExecutionEngine(scale=SCALE, cache_dir=root)
    trace = engine.artifacts("plot").trace
    return engine.store, engine.job("plot"), engine.digest("plot"), trace


def _fresh(trace, factory):
    consumer = PredictorConsumer(factory(), label="plot")
    BranchEventBus.replay(trace, [consumer])
    return consumer.result.branches, consumer.result.mispredictions


def _counts(result):
    return result.branches, result.mispredictions


SPEC_TEXTS = st.one_of(
    st.sampled_from(["bimodal", "gshare", "always_taken",
                     "always_not_taken", "btfnt"]),
    st.builds("bimodal:{}".format, st.sampled_from([16, 64, 512, 2048])),
    st.builds("gshare:{}".format, st.integers(min_value=1, max_value=12)),
)


@st.composite
def figure_pags(draw):
    """(identity, factory) of a conventional, interference-free or
    allocated PAg; an allocated map sends a drawn set of PCs to drawn
    entries."""
    kind = draw(st.sampled_from(["conventional", "interference-free",
                                 "allocated"]))
    history = draw(st.integers(min_value=2, max_value=12))
    size = draw(st.sampled_from([16, 128, 1024]))
    if kind == "conventional":
        return (f"pag:conventional:bht={size}:history={history}",
                functools.partial(PAgPredictor.conventional, size, history))
    if kind == "interference-free":
        return (f"pag:interference-free:history={history}",
                functools.partial(InterferenceFreePAg, history))
    pcs = draw(st.lists(st.integers(min_value=0, max_value=4096),
                        max_size=40, unique=True))
    entries = draw(st.lists(st.integers(min_value=0, max_value=size - 1),
                            min_size=len(pcs), max_size=len(pcs)))
    index_map = StaticIndexMap(
        size, {0x1000 + 4 * pc: entry for pc, entry in zip(pcs, entries)},
        fallback=PCModuloIndex(size),
    )
    return (f"{figures._map_identity(index_map)}|history={history}",
            functools.partial(PAgPredictor.allocated, index_map, history))


@settings(max_examples=25, deadline=None)
@given(spec_texts=st.lists(SPEC_TEXTS, max_size=3, unique=True),
       pags=st.lists(figure_pags(), max_size=3))
def test_a_record_answers_what_a_fresh_replay_gives(stored, spec_texts, pags):
    store, spec, digest, trace = stored
    shutil.rmtree(store.root / PREDICTIONS_DIR, ignore_errors=True)
    bank = {text: (f"spec:{text}", functools.partial(build_predictor, text))
            for text in spec_texts}
    for n, pag in enumerate(pags):
        bank[f"pag{n}"] = pag
    expected = {name: _fresh(trace, factory)
                for name, (_, factory) in bank.items()}

    unstored, _ = replay_predictors(None, spec, digest, bank, lambda: trace)
    assert {k: _counts(v) for k, v in unstored.items()} == expected

    written, stats = replay_predictors(store, spec, digest, bank,
                                       lambda: trace)
    assert {k: _counts(v) for k, v in written.items()} == expected
    assert (stats is None) == (not bank)

    def no_trace():
        raise AssertionError("a recorded predictor was replayed")

    read, stats = replay_predictors(store, spec, digest, bank, no_trace)
    assert stats is None
    assert {k: _counts(v) for k, v in read.items()} == expected


def _garbage(path, store, spec, digest):
    path.write_bytes(b"\x00garbage{")


def _truncated(path, store, spec, digest):
    path.write_bytes(path.read_bytes()[:-9])


def _other_predictor(path, store, spec, digest):
    other = store.prediction_path(spec, digest, "spec:btfnt")
    shutil.copyfile(other, path)


def _other_entry(path, store, spec, digest):
    record = json.loads(path.read_text())
    record["digest"] = "ab" * 32
    path.write_text(json.dumps(record))


def _edited_count(path, store, spec, digest):
    record = json.loads(path.read_text())
    record["mispredictions"] += 1
    path.write_text(json.dumps(record))


def _older_sources(path, store, spec, digest):
    record = json.loads(path.read_text())
    body = {k: v for k, v in record.items() if k != "sha256"}
    body["source"] = "0" * 64
    text = json.dumps(body, sort_keys=True).encode()
    record = {**body, "sha256": hashlib.sha256(text).hexdigest()}
    path.write_text(json.dumps(record))


@pytest.mark.parametrize("damage", [
    _garbage, _truncated, _other_predictor, _other_entry, _edited_count,
    _older_sources,
])
def test_a_bad_record_is_a_miss_and_rewritten(stored, damage):
    store, spec, digest, trace = stored
    shutil.rmtree(store.root / PREDICTIONS_DIR, ignore_errors=True)
    bank = {text: (f"spec:{text}", functools.partial(build_predictor, text))
            for text in ("bimodal:512", "btfnt")}
    good, _ = replay_predictors(store, spec, digest, bank, lambda: trace)
    path = store.prediction_path(spec, digest, "spec:bimodal:512")
    damage(path, store, spec, digest)
    assert store.prediction(spec, digest, "spec:bimodal:512") is None

    again, stats = replay_predictors(store, spec, digest, bank,
                                     lambda: trace)
    assert stats is not None
    assert list(stats.consumers) == ["predict:bimodal:512"]
    assert _counts(again["bimodal:512"]) == _counts(good["bimodal:512"])
    assert _counts(store.prediction(spec, digest, "spec:bimodal:512")) == (
        _counts(good["bimodal:512"])
    )


def test_an_unwritable_record_dir_only_costs_a_replay(stored, tmp_path):
    _, spec, digest, trace = stored
    store = ArtifactStore(tmp_path)
    (tmp_path / PREDICTIONS_DIR).write_bytes(b"not a directory")
    bank = {"btfnt": ("spec:btfnt", functools.partial(build_predictor,
                                                      "btfnt"))}
    for _ in range(2):
        results, stats = replay_predictors(store, spec, digest, bank,
                                           lambda: trace)
        assert stats is not None
        assert _counts(results["btfnt"]) == _fresh(
            trace, functools.partial(build_predictor, "btfnt"))
    assert not list(tmp_path.glob(".*.tmp"))


def test_concurrent_writers_leave_a_valid_record(stored):
    """Daemon threads racing on one record: every answer is right and
    the record left behind reads back."""
    store, spec, digest, trace = stored
    shutil.rmtree(store.root / PREDICTIONS_DIR, ignore_errors=True)
    factory = functools.partial(build_predictor, "bimodal:64")
    bank = {"bimodal:64": ("spec:bimodal:64", factory)}
    expected = _fresh(trace, factory)
    answers = []

    def serve():
        for _ in range(5):
            results, _ = replay_predictors(store, spec, digest, bank,
                                           lambda: trace, fresh=True)
            answers.append(_counts(results["bimodal:64"]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=serve) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [expected] * 20
    assert _counts(store.prediction(spec, digest, "spec:bimodal:64")) == (
        expected
    )
    assert not list((store.root / PREDICTIONS_DIR).glob(".*.tmp"))


def test_a_gone_entry_is_none_and_records_nothing(stored, tmp_path):
    _, spec, digest, _ = stored
    store = ArtifactStore(tmp_path)
    bank = {"btfnt": ("spec:btfnt", functools.partial(build_predictor,
                                                      "btfnt"))}
    assert replay_predictors(store, spec, digest, bank, lambda: None) is None
    assert not (tmp_path / PREDICTIONS_DIR).exists()


def test_quarantine_takes_the_entry_records_with_it(tmp_path):
    engine = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    figures.run_figure3(engine, ["plot"])
    store, spec, digest = engine.store, engine.job("plot"), engine.digest("plot")
    stem = store.stem(spec, digest)
    records = sorted((tmp_path / PREDICTIONS_DIR).glob(f"{stem}.*.json"))
    assert len(records) == 5
    error = store.quarantine(spec, digest, "test")
    assert not list((tmp_path / PREDICTIONS_DIR).glob(f"{stem}.*"))
    quarantined = {p.name for p in (tmp_path / store.QUARANTINE_DIR).iterdir()}
    assert {p.name for p in records} <= quarantined
    assert len(error.context["quarantined"]) == 2 + len(records)


def _replayed_names(monkeypatch):
    """Consumer names of every ``BranchEventBus.replay`` from now on."""
    names = []
    real = BranchEventBus.replay.__func__

    def counting(cls, trace, consumers, *args, **kwargs):
        names.append(sorted(c.name for c in consumers))
        return real(cls, trace, consumers, *args, **kwargs)

    monkeypatch.setattr(BranchEventBus, "replay", classmethod(counting))
    return names


def test_figure4_after_figure3_replays_only_its_allocated_pags(
    tmp_path, monkeypatch
):
    uncached = ExecutionEngine(scale=SCALE)
    expected = figures.run_figure4(uncached, ["plot", "compress"])

    figures.run_figure3(ExecutionEngine(scale=SCALE, cache_dir=tmp_path),
                        ["plot", "compress"])
    names = _replayed_names(monkeypatch)
    engine = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    assert figures.run_figure4(engine, ["plot", "compress"]) == expected
    assert names == [
        ["predict:alloc@1024", "predict:alloc@128", "predict:alloc@16"]
    ] * 2
    assert engine.stats.replayed_runs == 2

    del names[:]
    rerun = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    assert figures.run_figure4(rerun, ["plot", "compress"]) == expected
    assert names == []
    assert rerun.stats.replayed_runs == 0
