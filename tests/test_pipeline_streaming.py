"""Streaming pipeline equivalence and bus semantics.

The load-bearing property of the single-pass pipeline: fusing the
profiler and the predictor bank onto the event bus changes *when* work
happens, never *what* is computed.  Fused one-pass results must equal the
classic capture-then-replay results exactly — same interleave profiles
(byte-identical JSON against the chunked replay path), same prediction
statistics including warmup handling — on arbitrary synthetic event
streams and on real kernel traces.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.__main__ import main
from repro.pipeline.bus import (
    DEFAULT_CHUNK_EVENTS,
    BranchEventBus,
    EventChunk,
)
from repro.pipeline.consumers import (
    InterleaveConsumer,
    PredictorConsumer,
    TraceBuilder,
    replay_bank,
)
from repro.predictors.gshare import GSharePredictor
from repro.predictors.simulator import simulate_predictor
from repro.predictors.twolevel import GAgPredictor, PAgPredictor
from repro.profiling.interleave import InterleaveAnalyzer
from repro.schema import SCHEMA_VERSION, envelope

#: (pc, taken) event streams over a small PC alphabet so branches recur.
event_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12).map(lambda i: 0x1000 + 4 * i),
        st.booleans(),
    ),
    max_size=200,
)


def _feed(bus, events):
    """Drive the bus exactly as the simulator hook would."""
    for count, (pc, taken) in enumerate(events, start=1):
        bus.on_branch(pc, pc + 8, taken, count)


def _capture(events, label):
    """Capture *events* into a trace through a bus carrying a TraceBuilder."""
    builder = TraceBuilder(label)
    bus = BranchEventBus([builder])
    _feed(bus, events)
    bus.finish()
    return builder.result


def _classic(events, warmup):
    """The seed shape: captured trace, scalar profile, scalar replay."""
    trace = _capture(events, "classic")
    analyzer = InterleaveAnalyzer(name="classic")
    for pc, taken in zip(trace.pcs.tolist(), trace.taken.tolist()):
        analyzer.observe(pc, taken)
    stats = simulate_predictor(
        GSharePredictor(history_bits=6),
        trace,
        warmup=warmup,
        chunked=False,
    )
    return analyzer.finish(), stats


@settings(max_examples=100, deadline=None)
@given(events=event_streams, chunk_events=st.integers(1, 64),
       warmup=st.integers(0, 50))
def test_fused_one_pass_matches_capture_then_replay(
    events, chunk_events, warmup
):
    """Property: one fused pass == classic capture-then-replay, exactly."""
    profiler = InterleaveConsumer(label="classic")
    bank = PredictorConsumer(
        GSharePredictor(history_bits=6), label="classic", warmup=warmup
    )
    bus = BranchEventBus([profiler, bank], chunk_events=chunk_events)
    _feed(bus, events)
    bus.finish()
    ref_profile, ref_stats = _classic(events, warmup)
    assert profiler.result.branches == ref_profile.branches
    assert profiler.result.pairs == ref_profile.pairs
    assert bank.result.branches == ref_stats.branches
    assert bank.result.mispredictions == ref_stats.mispredictions
    assert bank.result.per_branch == ref_stats.per_branch


@settings(max_examples=50, deadline=None)
@given(events=event_streams, chunk_events=st.integers(1, 64))
def test_trace_builder_reconstructs_the_event_stream(events, chunk_events):
    builder = TraceBuilder(label="t")
    bus = BranchEventBus([builder], chunk_events=chunk_events)
    _feed(bus, events)
    bus.finish()
    trace = builder.result
    assert trace.pcs.tolist() == [pc for pc, _ in events]
    assert trace.taken.tolist() == [bool(t) for _, t in events]
    assert trace.timestamps.tolist() == list(range(1, len(events) + 1))


def test_fused_profile_byte_identical_to_replay(engine):
    """The engine's fused profile and a chunked replay of the archived
    trace serialize to the same bytes (same chunking → same dict order)."""
    artifacts = engine.artifacts("compress")
    profiler = InterleaveConsumer(label="compress")
    BranchEventBus.replay(artifacts.trace, [profiler])
    profiler.result.instructions = artifacts.profile.instructions
    assert profiler.result.to_json() == artifacts.profile.to_json()


def test_replay_bank_matches_scalar_loop_on_kernel_trace(engine):
    trace = engine.trace("compress")
    bank = [PAgPredictor.conventional(256, 8), GAgPredictor(8)]
    fused = replay_bank(trace, bank, warmup=1000, track_per_branch=True)
    for predictor in [PAgPredictor.conventional(256, 8), GAgPredictor(8)]:
        ref = simulate_predictor(
            predictor, trace, warmup=1000, chunked=False
        )
        got = fused[predictor.name]
        assert got.branches == ref.branches
        assert got.mispredictions == ref.mispredictions
        assert got.per_branch == ref.per_branch


# -- capture edge cases ------------------------------------------------------


def test_empty_capture_finishes_to_well_formed_trace():
    trace = _capture([], "empty")
    assert len(trace) == 0
    assert trace.name == "empty"
    for column in (trace.pcs, trace.targets, trace.timestamps):
        assert column.dtype == np.uint64 and len(column) == 0
    assert trace.taken.dtype == bool and len(trace.taken) == 0


# -- bus contract ------------------------------------------------------------


def test_duplicate_consumer_names_rejected():
    bus = BranchEventBus([InterleaveConsumer()])
    with pytest.raises(ValueError, match="duplicate"):
        bus.subscribe(InterleaveConsumer())


def test_finish_is_idempotent_and_blocks_subscription():
    consumer = TraceBuilder()
    bus = BranchEventBus([consumer])
    _feed(bus, [(0x1000, False)] * 3)
    first = bus.finish()
    assert bus.finish() is first
    assert len(consumer.result) == 3
    with pytest.raises(RuntimeError):
        bus.subscribe(InterleaveConsumer())


def test_observability_counters_cover_every_consumer():
    profiler = InterleaveConsumer()
    builder = TraceBuilder()
    bus = BranchEventBus([profiler, builder], chunk_events=4)
    _feed(bus, [(0x1000 + 4 * (i % 3), True) for i in range(10)])
    stats = bus.finish()
    assert stats.events == stats.delivered == 10
    assert stats.chunk_flushes == 3  # 4 + 4 + 2
    for name in ("interleave", "trace"):
        counters = stats.consumers[name]
        assert counters.events == 10 and counters.chunks == 3
        assert counters.seconds >= 0.0
    payload = stats.as_dict()
    assert [c["name"] for c in payload["consumers"]] == [
        "interleave", "trace",
    ]


def test_event_chunk_caches_both_representations():
    chunk = EventChunk.from_lists([1, 2], [3, 4], [True, False], [1, 2])
    assert chunk.arrays() is chunk.arrays()
    assert chunk.lists() is chunk.lists()
    assert chunk.pcs.dtype == np.uint64
    assert len(chunk) == 2
    assert DEFAULT_CHUNK_EVENTS == 1 << 16


# -- version consistency -----------------------------------------------------


def test_version_flag_reports_schema_v9(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert __version__ in out
    assert f"schema {SCHEMA_VERSION}" in out
    assert SCHEMA_VERSION == 15
    assert envelope("x", {}, {})["schema_version"] == 15


def test_engine_envelope_carries_pipeline_counters(engine):
    payload = engine.stats.as_dict()
    assert {"replayed_runs", "pipeline"} <= set(payload)
    assert "fused_runs" not in payload
    pipeline = payload["pipeline"]
    assert {"events", "delivered", "chunk_flushes",
            "consumers"} <= set(pipeline)
    assert "truncated" not in pipeline
    json.dumps(payload)  # envelope-ready
