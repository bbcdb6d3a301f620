"""Trace capture (event bus + TraceBuilder) and persistence tests."""

import numpy as np
import pytest

from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import TraceBuilder
from repro.trace.events import BranchEvent, BranchTrace
from repro.trace.io import (
    load_trace,
    load_trace_ndjson,
    save_trace,
    save_trace_ndjson,
)


def _fill(bus, n=10):
    for i in range(n):
        bus.on_branch(0x1000 + 4 * (i % 3), 0x2000, i % 2 == 0, 5 * i)


def test_capture_records_events_in_order():
    builder = TraceBuilder("cap")
    bus = BranchEventBus([builder])
    _fill(bus, 5)
    bus.finish()
    trace = builder.result
    assert len(trace) == 5
    assert trace.name == "cap"
    assert [e.timestamp for e in trace] == [0, 5, 10, 15, 20]


def _sample_trace():
    return BranchTrace.from_events(
        [
            BranchEvent(0x100, 0x80, True, 3),
            BranchEvent(0x104, 0x200, False, 9),
            BranchEvent(0x100, 0x80, True, 14),
        ],
        name="roundtrip",
    )


def _traces_equal(a, b):
    return (
        a.name == b.name
        and np.array_equal(a.pcs, b.pcs)
        and np.array_equal(a.targets, b.targets)
        and np.array_equal(a.taken, b.taken)
        and np.array_equal(a.timestamps, b.timestamps)
    )


def test_npz_round_trip(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    assert _traces_equal(load_trace(path), trace)


def test_ndjson_round_trip(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.ndjson"
    save_trace_ndjson(trace, path)
    assert _traces_equal(load_trace_ndjson(path), trace)


def test_ndjson_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_trace_ndjson(path)


def test_ndjson_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    with pytest.raises(ValueError):
        load_trace_ndjson(path)


def test_npz_preserves_empty_trace(tmp_path):
    empty = BranchTrace.from_events([], name="empty")
    path = tmp_path / "e.npz"
    save_trace(empty, path)
    assert len(load_trace(path)) == 0
