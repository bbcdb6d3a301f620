"""Trace-driven predictor simulation tests."""

import pytest

from repro.pipeline.consumers import replay_bank
from repro.predictors.simulator import PredictionStats, simulate_predictor
from repro.predictors.static_pred import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.predictors.twolevel import PAgPredictor
from repro.trace.events import BranchEvent, BranchTrace


def _trace(outcomes, pc=0x100):
    return BranchTrace.from_events(
        [
            BranchEvent(pc, pc + 16, taken, 5 * i + 1)
            for i, taken in enumerate(outcomes)
        ],
        name="simtest",
    )


def test_always_taken_misprediction_rate():
    trace = _trace([True] * 75 + [False] * 25)
    stats = simulate_predictor(AlwaysTakenPredictor(), trace)
    assert stats.branches == 100
    assert stats.mispredictions == 25
    assert stats.misprediction_rate == pytest.approx(0.25)
    assert stats.accuracy == pytest.approx(0.75)


def test_per_branch_stats():
    trace = BranchTrace.from_events(
        [
            BranchEvent(0x100, 0, True, 1),
            BranchEvent(0x200, 0, False, 2),
            BranchEvent(0x100, 0, True, 3),
        ]
    )
    stats = simulate_predictor(AlwaysTakenPredictor(), trace)
    assert stats.per_branch[0x100] == [2, 0]
    assert stats.per_branch[0x200] == [1, 1]
    assert stats.misprediction_rate_of(0x200) == 1.0
    assert stats.misprediction_rate_of(0x999) == 0.0
    assert stats.worst_branches(1) == [0x200]


def test_per_branch_tracking_can_be_disabled():
    stats = simulate_predictor(
        AlwaysTakenPredictor(), _trace([True] * 10), track_per_branch=False
    )
    assert stats.per_branch == {}
    assert stats.branches == 10


def test_warmup_excludes_head_events():
    trace = _trace([False] * 10 + [True] * 10)
    stats = simulate_predictor(AlwaysTakenPredictor(), trace, warmup=10)
    assert stats.branches == 10
    assert stats.mispredictions == 0


def test_warmup_validation():
    with pytest.raises(ValueError):
        simulate_predictor(AlwaysTakenPredictor(), _trace([True]), warmup=-1)


def test_empty_trace():
    stats = simulate_predictor(AlwaysTakenPredictor(), _trace([]))
    assert stats.branches == 0
    assert stats.misprediction_rate == 0.0


def test_pag_on_periodic_trace_converges():
    trace = _trace([True, True, False] * 120)
    stats = simulate_predictor(
        PAgPredictor.conventional(64, 6), trace, warmup=80
    )
    assert stats.mispredictions == 0


def test_simulation_is_deterministic():
    trace = _trace([True, False, False, True] * 50)
    a = simulate_predictor(PAgPredictor.conventional(16, 4), trace)
    b = simulate_predictor(PAgPredictor.conventional(16, 4), trace)
    assert a.mispredictions == b.mispredictions


def test_replay_bank_keys_by_name():
    trace = _trace([True] * 20)
    results = replay_bank(
        trace, [AlwaysTakenPredictor(), AlwaysNotTakenPredictor()]
    )
    assert results["always-taken"].mispredictions == 0
    assert results["always-not-taken"].mispredictions == 20


def test_replay_bank_rejects_duplicate_names():
    trace = _trace([True])
    with pytest.raises(ValueError):
        replay_bank(trace, [AlwaysTakenPredictor(), AlwaysTakenPredictor()])


def test_stats_dataclass_defaults():
    stats = PredictionStats(predictor="p", trace="t")
    assert stats.misprediction_rate == 0.0
    assert stats.worst_branches() == []
