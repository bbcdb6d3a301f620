"""Interleave analysis tests.

The key correctness argument of the whole reproduction: the vectorized
analyzer counts exactly the pairs the paper's Figure 1 time-stamp
procedure counts, and lists them in the same first-count order (the
order a stored profile's bytes keep).  Tested on the paper's own worked
example and, property-based, on random event streams and random
chunkings against the literal brute-force implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.bus import DEFAULT_CHUNK_EVENTS, BranchEventBus
from repro.pipeline.consumers import InterleaveConsumer
from repro.profiling import interleave
from repro.profiling.interleave import (
    InterleaveAnalyzer,
    interleave_pairs_bruteforce,
    profile_trace,
)
from repro.trace.events import BranchEvent, BranchTrace
from repro.trace.synthetic import make_phased_workload

A, B, C = 0x100, 0x200, 0x300


def test_paper_figure1_example():
    """Figure 1: sequence A B C A with stamps 5/10/15/20.

    When A re-executes at stamp 20, branches B (10) and C (15) carry stamps
    greater than A's previous stamp (5), so pairs (A,B) and (A,C) are each
    counted once.
    """
    analyzer = InterleaveAnalyzer()
    for pc in [A, B, C, A]:
        analyzer.observe(pc)
    profile = analyzer.finish()
    assert profile.interleave_count(A, B) == 1
    assert profile.interleave_count(A, C) == 1
    assert profile.interleave_count(B, C) == 0  # neither re-executed


def test_repeated_loop_counts_accumulate():
    analyzer = InterleaveAnalyzer()
    for _ in range(10):
        analyzer.observe(A)
        analyzer.observe(B)
    profile = analyzer.finish()
    # nine re-executions of A each saw B, nine of B each saw A
    assert profile.interleave_count(A, B) == 18


def test_no_interleaving_when_runs_are_disjoint():
    analyzer = InterleaveAnalyzer()
    for _ in range(5):
        analyzer.observe(A)
    for _ in range(5):
        analyzer.observe(B)
    profile = analyzer.finish()
    # B executed only after A's last instance; A never re-executed after B
    assert profile.interleave_count(A, B) == 0


def test_consecutive_same_branch_is_not_self_interleaving():
    analyzer = InterleaveAnalyzer()
    for _ in range(100):
        analyzer.observe(A)
    profile = analyzer.finish()
    assert profile.pairs == {}
    assert profile.branches[A].executions == 100


def test_taken_statistics_accumulate():
    analyzer = InterleaveAnalyzer()
    analyzer.observe(A, taken=True)
    analyzer.observe(A, taken=False)
    analyzer.observe(A, taken=True)
    profile = analyzer.finish()
    assert profile.branches[A].executions == 3
    assert profile.branches[A].taken == 2
    assert profile.taken_rate(A) == pytest.approx(2 / 3)


def test_profile_trace_wrapper():
    trace = BranchTrace.from_events(
        [
            BranchEvent(A, 0, True, 5),
            BranchEvent(B, 0, False, 10),
            BranchEvent(C, 0, True, 15),
            BranchEvent(A, 0, True, 20),
        ],
        name="fig1",
    )
    profile = profile_trace(trace)
    assert profile.name == "fig1"
    assert profile.interleave_count(A, B) == 1
    assert profile.instructions == 20


def test_bruteforce_rejects_non_increasing_timestamps():
    with pytest.raises(ValueError):
        interleave_pairs_bruteforce([(A, 5), (B, 5)])


def test_profile_trace_is_a_bus_replay_across_chunks():
    """Branches first seen after the first 65,536-event chunk, at lower
    PCs than the branches before them, keep the bus's branch order."""
    workload = make_phased_workload(
        n_phases=2, branches_per_phase=8, iterations=9000, seed=3,
        text_span=1 << 16,
    )
    workload.schedule = [1, 0]  # the higher-PC phase runs first
    trace = workload.generate(seed=5)
    assert len(trace) > DEFAULT_CHUNK_EVENTS
    early = set(trace.pcs[:DEFAULT_CHUNK_EVENTS].tolist())
    late = set(trace.pcs[DEFAULT_CHUNK_EVENTS:].tolist()) - early
    assert late and max(late) < min(early)
    consumer = InterleaveConsumer(label=trace.name)
    BranchEventBus.replay(trace, [consumer])
    assert profile_trace(trace).to_json() == consumer.result.to_json()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=7),
        min_size=0,
        max_size=200,
    )
)
def test_recency_stack_equals_bruteforce(event_pcs):
    """One event at a time, the analyzer and the paper's literal
    O(statics) timestamp scan agree on counts and pair order."""
    events = [(0x1000 + 4 * pc, 3 * i + 1) for i, pc in enumerate(event_pcs)]
    expected = interleave_pairs_bruteforce(events)
    analyzer = InterleaveAnalyzer()
    for pc, _ in events:
        analyzer.observe(pc)
    assert list(analyzer.finish().pairs.items()) == list(expected.items())


def _stream(seed, events, statics):
    """PCs over *statics* branches with heavy-tailed frequencies: a few
    hot branches, many rare ones (long reuse distances)."""
    rng = np.random.default_rng(seed)
    weights = rng.pareto(1.0, statics) + 0.01
    picks = rng.choice(statics, events, p=weights / weights.sum())
    return (0x1000 + 4 * picks).astype(np.uint64)


def _cuts(seed, events):
    """Random chunk lengths that straddle the near window and the pass."""
    rng = np.random.default_rng(seed)
    sizes = [
        1, 2, interleave._WINDOW - 1, interleave._WINDOW,
        interleave._WINDOW + 1, 3 * interleave._WINDOW + 5,
        interleave._PASS - 1, interleave._PASS, interleave._PASS + 1,
    ]
    start = 0
    while start < events:
        size = int(rng.choice(sizes)) if rng.random() < 0.7 else int(
            rng.integers(1, 2 * interleave._PASS)
        )
        yield start, min(events, start + size)
        start += size


def _chunked(pcs, seed):
    analyzer = InterleaveAnalyzer()
    for lo, hi in _cuts(seed, len(pcs)):
        analyzer.observe_chunk(pcs[lo:hi], np.zeros(hi - lo, dtype=bool))
    return analyzer.finish()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    events=st.integers(min_value=1000, max_value=4000),
    statics=st.integers(min_value=1, max_value=100),
)
def test_chunked_analysis_matches_bruteforce_counts_and_order(
    seed, events, statics
):
    """Thousands of events, up to ~100 statics with rare branches, cut
    into random chunks: every pair count and the pairs' order equal the
    literal scan's."""
    pcs = _stream(seed, events, statics)
    expected = interleave_pairs_bruteforce(
        (pc, i) for i, pc in enumerate(pcs.tolist())
    )
    assert list(_chunked(pcs, seed).pairs.items()) == list(expected.items())


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    events=st.integers(min_value=interleave._PASS, max_value=40_000),
    statics=st.integers(min_value=1, max_value=400),
)
def test_chunking_never_changes_pairs_or_stats(seed, events, statics):
    """Streams longer than a pass give the same pairs, in the same
    order, and the same per-branch totals however they are chunked."""
    pcs = _stream(seed, events, statics)
    analyzer = InterleaveAnalyzer()
    analyzer.observe_chunk(pcs, np.zeros(len(pcs), dtype=bool))
    whole = analyzer.finish()
    cut = _chunked(pcs, seed)
    assert list(cut.pairs.items()) == list(whole.pairs.items())
    assert cut.branches == whole.branches


def test_state_round_trip_continues_identically():
    """An analyzer rebuilt from :meth:`state` mid-stream finishes exactly
    like one that never stopped."""
    pcs = _stream(7, 20_000, 60)
    taken = np.arange(len(pcs)) % 3 == 0
    straight = InterleaveAnalyzer(name="s")
    straight.observe_chunk(pcs, taken)
    resumed = InterleaveAnalyzer(name="s")
    resumed.observe_chunk(pcs[:9_000], taken[:9_000])
    resumed = InterleaveAnalyzer.from_state(resumed.state())
    resumed.observe_chunk(pcs[9_000:], taken[9_000:])
    a, b = straight.finish(), resumed.finish()
    assert list(a.pairs.items()) == list(b.pairs.items())
    assert a.branches == b.branches


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=2,
        max_size=100,
    )
)
def test_pair_counts_are_symmetric_and_positive(event_pcs):
    analyzer = InterleaveAnalyzer()
    for pc in event_pcs:
        analyzer.observe(0x40 + 4 * pc)
    profile = analyzer.finish()
    for (low, high), count in profile.pairs.items():
        assert low < high
        assert count > 0
        assert profile.interleave_count(high, low) == count
