"""Chunked predictor kernels against the scalar per-event loop.

One bank of predictors rides one bus over a random event stream, with a
random chunk size and warmup, so every predictor sees the same shared
PC grouping per chunk.  Each result must equal
``simulate_predictor(chunked=False)`` on a fresh predictor, and so must
the predictor's tables afterwards.  The bank covers both history kernels
(per-entry groups with aliasing, exact-PC groups, one global register),
counter widths 1-3, and a 131,072-entry PHT whose sort keys are too wide
for the ``uint16`` radix sort.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import PredictorConsumer
from repro.predictors.bht import BranchHistoryTable, InfiniteBHT
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.chunked import RADIX_SORT_KEYS
from repro.predictors.counters import CounterTable
from repro.predictors.gshare import GSharePredictor
from repro.predictors.indexing import StaticIndexMap
from repro.predictors.simulator import simulate_predictor
from repro.predictors.twolevel import (
    GAgPredictor,
    GAsPredictor,
    InterferenceFreePAg,
    PAgPredictor,
)
from repro.trace.events import BranchTrace

PCS = [0x1000 + 4 * i for i in range(24)]


def _bank():
    """(consumer name, fresh predictor) pairs; names are unique per bus."""
    allocated = StaticIndexMap(
        8, {PCS[0]: 3, PCS[1]: 3, PCS[2]: 5, PCS[7]: 0}
    )
    return [
        ("pag-conv4", PAgPredictor.conventional(4, 6)),
        ("pag-static", PAgPredictor.allocated(allocated, 5)),
        ("pag-infinite", InterferenceFreePAg(7)),
        ("gag", GAgPredictor(9)),
        ("gas", GAsPredictor(history_bits=5, set_bits=2)),
        ("bimodal-1bit", BimodalPredictor(16, bits=1)),
        ("bimodal-3bit", BimodalPredictor(8, bits=3)),
        ("gshare-17", GSharePredictor(history_bits=17)),
    ]


def _state(predictor):
    """Every table and register of a predictor, as plain values."""
    state = {}
    for name, value in vars(predictor).items():
        if isinstance(value, CounterTable):
            state[name] = list(value.table)
        elif isinstance(value, BranchHistoryTable):
            state[name] = list(value.table)
        elif isinstance(value, InfiniteBHT):
            state[name] = dict(value.table)
        elif isinstance(value, int):
            state[name] = value
    return state


def test_bank_exercises_both_sort_paths():
    sizes = {
        name: len(p.pht.table) for name, p in _bank() if hasattr(p, "pht")
    }
    assert sizes["gshare-17"] > RADIX_SORT_KEYS
    assert sizes["pag-conv4"] <= RADIX_SORT_KEYS


events = st.lists(
    st.tuples(st.sampled_from(PCS), st.booleans()), max_size=400
)


@settings(max_examples=60, deadline=None)
@given(
    events=events,
    chunk_events=st.integers(min_value=1, max_value=97),
    warmup=st.integers(min_value=0, max_value=60),
)
def test_chunked_bank_matches_scalar_loop(events, chunk_events, warmup):
    n = len(events)
    pcs = np.array([pc for pc, _ in events], dtype=np.uint64)
    trace = BranchTrace(
        pcs,
        pcs + np.uint64(8),
        np.array([taken for _, taken in events], dtype=bool),
        np.arange(1, n + 1, dtype=np.uint64),
        name="kernels",
    )
    consumers = [
        PredictorConsumer(predictor, label="kernels", warmup=warmup, name=name)
        for name, predictor in _bank()
    ]
    BranchEventBus.replay(trace, consumers, chunk_events=chunk_events)
    for consumer, (name, reference) in zip(consumers, _bank()):
        expected = simulate_predictor(
            reference, trace, warmup=warmup, chunked=False
        )
        got = consumer.result
        assert got.branches == expected.branches, name
        assert got.mispredictions == expected.mispredictions, name
        assert got.per_branch == expected.per_branch, name
        assert _state(consumer.predictor) == _state(reference), name
