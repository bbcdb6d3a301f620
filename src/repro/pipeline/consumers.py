"""Bus consumers: the pluggable sinks of the streaming pipeline.

Each consumer implements the two-method bus contract
(:meth:`on_chunk`/:meth:`finish`) and exposes its artifact as
``.result`` after the bus finishes:

* :class:`InterleaveConsumer` — the paper's time-stamp interleave
  analysis, producing an :class:`~repro.profiling.profile.
  InterleaveProfile` byte-identical to ``profile_trace`` over the same
  events;
* :class:`PredictorConsumer` — one predictor bank entry, producing
  :class:`~repro.predictors.simulator.PredictionStats` identical to
  ``simulate_predictor`` (including ``warmup`` handling), via the
  predictors' vectorized chunk fast path where available;
* :class:`TraceBuilder` — the chunked trace writer: accumulates columnar
  numpy blocks and concatenates them into an immutable
  :class:`~repro.trace.events.BranchTrace` at the end (optional — fused
  aggregate-only runs simply leave it off the bus);
* :class:`TraceStatsConsumer` — streaming whole-trace statistics
  (dynamic/static counts, taken fraction, timestamp span) without
  materializing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..predictors.base import BranchPredictor
from ..predictors.simulator import PredictionStats
from ..profiling.interleave import InterleaveAnalyzer
from ..profiling.profile import InterleaveProfile
from ..trace.events import BranchTrace
from .bus import BranchEventBus, EventChunk

_U64 = np.uint64


class InterleaveConsumer:
    """Streams events into a recency-stack :class:`InterleaveAnalyzer`.

    ``result`` (after ``finish``) matches ``profile_trace`` over the same
    event stream exactly: same branch stats, same pair counts, and
    ``instructions`` set to the last event's time stamp.
    """

    name = "interleave"

    def __init__(self, label: str = "<profile>") -> None:
        self._analyzer = InterleaveAnalyzer(name=label)
        self.result: Optional[InterleaveProfile] = None

    def on_chunk(self, chunk: EventChunk) -> None:
        pcs, _, taken, timestamps = chunk.arrays()
        self._analyzer.observe_chunk(pcs, taken)
        self._analyzer._instructions = int(timestamps[-1])

    def finish(self) -> InterleaveProfile:
        self.result = self._analyzer.finish()
        return self.result

    # -- checkpoint hooks (see repro.checkpoint.snapshot) --------------------

    def snapshot_state(self) -> object:
        return self._analyzer

    def restore_state(self, state: object) -> None:
        self._analyzer = state  # type: ignore[assignment]
        self.result = None


class PredictorConsumer:
    """Feeds one predictor and accumulates its prediction statistics.

    Equivalent to ``simulate_predictor(predictor, trace, ...)`` over the
    same events: the first *warmup* events train the predictor but are
    excluded from every counter (total and per-branch).
    """

    def __init__(
        self,
        predictor: BranchPredictor,
        label: str = "<stream>",
        track_per_branch: bool = True,
        warmup: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        self.predictor = predictor
        self.name = name or f"predict:{predictor.name}"
        self._stats = PredictionStats(
            predictor=predictor.name, trace=label
        )
        self._track = track_per_branch
        self._warmup = warmup
        self._offset = 0  # events seen before the current chunk
        self.result: Optional[PredictionStats] = None

    def on_chunk(self, chunk: EventChunk) -> None:
        pcs, targets, taken, _ = chunk.arrays()
        n = len(chunk)
        predictions = self.predictor.access_chunk(pcs, taken, targets)
        offset = self._offset
        self._offset = offset + n
        skip = self._warmup - offset  # events of this chunk still warming
        if skip >= n:
            return
        wrong = predictions != taken
        if skip > 0:
            pcs = pcs[skip:]
            wrong = wrong[skip:]
            n -= skip
        self._stats.branches += n
        self._stats.mispredictions += int(np.count_nonzero(wrong))
        if not self._track:
            return
        uniq, inverse = np.unique(pcs, return_inverse=True)
        executions = np.bincount(inverse, minlength=len(uniq))
        misses = np.bincount(
            inverse[wrong], minlength=len(uniq)
        )
        per_branch = self._stats.per_branch
        for pc, ex, mi in zip(
            uniq.tolist(), executions.tolist(), misses.tolist()
        ):
            entry = per_branch.get(pc)
            if entry is None:
                per_branch[pc] = [ex, mi]
            else:
                entry[0] += ex
                entry[1] += mi

    def finish(self) -> PredictionStats:
        self.result = self._stats
        return self.result

    # -- checkpoint hooks (see repro.checkpoint.snapshot) --------------------

    def snapshot_state(self) -> object:
        # The predictor object itself is snapshotted: its tables are
        # arbitrary per-implementation attributes (numpy arrays, ints)
        # that the checkpoint store pickles wholesale.
        return {
            "predictor": self.predictor,
            "stats": self._stats,
            "offset": self._offset,
        }

    def restore_state(self, state: object) -> None:
        self.predictor = state["predictor"]  # type: ignore[index]
        self._stats = state["stats"]  # type: ignore[index]
        self._offset = state["offset"]  # type: ignore[index]
        self.result = None


class TraceBuilder:
    """The chunked trace writer: columnar blocks, concatenated at finish.

    Ride it on a :class:`~repro.pipeline.bus.BranchEventBus` to capture a
    simulation's trace::

        builder = TraceBuilder("compress/default")
        bus = BranchEventBus([builder], limit=limit)
        Simulator(program, branch_hook=bus).run()
        bus.finish()
        trace = builder.result

    Blocks are compact numpy arrays as soon as a chunk is full (not one
    Python list per column, each event a boxed ``int``), so memory stays
    ~8 bytes per event per column and long traces stop being capped by
    the Python object heap.
    """

    name = "trace"

    def __init__(self, label: str = "<capture>") -> None:
        self.label = label
        self._blocks: List[EventChunk] = []
        self._events = 0
        self.result: Optional[BranchTrace] = None

    def __len__(self) -> int:
        return self._events

    def on_chunk(self, chunk: EventChunk) -> None:
        chunk.arrays()  # materialize columnar blocks eagerly
        self._blocks.append(chunk)
        self._events += len(chunk)

    def finish(self, label: Optional[str] = None) -> BranchTrace:
        name = label or self.label
        if not self._blocks:  # empty capture: well-formed zero-length trace
            empty = np.zeros(0, dtype=_U64)
            self.result = BranchTrace(
                empty, empty, np.zeros(0, dtype=bool), empty, name=name
            )
            return self.result
        columns = [block.arrays() for block in self._blocks]
        self.result = BranchTrace(
            np.concatenate([cols[0] for cols in columns]),
            np.concatenate([cols[1] for cols in columns]),
            np.concatenate([cols[2] for cols in columns]),
            np.concatenate([cols[3] for cols in columns]),
            name=name,
        )
        return self.result

    # -- checkpoint hooks (see repro.checkpoint.snapshot) --------------------

    def snapshot_state(self) -> object:
        # Column arrays, not EventChunk objects: the chunk is a lazy
        # dual-representation cache, the arrays are the actual state.
        return {
            "label": self.label,
            "events": self._events,
            "columns": [block.arrays() for block in self._blocks],
        }

    def restore_state(self, state: object) -> None:
        self.label = state["label"]  # type: ignore[index]
        self._events = state["events"]  # type: ignore[index]
        self._blocks = [
            EventChunk.from_arrays(*cols)
            for cols in state["columns"]  # type: ignore[index]
        ]
        self.result = None


@dataclass(frozen=True)
class StreamTraceStats:
    """Whole-trace statistics computed without materializing the trace."""

    name: str
    events: int
    taken: int
    static_branches: int
    first_timestamp: int
    last_timestamp: int

    @property
    def taken_fraction(self) -> float:
        if self.events == 0:
            return 0.0
        return self.taken / self.events

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "events": self.events,
            "taken": self.taken,
            "taken_fraction": round(self.taken_fraction, 6),
            "static_branches": self.static_branches,
            "first_timestamp": self.first_timestamp,
            "last_timestamp": self.last_timestamp,
        }


class TraceStatsConsumer:
    """Streaming Table-1-style counters (no trace materialization)."""

    name = "stats"

    def __init__(self, label: str = "<stream>") -> None:
        self.label = label
        self._events = 0
        self._taken = 0
        self._statics: set = set()
        self._first_ts: Optional[int] = None
        self._last_ts = 0
        self.result: Optional[StreamTraceStats] = None

    def on_chunk(self, chunk: EventChunk) -> None:
        pcs, _, taken, timestamps = chunk.arrays()
        self._events += len(chunk)
        self._taken += int(np.count_nonzero(taken))
        self._statics.update(np.unique(pcs).tolist())
        if self._first_ts is None:
            self._first_ts = int(timestamps[0])
        self._last_ts = int(timestamps[-1])

    def finish(self) -> StreamTraceStats:
        self.result = StreamTraceStats(
            name=self.label,
            events=self._events,
            taken=self._taken,
            static_branches=len(self._statics),
            first_timestamp=self._first_ts or 0,
            last_timestamp=self._last_ts,
        )
        return self.result

    # -- checkpoint hooks (see repro.checkpoint.snapshot) --------------------

    def snapshot_state(self) -> object:
        return {
            "label": self.label,
            "events": self._events,
            "taken": self._taken,
            "statics": set(self._statics),
            "first_ts": self._first_ts,
            "last_ts": self._last_ts,
        }

    def restore_state(self, state: object) -> None:
        self.label = state["label"]  # type: ignore[index]
        self._events = state["events"]  # type: ignore[index]
        self._taken = state["taken"]  # type: ignore[index]
        self._statics = set(state["statics"])  # type: ignore[index]
        self._first_ts = state["first_ts"]  # type: ignore[index]
        self._last_ts = state["last_ts"]  # type: ignore[index]
        self.result = None


def replay_bank(
    trace: BranchTrace,
    predictors: Sequence[BranchPredictor],
    warmup: int = 0,
    track_per_branch: bool = False,
    chunk_events: Optional[int] = None,
) -> Dict[str, PredictionStats]:
    """Run a predictor bank over a recorded trace in one chunked pass.

    The single-pass replacement for calling ``simulate_predictor`` once
    per predictor: the trace's columns are sliced into chunks once and
    every bank entry consumes the same chunk views (with the vectorized
    fast path where the predictor provides one).

    Raises:
        ValueError: if two predictors share a name (results would
            collide), mirroring ``compare_predictors``.
    """
    consumers: List[PredictorConsumer] = []
    seen = set()
    for predictor in predictors:
        if predictor.name in seen:
            raise ValueError(
                f"duplicate predictor name {predictor.name!r}"
            )
        seen.add(predictor.name)
        consumers.append(
            PredictorConsumer(
                predictor,
                label=trace.name,
                track_per_branch=track_per_branch,
                warmup=warmup,
            )
        )
    kwargs = {} if chunk_events is None else {"chunk_events": chunk_events}
    BranchEventBus.replay(trace, consumers, **kwargs)
    return {c.predictor.name: c.result for c in consumers}


__all__ = [
    "InterleaveConsumer",
    "PredictorConsumer",
    "StreamTraceStats",
    "TraceBuilder",
    "TraceStatsConsumer",
    "replay_bank",
]
