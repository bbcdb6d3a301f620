"""Bus consumers: the pluggable sinks of the streaming pipeline.

Each consumer implements the two-method bus contract
(:meth:`on_chunk`/:meth:`finish`) and exposes its artifact as
``.result`` after the bus finishes:

* :class:`InterleaveConsumer` — the paper's time-stamp interleave
  analysis, producing an :class:`~repro.profiling.profile.
  InterleaveProfile` (``profile_trace`` is a replay into one);
* :class:`PredictorConsumer` — one predictor bank entry, producing
  :class:`~repro.predictors.simulator.PredictionStats` identical to
  ``simulate_predictor`` (including ``warmup`` handling), via the
  predictors' vectorized chunk fast path where available;
* :class:`TraceBuilder` — the chunked trace writer: accumulates columnar
  numpy blocks and concatenates them into an immutable
  :class:`~repro.trace.events.BranchTrace` at the end (optional — fused
  aggregate-only runs simply leave it off the bus).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..predictors.base import BranchPredictor
from ..predictors.simulator import PredictionStats
from ..profiling.interleave import InterleaveAnalyzer
from ..profiling.profile import InterleaveProfile
from ..trace.events import BranchTrace
from .bus import BranchEventBus, EventChunk

_U64 = np.uint64


class InterleaveConsumer:
    """Streams events into an :class:`InterleaveAnalyzer`.

    ``result`` (after ``finish``) is the stream's profile, with
    ``instructions`` set to the last event's time stamp.
    """

    name = "interleave"

    def __init__(self, label: str = "<profile>") -> None:
        self._analyzer = InterleaveAnalyzer(name=label)
        self.result: Optional[InterleaveProfile] = None

    def on_chunk(self, chunk: EventChunk) -> None:
        pcs, _, taken, timestamps = chunk.arrays()
        self._analyzer.observe_chunk(
            pcs, taken, groups=chunk.pc_groups(),
            instructions=int(timestamps[-1]),
        )

    def finish(self) -> InterleaveProfile:
        self.result = self._analyzer.finish()
        return self.result

    # -- checkpoint hooks (see repro.checkpoint.snapshot) --------------------

    def snapshot_state(self) -> object:
        return self._analyzer.state()

    def restore_state(self, state: object) -> None:
        self._analyzer = InterleaveAnalyzer.from_state(state)  # type: ignore[arg-type]
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
        groups = chunk.pc_groups()
        n = len(chunk)
        predictions = self.predictor.access_chunk(
            pcs, taken, targets, groups=groups
        )
        offset = self._offset
        self._offset = offset + n
        skip = self._warmup - offset  # events of this chunk still warming
        if skip >= n:
            return
        wrong = predictions != taken
        uniq, inverse = groups
        if skip > 0:
            inverse = inverse[skip:]
            wrong = wrong[skip:]
            n -= skip
        self._stats.branches += n
        self._stats.mispredictions += int(np.count_nonzero(wrong))
        if not self._track:
            return
        executions = np.bincount(inverse, minlength=len(uniq))
        misses = np.bincount(
            inverse[wrong], minlength=len(uniq)
        )
        seen = executions > 0  # PCs that only ran while warming are skipped
        per_branch = self._stats.per_branch
        for pc, ex, mi in zip(
            uniq[seen].tolist(),
            executions[seen].tolist(),
            misses[seen].tolist(),
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
        bus = BranchEventBus([builder])
        Simulator(program, branch_hook=bus).run()
        bus.finish()
        trace = builder.result

    It captures every event; cut a shorter trace from the result with
    :func:`repro.trace.sampling.truncate`.

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
    # Sealed blocks never change, so a snapshot carries only their count;
    # the checkpoint runner writes each block to the job's append-only
    # block log once (``sealed_blocks``) and hands the log back on
    # restore.

    def snapshot_state(self) -> object:
        return {
            "label": self.label,
            "events": self._events,
            "blocks": len(self._blocks),
        }

    def sealed_blocks(
        self, start: int
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Column arrays of the sealed blocks from index *start* on."""
        return [block.arrays() for block in self._blocks[start:]]

    def restore_state(
        self,
        state: dict,
        sealed: Sequence[Tuple[np.ndarray, ...]],
    ) -> None:
        blocks = [EventChunk.from_arrays(*cols) for cols in sealed]
        events = sum(len(block) for block in blocks)
        if (len(blocks), events) != (state["blocks"], state["events"]):
            raise ValueError(
                f"trace snapshot names {state['blocks']} blocks of "
                f"{state['events']} events, the block log holds "
                f"{len(blocks)} of {events}"
            )
        self.label = state["label"]
        self._events = events
        self._blocks = blocks
        self.result = None


def replay_bank(
    trace: BranchTrace,
    predictors: Sequence[BranchPredictor],
    warmup: int = 0,
    track_per_branch: bool = False,
) -> Dict[str, PredictionStats]:
    """Run a predictor bank over a recorded trace in one chunked pass.

    The single-pass replacement for calling ``simulate_predictor`` once
    per predictor: the trace's columns are sliced into chunks once and
    every bank entry consumes the same chunk views (with the vectorized
    fast path where the predictor provides one).

    Raises:
        ValueError: if two predictors share a name (results would
            collide).
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
    BranchEventBus.replay(trace, consumers)
    return {c.predictor.name: c.result for c in consumers}


__all__ = [
    "InterleaveConsumer",
    "PredictorConsumer",
    "TraceBuilder",
    "replay_bank",
]
