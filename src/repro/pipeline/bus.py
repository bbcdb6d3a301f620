"""The columnar branch-event bus.

One simulation (or one pass over a recorded trace) produces *all* the
derived artifacts: the :class:`BranchEventBus` sits on the simulator's
branch hook, batches events into fixed-size columnar chunks, and fans
each full chunk out to pluggable consumers — the interleave profiler,
predictor banks, streaming trace statistics, and (optionally) a chunked
trace builder.  This replaces the seed's materialize-then-replay shape,
where a full :class:`~repro.trace.events.BranchTrace` was built out of
per-event Python list appends, round-tripped through the npz cache, and
then re-iterated once per profiler and once per predictor.

Two event sources feed the same consumer API:

* **live** — attach the bus as the simulator's ``branch_hook``
  (:meth:`BranchEventBus.on_branch`); events are staged in plain Python
  lists (the cheapest per-event operation available to a Python hook) and
  converted to numpy blocks at chunk boundaries;
* **replay** — :meth:`BranchEventBus.replay` streams a recorded
  :class:`~repro.trace.events.BranchTrace`'s columns through the same
  consumers in zero-copy array slices.

Chunks carry both representations lazily (:class:`EventChunk`): consumers
that iterate events share one ``tolist`` conversion per column, and
vectorized consumers (the predictors' chunk fast path) get contiguous
numpy views and one shared PC grouping (``np.unique`` with inverse),
computed once per chunk however many predictors ride the bus.  The bus
records per-consumer observability counters — events, chunks, seconds,
events/sec — surfaced by the engine's schema-v3 JSON envelope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..predictors.chunked import PCGroups
from ..trace.events import BranchTrace

#: Default events per chunk.  Large enough that per-chunk numpy/list
#: conversion overhead amortises to noise, small enough that four staged
#: columns stay cache-friendly and partial chunks flush promptly.
DEFAULT_CHUNK_EVENTS = 1 << 16


class EventConsumer(Protocol):
    """Anything that can ride the bus.

    Consumers see every chunk in program order via :meth:`on_chunk` and
    produce their artifact in :meth:`finish`.  They must not mutate the
    chunk (its arrays may be views into a shared trace).

    Consumers may additionally implement the optional checkpoint hook
    pair ``snapshot_state() -> object`` / ``restore_state(state)`` so
    mid-run state survives a worker kill (see
    :mod:`repro.checkpoint.snapshot`); consumers without the hooks are
    snapshotted via their instance ``__dict__``.  A consumer holding
    sealed, never-changing blocks adds ``sealed_blocks(start)`` and
    takes them back as ``restore_state(state, sealed)``, so checkpoints
    write each block once.
    """

    def on_chunk(self, chunk: "EventChunk") -> None:
        """Process one columnar batch of branch events (program order)."""
        ...

    def finish(self) -> object:
        """Finalize and return this consumer's artifact."""
        ...


class EventChunk:
    """A columnar batch of dynamic branch events.

    Holds the four event columns (pcs, targets, taken, timestamps) and
    converts lazily between numpy arrays and plain Python lists, caching
    each direction — so N consumers that iterate events share a single
    ``tolist`` per column, and vectorized consumers share a single
    ``np.asarray`` per column and a single PC grouping.
    """

    __slots__ = ("_n", "_arrays", "_lists", "_groups")

    def __init__(
        self,
        n: int,
        arrays: Optional[Tuple[np.ndarray, ...]] = None,
        lists: Optional[Tuple[list, ...]] = None,
    ) -> None:
        if arrays is None and lists is None:
            raise ValueError("chunk needs arrays or lists")
        self._n = n
        self._arrays = arrays
        self._lists = lists
        self._groups: Optional[PCGroups] = None

    @classmethod
    def from_lists(
        cls, pcs: list, targets: list, taken: list, timestamps: list
    ) -> "EventChunk":
        return cls(len(pcs), lists=(pcs, targets, taken, timestamps))

    @classmethod
    def from_arrays(
        cls,
        pcs: np.ndarray,
        targets: np.ndarray,
        taken: np.ndarray,
        timestamps: np.ndarray,
    ) -> "EventChunk":
        return cls(len(pcs), arrays=(pcs, targets, taken, timestamps))

    def __len__(self) -> int:
        return self._n

    # -- columnar views -----------------------------------------------------

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(pcs, targets, taken, timestamps) as numpy arrays (cached)."""
        if self._arrays is None:
            pcs, targets, taken, timestamps = self._lists
            self._arrays = (
                np.array(pcs, dtype=np.uint64),
                np.array(targets, dtype=np.uint64),
                np.array(taken, dtype=bool),
                np.array(timestamps, dtype=np.uint64),
            )
        return self._arrays

    def lists(self) -> Tuple[list, list, list, list]:
        """(pcs, targets, taken, timestamps) as Python lists (cached)."""
        if self._lists is None:
            self._lists = tuple(col.tolist() for col in self._arrays)
        return self._lists

    def pc_groups(self) -> PCGroups:
        """``(unique_pcs, inverse)`` of the PC column (cached)."""
        if self._groups is None:
            self._groups = np.unique(self.arrays()[0], return_inverse=True)
        return self._groups

    @property
    def pcs(self) -> np.ndarray:
        return self.arrays()[0]

    @property
    def targets(self) -> np.ndarray:
        return self.arrays()[1]

    @property
    def taken(self) -> np.ndarray:
        return self.arrays()[2]

    @property
    def timestamps(self) -> np.ndarray:
        return self.arrays()[3]


@dataclass
class ConsumerStats:
    """Observability counters for one consumer on one bus."""

    name: str
    chunks: int = 0
    events: int = 0
    seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.events / self.seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "chunks": self.chunks,
            "events": self.events,
            "seconds": round(self.seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
        }


@dataclass
class PipelineStats:
    """Counters for one bus run (and, merged, for an engine's lifetime)."""

    events: int = 0
    delivered: int = 0
    chunk_flushes: int = 0
    consumers: Dict[str, ConsumerStats] = field(default_factory=dict)

    def consumer(self, name: str) -> ConsumerStats:
        stats = self.consumers.get(name)
        if stats is None:
            stats = ConsumerStats(name=name)
            self.consumers[name] = stats
        return stats

    def merge(self, other: "PipelineStats") -> None:
        """Fold another run's counters into this accumulator."""
        self.events += other.events
        self.delivered += other.delivered
        self.chunk_flushes += other.chunk_flushes
        for name, theirs in other.consumers.items():
            mine = self.consumer(name)
            mine.chunks += theirs.chunks
            mine.events += theirs.events
            mine.seconds += theirs.seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "delivered": self.delivered,
            "chunk_flushes": self.chunk_flushes,
            "consumers": [
                self.consumers[name].as_dict()
                for name in sorted(self.consumers)
            ],
        }


class BranchEventBus:
    """Fans dynamic branch events out to consumers in columnar chunks.

    Usable directly as a simulator branch hook::

        bus = BranchEventBus([profiler, bank])
        Simulator(program, branch_hook=bus).run()
        bus.finish()
        profile = profiler.result
        stats = bank.result

    Args:
        consumers: initial consumer list (more via :meth:`subscribe`).
        chunk_events: events per chunk (block size of the columnar
            buffers).

    Every event is delivered; for a shorter trace, cut the captured one
    with :func:`repro.trace.sampling.truncate`.
    """

    def __init__(
        self,
        consumers: Optional[Sequence[EventConsumer]] = None,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.chunk_events = chunk_events
        self.stats = PipelineStats()
        self._consumers: List[Tuple[str, EventConsumer]] = []
        self._finished = False
        self._pcs: List[int] = []
        self._targets: List[int] = []
        self._taken: List[bool] = []
        self._timestamps: List[int] = []
        for consumer in consumers or ():
            self.subscribe(consumer)

    # -- consumer management ------------------------------------------------

    def subscribe(
        self, consumer: EventConsumer, name: Optional[str] = None
    ) -> EventConsumer:
        """Register *consumer*; returns it for chaining.

        Names must be unique on one bus (counters are keyed by name); an
        unnamed consumer uses its ``name`` attribute or class name.
        """
        if self._finished:
            raise RuntimeError("bus already finished")
        label = name or getattr(consumer, "name", type(consumer).__name__)
        if any(existing == label for existing, _ in self._consumers):
            raise ValueError(f"duplicate consumer name {label!r}")
        self._consumers.append((label, consumer))
        self.stats.consumer(label)
        return consumer

    @property
    def consumer_names(self) -> List[str]:
        return [name for name, _ in self._consumers]

    # -- live event intake (simulator hook) ---------------------------------

    def on_branch(
        self, pc: int, target: int, taken: bool, instruction_count: int
    ) -> None:
        """Simulator branch-hook entry point (one dynamic branch)."""
        self.stats.events += 1
        pcs = self._pcs
        pcs.append(pc)
        self._targets.append(target)
        self._taken.append(taken)
        self._timestamps.append(instruction_count)
        if len(pcs) >= self.chunk_events:
            self._flush()

    def __len__(self) -> int:
        """Events delivered or staged so far."""
        return self.stats.delivered + len(self._pcs)

    # -- chunk fan-out ------------------------------------------------------

    def _flush(self) -> None:
        chunk = EventChunk.from_lists(
            self._pcs, self._targets, self._taken, self._timestamps
        )
        self._pcs = []
        self._targets = []
        self._taken = []
        self._timestamps = []
        self._dispatch(chunk)

    def _dispatch(self, chunk: EventChunk) -> None:
        n = len(chunk)
        if n == 0:
            return
        self.stats.delivered += n
        self.stats.chunk_flushes += 1
        perf_counter = time.perf_counter
        for name, consumer in self._consumers:
            started = perf_counter()
            consumer.on_chunk(chunk)
            elapsed = perf_counter() - started
            counters = self.stats.consumers[name]
            counters.chunks += 1
            counters.events += n
            counters.seconds += elapsed

    def finish(self) -> PipelineStats:
        """Flush the partial tail chunk and finalize every consumer.

        Consumer results are read off the consumer objects themselves
        (each consumer's ``finish`` stores its artifact on ``result``).
        Idempotent: a second call is a no-op.
        """
        if not self._finished:
            self._flush()
            self._finished = True
            for _, consumer in self._consumers:
                consumer.finish()
        return self.stats

    # -- replay from a recorded trace ---------------------------------------

    def feed_trace(self, trace: BranchTrace) -> None:
        """Stream a recorded trace through the bus in array-slice chunks.

        Does not finish the bus — call :meth:`finish` after the last
        trace.
        """
        if self._pcs:
            self._flush()  # keep program order across mixed live/replay
        n = len(trace)
        self.stats.events += n
        step = self.chunk_events
        for start in range(0, n, step):
            stop = min(start + step, n)
            self._dispatch(
                EventChunk.from_arrays(
                    trace.pcs[start:stop],
                    trace.targets[start:stop],
                    trace.taken[start:stop],
                    trace.timestamps[start:stop],
                )
            )

    @classmethod
    def replay(
        cls,
        trace: BranchTrace,
        consumers: Sequence[EventConsumer],
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> PipelineStats:
        """One-shot helper: stream *trace* through *consumers* and finish."""
        bus = cls(consumers, chunk_events=chunk_events)
        bus.feed_trace(trace)
        return bus.finish()


__all__ = [
    "BranchEventBus",
    "ConsumerStats",
    "DEFAULT_CHUNK_EVENTS",
    "EventChunk",
    "EventConsumer",
    "PipelineStats",
]
