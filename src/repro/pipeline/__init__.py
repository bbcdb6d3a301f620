"""Single-pass streaming pipeline: simulate → profile → predict, fused.

The :class:`BranchEventBus` sits on the simulator's branch hook, batches
dynamic branch events into columnar numpy chunks, and fans each chunk
out to pluggable consumers, so one simulation (or one pass over a
recorded trace) yields the interleave profile, prediction statistics for
a whole predictor bank and — optionally — the archived trace itself.
See ``docs/PIPELINE.md``.
"""

from .bus import (
    DEFAULT_CHUNK_EVENTS,
    BranchEventBus,
    ConsumerStats,
    EventChunk,
    EventConsumer,
    PipelineStats,
)
from .consumers import (
    InterleaveConsumer,
    PredictorConsumer,
    TraceBuilder,
    replay_bank,
)

__all__ = [
    "BranchEventBus",
    "ConsumerStats",
    "DEFAULT_CHUNK_EVENTS",
    "EventChunk",
    "EventConsumer",
    "InterleaveConsumer",
    "PipelineStats",
    "PredictorConsumer",
    "TraceBuilder",
    "replay_bank",
]
