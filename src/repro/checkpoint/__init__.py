"""Crash-safe simulation checkpoints and the suite run journal.

The paper's profiles run to hundreds of millions of instructions per
benchmark; at that horizon a preempted or killed worker must not throw
the whole run away.  This package makes long simulations *resumable*
rather than merely retryable:

* :mod:`repro.checkpoint.snapshot` — bit-exact snapshot/restore of the
  simulator (:class:`~repro.sim.state.MachineState`, sparse memory,
  environment RNG/cursor, executor counters) and of every
  :class:`~repro.pipeline.bus.BranchEventBus` consumer (interleave
  analyzer columns, predictor tables, trace chunk buffers, streaming
  stats) via the consumer snapshot hooks;
* :mod:`repro.checkpoint.store` — versioned, checksummed checkpoint
  files of mutable state, written with the same atomic staged-commit
  discipline as the artifact store, beside an append-only per-job log
  that receives each sealed trace block once; corrupt checkpoints are
  quarantined and readers fall back to the previous sequence number
  (then to a cold start);
* :mod:`repro.checkpoint.runner` — the sliced simulation loop that
  writes a checkpoint every ``checkpoint_every_events`` branch events
  and restores the latest valid one on restart, so a resumed run
  replays zero events and produces byte-identical artifacts;
* :mod:`repro.checkpoint.journal` — the append-only, fsynced
  ``journal.jsonl`` logging per-benchmark outcomes.  The engine only
  writes it; the shard supervisor, ``merge-shards`` and the analysis
  service read it.  A rerun continues an interrupted run by finding
  finished work in the artifact store, not in the journal.

See ``docs/EVAL.md`` ("Checkpoint & resume") for file formats and
retention, and ``docs/PIPELINE.md`` for the consumer snapshot hooks.
"""

from .journal import JOURNAL_VERSION, RunJournal
from .runner import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_SLICE_INSTRUCTIONS,
    MIN_SLICE_INSTRUCTIONS,
    CheckpointConfig,
    SimulationOutcome,
    run_simulation,
    slice_for_cadence,
)
from .snapshot import (
    restore_bus,
    restore_simulator,
    snapshot_bus,
    snapshot_simulator,
)
from .store import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointStore,
    prune_directory,
)

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "CheckpointStore",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_SLICE_INSTRUCTIONS",
    "JOURNAL_VERSION",
    "MIN_SLICE_INSTRUCTIONS",
    "RunJournal",
    "SimulationOutcome",
    "prune_directory",
    "restore_bus",
    "restore_simulator",
    "run_simulation",
    "slice_for_cadence",
    "snapshot_bus",
    "snapshot_simulator",
]
