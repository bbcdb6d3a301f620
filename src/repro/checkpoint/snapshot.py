"""Bit-exact snapshot/restore of a quiesced simulation.

A snapshot is taken *between* executor slices — never from inside the
branch hook, where the interpreter's program counter and retired-count
live in loop locals and the object-visible state is stale.  At a slice
boundary :meth:`~repro.sim.executor.Executor.run` has synced ``state.pc``
and ``instruction_count``, so the pair of dicts produced here
(:func:`snapshot_simulator` + :func:`snapshot_bus`) is the *complete*
run state: restoring both into freshly-constructed objects and
continuing execution retires exactly the instruction the original
process would have retired next.

Snapshots are plain picklable dicts of plain data (lists, bytes, numpy
arrays) — views over live state, serialised by the checkpoint store at
``put`` time.  Take the snapshot and hand it to the store before running
the next slice.

Bus consumers participate through an optional hook pair::

    def snapshot_state(self) -> object: ...
    def restore_state(self, state: object) -> None: ...

All built-in consumers (:class:`~repro.pipeline.consumers.
InterleaveConsumer`, ``PredictorConsumer``, ``TraceBuilder``) implement
it.  A consumer without the hooks falls back to snapshotting its
instance ``__dict__`` wholesale, which is correct for any consumer whose
state is picklable attributes.

A consumer whose state is mostly sealed, never-changing blocks (the
``TraceBuilder``) keeps them out of its snapshot and adds a third
hook, ``sealed_blocks(start) -> [columns, ...]``; its restore hook then
takes the blocks back as ``restore_state(state, sealed)``.  The runner
encodes new sealed blocks with :func:`sealed_blocks` into the job's
append-only block log, so each block is written once however many
checkpoints follow.  A bus carries at most one such consumer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..errors import CheckpointCorrupt
from ..pipeline.bus import BranchEventBus
from ..sim.machine import Simulator

#: tag for the instance-``__dict__`` fallback consumer snapshot.
_VARS_TAG = "__vars__"
#: tag for hook-based consumer snapshots.
_HOOK_TAG = "__hook__"

#: column dtypes of one sealed block (pcs, targets, taken, timestamps),
#: in their order in an encoded block.
_BLOCK_DTYPES = (
    np.dtype(np.uint64), np.dtype(np.uint64), np.dtype(bool),
    np.dtype(np.uint64),
)
_EVENT_BYTES = sum(dtype.itemsize for dtype in _BLOCK_DTYPES)


# -- simulator ---------------------------------------------------------------


def snapshot_simulator(sim: Simulator) -> Dict[str, Any]:
    """Capture machine, memory, environment and executor counters.

    The program image itself is *not* captured — a restore target is
    constructed from the same :class:`~repro.workloads.build.
    BuiltWorkload`, and the checkpoint store keys files by the job's
    content digest so a program edit orphans old checkpoints instead of
    restoring the wrong memory image onto new code.
    """
    state = sim.state
    env = sim.environment
    executor = sim.executor
    return {
        "regs": list(state.regs),
        "pc": state.pc,
        "halted": state.halted,
        "exit_code": state.exit_code,
        "pages": {
            number: bytes(page)
            for number, page in state.memory._pages.items()
        },
        "env": {
            "cursor": env.cursor,
            "output": bytes(env.output),
            "rng": env._rng_state,
        },
        "executor": {
            "instructions": executor.instruction_count,
            "conditional_branches": executor.conditional_branch_count,
            "taken_branches": executor.taken_branch_count,
        },
    }


def restore_simulator(sim: Simulator, snap: Dict[str, Any]) -> None:
    """Overwrite a freshly-constructed simulator with snapshot state."""
    state = sim.state
    state.regs[:] = snap["regs"]
    state.pc = snap["pc"]
    state.halted = snap["halted"]
    state.exit_code = snap["exit_code"]
    state.memory._pages = {
        number: bytearray(page) for number, page in snap["pages"].items()
    }
    env = sim.environment
    env.cursor = snap["env"]["cursor"]
    env.output = bytearray(snap["env"]["output"])
    env._rng_state = snap["env"]["rng"]
    executor = sim.executor
    executor.instruction_count = snap["executor"]["instructions"]
    executor.conditional_branch_count = snap["executor"][
        "conditional_branches"
    ]
    executor.taken_branch_count = snap["executor"]["taken_branches"]


# -- bus + consumers ---------------------------------------------------------


def _snapshot_consumer(consumer: object) -> tuple:
    hook = getattr(consumer, "snapshot_state", None)
    if hook is not None:
        return (_HOOK_TAG, hook())
    return (_VARS_TAG, dict(vars(consumer)))


def _restore_consumer(
    consumer: object, tagged: tuple, sealed: Optional[list]
) -> None:
    tag, state = tagged
    if tag == _HOOK_TAG and sealed is not None:
        consumer.restore_state(state, sealed)  # type: ignore[attr-defined]
    elif tag == _HOOK_TAG:
        consumer.restore_state(state)  # type: ignore[attr-defined]
    else:
        vars(consumer).clear()
        vars(consumer).update(state)


def _block_logger(bus: BranchEventBus) -> Optional[Any]:
    """The bus's one consumer with a ``sealed_blocks`` hook, if any."""
    found = [c for _, c in bus._consumers if hasattr(c, "sealed_blocks")]
    if len(found) > 1:
        raise ValueError(
            f"at most one block-logging consumer per bus, got {len(found)}"
        )
    return found[0] if found else None


def _encode_block(columns: Sequence[np.ndarray]) -> bytes:
    """One sealed block's columns as log payload bytes."""
    return b"".join(
        np.ascontiguousarray(col, dtype=dtype).tobytes()
        for col, dtype in zip(columns, _BLOCK_DTYPES)
    )


def _decode_block(payload: Any) -> tuple:
    """Inverse of :func:`_encode_block` (read-only views of *payload*)."""
    n, rest = divmod(len(payload), _EVENT_BYTES)
    if rest:
        raise ValueError(f"block payload of {len(payload)} bytes is torn")
    columns, at = [], 0
    for dtype in _BLOCK_DTYPES:
        columns.append(np.frombuffer(payload, dtype, n, at))
        at += n * dtype.itemsize
    return tuple(columns)


def sealed_blocks(bus: BranchEventBus, start: int) -> List[bytes]:
    """Encoded sealed blocks from index *start* on, for the block log."""
    logger = _block_logger(bus)
    if logger is None:
        return []
    return [_encode_block(cols) for cols in logger.sealed_blocks(start)]


def snapshot_bus(bus: BranchEventBus) -> Dict[str, Any]:
    """Capture staged partial-chunk columns, counters and consumer state.

    The staged lists are snapshotted *without* flushing: forcing a flush
    at checkpoint time would shift every later chunk boundary, and
    chunk-boundary-sensitive consumer internals (e.g. the interleave
    analyzer's per-chunk insertion order) would then diverge from an
    uninterrupted run.  Snapshotting the partial chunk keeps a resumed
    run's chunk sequence — and therefore its artifacts — byte-identical.
    """
    stats = bus.stats
    return {
        "staged": (
            list(bus._pcs),
            list(bus._targets),
            list(bus._taken),
            list(bus._timestamps),
        ),
        "stats": {
            "events": stats.events,
            "delivered": stats.delivered,
            "chunk_flushes": stats.chunk_flushes,
            "consumers": {
                name: (c.chunks, c.events, c.seconds)
                for name, c in stats.consumers.items()
            },
        },
        "consumers": {
            name: _snapshot_consumer(consumer)
            for name, consumer in bus._consumers
        },
    }


def restore_bus(
    bus: BranchEventBus,
    snap: Dict[str, Any],
    sealed: Sequence[Any] = (),
) -> None:
    """Overwrite a freshly-constructed bus with snapshot state.

    *sealed* are the block-log payloads the snapshot's sealed blocks
    were written to; they go back to the block-logging consumer.  The
    bus must carry the same consumer set (by name) the snapshot was
    taken from; a mismatch raises :class:`~repro.errors.CheckpointCorrupt`
    *before* touching any state, so the caller can quarantine the file
    and cold-start cleanly.
    """
    names = set(bus.consumer_names)
    snapped = set(snap["consumers"])
    if names != snapped:
        raise CheckpointCorrupt(
            "checkpoint consumer set does not match the bus",
            expected=sorted(names),
            found=sorted(snapped),
        )
    logger = _block_logger(bus)
    blocks = [_decode_block(payload) for payload in sealed]
    pcs, targets, taken, timestamps = snap["staged"]
    bus._pcs = list(pcs)
    bus._targets = list(targets)
    bus._taken = list(taken)
    bus._timestamps = list(timestamps)
    stats = bus.stats
    stats.events = snap["stats"]["events"]
    stats.delivered = snap["stats"]["delivered"]
    stats.chunk_flushes = snap["stats"]["chunk_flushes"]
    for name, (chunks, events, seconds) in snap["stats"][
        "consumers"
    ].items():
        counters = stats.consumer(name)
        counters.chunks = chunks
        counters.events = events
        counters.seconds = seconds
    for name, consumer in bus._consumers:
        _restore_consumer(
            consumer,
            snap["consumers"][name],
            blocks if consumer is logger else None,
        )


__all__ = [
    "restore_bus",
    "restore_simulator",
    "sealed_blocks",
    "snapshot_bus",
    "snapshot_simulator",
]
