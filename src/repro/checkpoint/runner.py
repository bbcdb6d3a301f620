"""The checkpointed simulation loop.

:func:`run_simulation` is the one simulate call inside engine jobs.  It
executes the same program with the same bus as the one-shot
:func:`~repro.workloads.build.run_workload`; with a checkpoint cadence
it drives the interpreter in *fuel slices* so there are periodic
quiesced points — the executor syncs ``state.pc`` and its
retired-instruction counter only when ``Executor.run`` returns, so a
checkpoint taken mid-hook would capture a stale machine.  Between
slices the simulation is exactly restorable.

A checkpoint is written whenever at least ``every_events`` new branch
events have accumulated since the last one (measured on the bus, which
counts every dynamic conditional branch).  Its cost is proportional to
the work since the previous one: trace blocks sealed since then are
appended to the job's block log, and the checkpoint file rewrites only
the mutable state.  On start-up the latest valid checkpoint for the
job's stem is restored — machine, memory, environment, executor
counters, the bus's staged partial chunk, and all consumer state,
sealed trace blocks read back from the log — so the resumed run replays
**zero** events and its chunk boundaries, profiles and traces are
byte-identical to an uninterrupted run's.

Slicing is semantically free: ``Executor.run`` accumulates counters
across calls and raises :class:`~repro.sim.executor.FuelExhausted`
whenever a (slice) budget runs out, which the loop treats as "slice
over" until the overall fuel is spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..sim.executor import FuelExhausted
from ..sim.machine import RunResult, Simulator
from ..workloads.build import BuiltWorkload
from .snapshot import (
    restore_bus,
    restore_simulator,
    sealed_blocks,
    snapshot_bus,
    snapshot_simulator,
)
from .store import CheckpointStore

#: Default checkpoint cadence in branch events for the daemon, the shard
#: supervisor and ``repro faults --kill``.  A killed or preempted job
#: loses at most this much work — about 0.1 s of superblock simulation —
#: and the cadence is coarse enough that ``slice_for_cadence`` keeps
#: full-size slices (any value >= 16,384 does).  Drain and deadline
#: stops checkpoint regardless of cadence.
DEFAULT_CHECKPOINT_EVERY = 20_000

#: Default instructions per executor slice.  Small enough that the
#: event-count checkpoint trigger and fault hooks are checked with fine
#: granularity, large enough that the per-slice Python call overhead is
#: noise against the interpreter's per-instruction cost.
DEFAULT_SLICE_INSTRUCTIONS = 1 << 16

#: Floor for auto-derived slice budgets, so a tiny ``every_events`` cannot
#: degenerate into per-instruction Python dispatch.
MIN_SLICE_INSTRUCTIONS = 1 << 10


def slice_for_cadence(every_events: int) -> int:
    """Instructions per slice for a checkpoint cadence of *every_events*.

    Checkpoints (and fault hooks) only fire **between** slices, so the
    slice budget bounds the achievable cadence: a 64 Ki-instruction slice
    in a branch-dense workload can cross several thousand events at once,
    silently coarsening a small ``every_events``.  Workloads here run
    4-10 instructions per conditional branch, so ``every_events * 4``
    instructions keeps slice boundaries at or below the requested event
    cadence while staying well above the per-slice call overhead floor.
    """
    return max(
        MIN_SLICE_INSTRUCTIONS,
        min(DEFAULT_SLICE_INSTRUCTIONS, every_events * 4),
    )


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint one simulation job."""

    store: CheckpointStore
    stem: str
    every_events: int

    def __post_init__(self) -> None:
        if self.every_events < 1:
            raise ValueError(
                f"every_events must be >= 1, got {self.every_events}"
            )

    @property
    def slice_instructions(self) -> int:
        """Executor slice budget, derived from the cadence."""
        return slice_for_cadence(self.every_events)


@dataclass
class SimulationOutcome:
    """One job's run result plus its checkpoint/resume provenance."""

    result: RunResult
    checkpoints_written: int = 0
    resumed_from_checkpoint: bool = False
    resumed_events: int = 0
    resumed_instructions: int = 0
    corrupt_checkpoints: int = 0
    #: True when ``stop_check`` ended the run early (drain): the result
    #: is a mid-run state whose progress lives in the final checkpoint,
    #: not a finished simulation.
    interrupted: bool = False


def _run_result(sim: Simulator) -> RunResult:
    return RunResult(
        instructions=sim.executor.instruction_count,
        conditional_branches=sim.executor.conditional_branch_count,
        taken_branches=sim.executor.taken_branch_count,
        halted=sim.state.halted,
        exit_code=sim.state.exit_code,
        output=bytes(sim.environment.output),
    )


def run_simulation(
    built: BuiltWorkload,
    bus: Any,
    config: Optional[CheckpointConfig] = None,
    fault_plan: Optional[Any] = None,
    benchmark: str = "",
    in_worker: bool = False,
    backend: Optional[Any] = None,
    stop_check: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> SimulationOutcome:
    """Simulate *built* through *bus*, checkpointing and resuming.

    Args:
        built: the assembled workload.
        bus: the simulator branch hook (normally a
            :class:`~repro.pipeline.bus.BranchEventBus`); the caller
            finishes it and reads consumer results afterwards.
        config: checkpoint store/stem/cadence; None disables
            checkpointing entirely (one executor slice spending the
            spec's whole fuel budget, exactly what
            :func:`~repro.workloads.build.run_workload` does).
        fault_plan: optional fault-injection plan; its ``on_events``
            hook fires after every slice (so once, at the end, without
            a *config*) with the bus's live event count (the
            ``worker_kill`` fault mode).
        benchmark: benchmark tag passed to fault hooks.
        in_worker: whether this runs in a sacrificial worker process.
        backend: simulation backend name or instance; backends are
            byte-compatible, so a checkpoint written by one can be
            resumed by another.
        stop_check: polled between slices (SIGTERM drain); when it
            returns True the loop writes one final checkpoint —
            regardless of cadence — and returns with
            ``outcome.interrupted`` set, so a drained job loses zero
            progress and the next run resumes exactly here.
        progress: called after every slice with the bus's live branch
            event count — the liveness side-channel supervised shard
            workers use to refresh heartbeat leases and store claims.
            Exceptions propagate (a progress hook that raises is a bug
            or an injected fault, never swallowed).

    Truncation by fuel is normal (mirrors ``run_workload``): the outcome
    result reports ``halted=False`` rather than raising.
    """
    fuel = built.spec.fuel
    sim = Simulator(
        built.program,
        input_data=built.input_data,
        branch_hook=bus,
        random_seed=built.spec.random_seed,
        backend=backend,
    )
    outcome = SimulationOutcome(result=_run_result(sim))
    next_seq = 1
    last_checkpoint_events = 0

    if config is not None:
        log = config.store.log(config.stem)
        loaded = config.store.load_latest(config.stem)
        outcome.corrupt_checkpoints = len(config.store.corrupt_events)
        if loaded is not None:
            header, payload = loaded
            fresh = snapshot_bus(bus)
            try:
                sealed = log.restore(header)
                restore_simulator(sim, payload["sim"])
                restore_bus(bus, payload["bus"], sealed)
            except Exception as exc:
                # Verified container but unrestorable state (a damaged
                # block log, a changed bus consumer set): quarantine
                # the job's log and checkpoints, and cold-start.
                restore_bus(bus, fresh)
                config.store.quarantine_job(
                    config.stem,
                    f"restore of seq {header['seq']} failed: "
                    f"{type(exc).__name__}: {exc}",
                )
                outcome.corrupt_checkpoints += 1
                sim = Simulator(
                    built.program,
                    input_data=built.input_data,
                    branch_hook=bus,
                    random_seed=built.spec.random_seed,
                    backend=backend,
                )
            else:
                outcome.resumed_from_checkpoint = True
                outcome.resumed_events = bus.stats.events
                outcome.resumed_instructions = sim.executor.instruction_count
                next_seq = int(header["seq"]) + 1
                last_checkpoint_events = bus.stats.events
        if not outcome.resumed_from_checkpoint:
            log.reset()  # a cold run rewrites the log from block zero

    slice_budget = (
        config.slice_instructions if config is not None else fuel
    )
    remaining = fuel - sim.executor.instruction_count
    while not sim.state.halted and remaining > 0:
        try:
            sim.executor.run(min(slice_budget, remaining))
        except FuelExhausted:
            pass  # slice budget spent; the loop decides whether to go on
        remaining = fuel - sim.executor.instruction_count
        if fault_plan is not None:
            fault_plan.on_events(benchmark, bus.stats.events, in_worker)
        if progress is not None:
            progress(bus.stats.events)
        stopping = (
            stop_check is not None
            and not sim.state.halted
            and remaining > 0
            and stop_check()
        )
        if (
            config is not None
            and not sim.state.halted
            and remaining > 0
            and (
                stopping
                or bus.stats.events - last_checkpoint_events
                >= config.every_events
            )
        ):
            # the log append is durable before the checkpoint naming
            # its new length commits; a kill in between leaves a tail
            # the next restore truncates
            log.append(sealed_blocks(bus, log.blocks))
            payload = {
                "sim": snapshot_simulator(sim),
                "bus": snapshot_bus(bus),
            }
            meta: Dict[str, object] = {
                "benchmark": benchmark,
                "events": bus.stats.events,
                "instructions": sim.executor.instruction_count,
                **log.position(),
            }
            config.store.put(config.stem, next_seq, payload, meta)
            next_seq += 1
            outcome.checkpoints_written += 1
            last_checkpoint_events = bus.stats.events
        if stopping:
            outcome.interrupted = True
            break

    outcome.result = _run_result(sim)
    return outcome


__all__ = [
    "CheckpointConfig",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_SLICE_INSTRUCTIONS",
    "SimulationOutcome",
    "run_simulation",
]
