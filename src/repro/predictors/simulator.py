"""Trace-driven predictor simulation (the sim-bpred analog).

:func:`simulate_predictor` replays a recorded :class:`~repro.trace.events.
BranchTrace` through a predictor and reports aggregate plus per-branch
misprediction statistics — the quantities behind the paper's Figures 3/4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..trace.events import BranchTrace
from .base import BranchPredictor


@dataclass
class PredictionStats:
    """Outcome of one predictor/trace run.

    Attributes:
        predictor: predictor label.
        trace: trace label.
        branches: dynamic conditional branches simulated.
        mispredictions: total mispredicted branches.
        per_branch: static PC -> (executions, mispredictions).
    """

    predictor: str
    trace: str
    branches: int = 0
    mispredictions: int = 0
    per_branch: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def misprediction_rate(self) -> float:
        """Fraction of dynamic branches mispredicted."""
        if self.branches == 0:
            return 0.0
        return self.mispredictions / self.branches

    @property
    def accuracy(self) -> float:
        """Prediction accuracy (1 - misprediction rate)."""
        return 1.0 - self.misprediction_rate

    def misprediction_rate_of(self, pc: int) -> float:
        """Per-static-branch misprediction rate (0.0 if unseen)."""
        entry = self.per_branch.get(pc)
        if not entry or entry[0] == 0:
            return 0.0
        return entry[1] / entry[0]

    def worst_branches(self, limit: int = 10) -> List[int]:
        """PCs with the most mispredictions, descending."""
        ranked = sorted(
            self.per_branch.items(), key=lambda kv: (-kv[1][1], kv[0])
        )
        return [pc for pc, _ in ranked[:limit]]


def simulate_predictor(
    predictor: BranchPredictor,
    trace: BranchTrace,
    track_per_branch: bool = True,
    warmup: int = 0,
    chunked: bool = True,
) -> PredictionStats:
    """Replay *trace* through *predictor*.

    Args:
        predictor: the predictor (consumed statefully; reset it first if
            reusing).
        trace: the branch trace.
        track_per_branch: disable to save memory/time on huge traces.
        warmup: events at the head of the trace that train the predictor but
            are excluded from the statistics.
        chunked: replay through the streaming pipeline's columnar chunks
            (default), riding the predictor's vectorized
            ``access_chunk`` fast path.  ``False`` forces the classic
            per-event loop — the reference implementation the
            equivalence tests compare against.

    Returns:
        The accumulated :class:`PredictionStats`.

    Raises:
        ValueError: if warmup is negative.
    """
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if chunked:
        # late import: the pipeline package sits above the predictors
        from ..pipeline.bus import BranchEventBus
        from ..pipeline.consumers import PredictorConsumer

        consumer = PredictorConsumer(
            predictor,
            label=trace.name,
            track_per_branch=track_per_branch,
            warmup=warmup,
        )
        BranchEventBus.replay(trace, [consumer])
        return consumer.result
    stats = PredictionStats(predictor=predictor.name, trace=trace.name)
    per_branch = stats.per_branch
    access = predictor.access
    pcs = trace.pcs.tolist()
    targets = trace.targets.tolist()
    outcomes = trace.taken.tolist()
    branches = 0
    mispredictions = 0
    for i in range(len(pcs)):
        pc = pcs[i]
        taken = outcomes[i]
        prediction = access(pc, taken, targets[i])
        if i < warmup:
            continue
        branches += 1
        wrong = prediction != taken
        if wrong:
            mispredictions += 1
        if track_per_branch:
            entry = per_branch.get(pc)
            if entry is None:
                per_branch[pc] = [1, 1 if wrong else 0]
            else:
                entry[0] += 1
                if wrong:
                    entry[1] += 1
    stats.branches = branches
    stats.mispredictions = mispredictions
    return stats
