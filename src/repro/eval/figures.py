"""Figure experiments (paper Figures 3 and 4).

Both figures compare misprediction rates of PAg predictors on each
benchmark:

* conventional PAg, 1024-entry PC-indexed BHT (the baseline);
* branch-allocated PAg at 16-, 128- and 1024-entry BHTs;
* interference-free PAg (the paper's 2M-entry BHT).

Figure 3 uses the plain allocator; Figure 4 the classification-enhanced
allocator.  All predictors share the 4096-entry PHT geometry (12-bit local
history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..allocation.allocator import BranchAllocator
from ..allocation.classified import ClassifiedBranchAllocator
from ..allocation.conflict_cost import BASELINE_BHT
from ..analysis.conflict_graph import DEFAULT_THRESHOLD
from ..pipeline.bus import BranchEventBus
from ..pipeline.consumers import PredictorConsumer
from ..predictors.twolevel import InterferenceFreePAg, PAgPredictor
from .engine import ExecutionEngine, experiment_benchmarks
from .report import render_table

HISTORY_BITS = 12        # 4096-entry PHT
ALLOCATED_SIZES = (16, 128, 1024)


@dataclass(frozen=True)
class FigureRow:
    """Misprediction rates for one benchmark (one group of figure bars).

    ``allocated`` maps BHT size -> misprediction rate.
    """

    benchmark: str
    allocated: Dict[int, float]
    conventional: float
    interference_free: float

    @property
    def improvement_at_baseline(self) -> float:
        """Relative misprediction reduction of allocated\\@1024 vs
        conventional\\@1024 (the paper's headline 16%)."""
        if self.conventional == 0:
            return 0.0
        return 1.0 - self.allocated[BASELINE_BHT] / self.conventional


def _figure_rows(
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]],
    classified: bool,
    threshold: int,
    sizes: Sequence[int],
) -> List[FigureRow]:
    rows: List[FigureRow] = []
    for name in experiment_benchmarks(engine, benchmarks, "figures"):
        artifacts = engine.artifacts(name)
        trace, profile = artifacts.trace, artifacts.profile
        if classified:
            allocator = ClassifiedBranchAllocator(profile, threshold=threshold)
        else:
            allocator = BranchAllocator(profile, threshold=threshold)
        # one chunked pass: the whole predictor bank rides the bus
        # together instead of replaying the trace once per predictor
        # (explicit consumer names — the bank repeats the PAg label)
        bank = [
            PredictorConsumer(
                PAgPredictor.allocated(
                    allocator.allocate(size).index_map(), HISTORY_BITS
                ),
                label=name,
                track_per_branch=False,
                name=f"predict:alloc@{size}",
            )
            for size in sizes
        ]
        conventional = PredictorConsumer(
            PAgPredictor.conventional(BASELINE_BHT, HISTORY_BITS),
            label=name,
            track_per_branch=False,
            name="predict:conventional",
        )
        infinite = PredictorConsumer(
            InterferenceFreePAg(HISTORY_BITS),
            label=name,
            track_per_branch=False,
            name="predict:interference-free",
        )
        stats = BranchEventBus.replay(
            trace, [*bank, conventional, infinite]
        )
        engine.stats.replayed_runs += 1
        engine.stats.pipeline.merge(stats)
        rows.append(
            FigureRow(
                benchmark=name,
                allocated={
                    size: consumer.result.misprediction_rate
                    for size, consumer in zip(sizes, bank)
                },
                conventional=conventional.result.misprediction_rate,
                interference_free=infinite.result.misprediction_rate,
            )
        )
    return rows


def run_figure3(
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]] = None,
    threshold: int = DEFAULT_THRESHOLD,
    sizes: Sequence[int] = ALLOCATED_SIZES,
) -> List[FigureRow]:
    """Regenerate Figure 3 (allocation without classification)."""
    return _figure_rows(
        engine, benchmarks, classified=False, threshold=threshold, sizes=sizes
    )


def run_figure4(
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]] = None,
    threshold: int = DEFAULT_THRESHOLD,
    sizes: Sequence[int] = ALLOCATED_SIZES,
) -> List[FigureRow]:
    """Regenerate Figure 4 (allocation with branch classification)."""
    return _figure_rows(
        engine, benchmarks, classified=True, threshold=threshold, sizes=sizes
    )


def format_figure(
    rows: Sequence[FigureRow],
    figure_name: str,
    detail: str,
    sizes: Sequence[int] = ALLOCATED_SIZES,
) -> str:
    headers = (
        ["benchmark"]
        + [f"alloc@{size}" for size in sizes]
        + [f"conv@{BASELINE_BHT}", "interference-free", "gain@1024"]
    )
    body = []
    for r in rows:
        body.append(
            [r.benchmark]
            + [f"{r.allocated[size]*100:.2f}%" for size in sizes]
            + [
                f"{r.conventional*100:.2f}%",
                f"{r.interference_free*100:.2f}%",
                f"{r.improvement_at_baseline*100:+.1f}%",
            ]
        )
    return render_table(
        headers,
        body,
        title=f"{figure_name}: PAg misprediction rates, {detail} "
        f"(PHT=4096, history={HISTORY_BITS} bits)",
    )


def average_improvement(rows: Sequence[FigureRow]) -> float:
    """Mean relative misprediction reduction of allocated\\@1024 vs the
    conventional baseline across benchmarks."""
    if not rows:
        return 0.0
    return sum(r.improvement_at_baseline for r in rows) / len(rows)
