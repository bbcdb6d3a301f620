"""Figure experiments (paper Figures 3 and 4).

Both figures compare misprediction rates of PAg predictors on each
benchmark:

* conventional PAg, 1024-entry PC-indexed BHT (the baseline);
* branch-allocated PAg at 16-, 128- and 1024-entry BHTs;
* interference-free PAg (the paper's 2M-entry BHT).

Figure 3 uses the plain allocator; Figure 4 the classification-enhanced
allocator.  All predictors share the 4096-entry PHT geometry (12-bit local
history).

Each predictor's result over a stored trace is recorded beside the
entry (:func:`~repro.eval.store.replay_predictors`), so the two figures
replay the conventional and interference-free PAgs once between them,
and a rerun replays nothing.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..allocation.allocator import BranchAllocator
from ..allocation.classified import ClassifiedBranchAllocator
from ..allocation.conflict_cost import BASELINE_BHT
from ..analysis.conflict_graph import auto_threshold
from ..predictors.indexing import StaticIndexMap
from ..predictors.twolevel import InterferenceFreePAg, PAgPredictor
from .engine import ExecutionEngine
from .report import render_table
from .store import replay_predictors

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


def _map_identity(index_map: StaticIndexMap) -> str:
    """The record identity of an allocated PAg: its geometry and a sha256
    of its index map (the PC -> entry pairs and the fallback index)."""
    fallback = index_map.fallback
    text = json.dumps(
        [sorted(index_map.assignment.items()),
         type(fallback).__name__, vars(fallback)],
        sort_keys=True,
    )
    return (
        f"pag:allocated:bht={index_map.size}:history={HISTORY_BITS}:"
        f"map={hashlib.sha256(text.encode('ascii')).hexdigest()}"
    )


def _figure_rows(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    classified: bool,
    threshold: Optional[int],
    sizes: Sequence[int],
) -> List[FigureRow]:
    if threshold is None:
        threshold = auto_threshold(engine.scale)
    rows: List[FigureRow] = []
    for name in benchmarks:
        artifacts = engine.artifacts(name)
        profile = artifacts.profile
        if classified:
            allocator = ClassifiedBranchAllocator(profile, threshold=threshold)
        else:
            allocator = BranchAllocator(profile, threshold=threshold)
        bank = {}
        for size in sizes:
            index_map = allocator.allocate(size).index_map()
            bank[f"alloc@{size}"] = (
                _map_identity(index_map),
                functools.partial(
                    PAgPredictor.allocated, index_map, HISTORY_BITS
                ),
            )
        bank["conventional"] = (
            f"pag:conventional:bht={BASELINE_BHT}:history={HISTORY_BITS}",
            functools.partial(
                PAgPredictor.conventional, BASELINE_BHT, HISTORY_BITS
            ),
        )
        bank["interference-free"] = (
            f"pag:interference-free:history={HISTORY_BITS}",
            functools.partial(InterferenceFreePAg, HISTORY_BITS),
        )
        # the predictors with no record ride one chunked pass together
        results, stats = replay_predictors(
            engine.store, engine.job(name), engine.digest(name), bank,
            lambda: artifacts.trace,
        )
        if stats is not None:
            engine.stats.replayed_runs += 1
            engine.stats.pipeline.merge(stats)
        rows.append(
            FigureRow(
                benchmark=name,
                allocated={
                    size: results[f"alloc@{size}"].misprediction_rate
                    for size in sizes
                },
                conventional=results["conventional"].misprediction_rate,
                interference_free=results[
                    "interference-free"
                ].misprediction_rate,
            )
        )
    return rows


def run_figure3(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    threshold: Optional[int] = None,
    sizes: Sequence[int] = ALLOCATED_SIZES,
) -> List[FigureRow]:
    """Regenerate Figure 3 (allocation without classification)."""
    return _figure_rows(
        engine, benchmarks, classified=False, threshold=threshold, sizes=sizes
    )


def run_figure4(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    threshold: Optional[int] = None,
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
