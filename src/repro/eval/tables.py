"""Table experiments (paper Tables 1–4).

Each ``run_tableN`` function regenerates the corresponding paper table over
exactly the benchmarks it is given (the experiment registry decides
which), returning typed rows plus helpers for rendering.  Absolute
values live in a different regime than the paper's 500M-instruction SPEC
runs; EXPERIMENTS.md records the per-claim qualitative comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..allocation.allocator import BranchAllocator
from ..allocation.classified import ClassifiedBranchAllocator, RESERVED_ENTRIES
from ..allocation.conflict_cost import BASELINE_BHT, conventional_cost
from ..allocation.sizing import required_bht_size
from ..analysis.conflict_graph import DEFAULT_THRESHOLD
from ..analysis.metrics import working_set_metrics
from ..trace.stats import summarize_trace
from ..workloads.suite import benchmark_suite
from .engine import ExecutionEngine
from .report import render_table


# --------------------------------------------------------------------------- #
# Table 1 — benchmarks, input sets, fraction of dynamic branches analyzed
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table1Row:
    benchmark: str
    input_set: str
    total_dynamic: int
    analyzed_dynamic: int
    percent_analyzed: float
    static_branches: int
    analyzed_static: int


def run_table1(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    coverage: float = 0.999,
) -> List[Table1Row]:
    """Regenerate Table 1: trace sizes and the frequency-cutoff coverage."""
    suite = benchmark_suite(engine.scale)
    rows: List[Table1Row] = []
    for name in benchmarks:
        artifacts = engine.artifacts(name)
        summary = summarize_trace(artifacts.trace, coverage=coverage)
        spec = suite.get(name) or suite.get(f"{name}_a")
        input_desc = (
            f"{spec.input.kind}/{spec.input.size}B/seed{spec.input.seed}"
            if spec
            else "?"
        )
        rows.append(
            Table1Row(
                benchmark=name,
                input_set=input_desc,
                total_dynamic=summary.total_dynamic,
                analyzed_dynamic=summary.analyzed_dynamic,
                percent_analyzed=summary.percent_analyzed,
                static_branches=summary.total_static,
                analyzed_static=summary.analyzed_static,
            )
        )
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(
        [
            "benchmark",
            "input set",
            "dynamic branches",
            "analyzed",
            "% analyzed",
            "statics",
            "kept",
        ],
        [
            (
                r.benchmark,
                r.input_set,
                r.total_dynamic,
                r.analyzed_dynamic,
                f"{r.percent_analyzed:.2f}%",
                r.static_branches,
                r.analyzed_static,
            )
            for r in rows
        ],
        title="Table 1: benchmarks, input sets, dynamic branches analyzed",
    )


# --------------------------------------------------------------------------- #
# Table 2 — working-set counts and sizes
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table2Row:
    benchmark: str
    total_sets: int
    average_static_size: float
    average_dynamic_size: float
    largest_size: int
    static_branches: int
    threshold: int


def run_table2(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    threshold: int = DEFAULT_THRESHOLD,
) -> List[Table2Row]:
    """Regenerate Table 2: the branch working set statistics."""
    rows: List[Table2Row] = []
    for name in benchmarks:
        profile = engine.profile(name)
        metrics = working_set_metrics(profile, threshold=threshold)
        rows.append(
            Table2Row(
                benchmark=name,
                total_sets=metrics.total_sets,
                average_static_size=metrics.average_static_size,
                average_dynamic_size=metrics.average_dynamic_size,
                largest_size=metrics.largest_size,
                static_branches=metrics.static_branches,
                threshold=metrics.threshold,
            )
        )
    return rows


def format_table2(rows: Sequence[Table2Row]) -> str:
    return render_table(
        [
            "benchmark",
            "working sets",
            "avg static size",
            "avg dynamic size",
            "largest",
            "statics",
        ],
        [
            (
                r.benchmark,
                r.total_sets,
                f"{r.average_static_size:.1f}",
                f"{r.average_dynamic_size:.1f}",
                r.largest_size,
                r.static_branches,
            )
            for r in rows
        ],
        title="Table 2: sizes of branch working sets (threshold="
        f"{rows[0].threshold if rows else DEFAULT_THRESHOLD})",
    )


# --------------------------------------------------------------------------- #
# Tables 3 & 4 — BHT size required by branch allocation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SizingRow:
    benchmark: str
    required_size: int
    baseline_cost: int
    achieved_cost: int
    static_branches: int


def run_table3(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    threshold: int = DEFAULT_THRESHOLD,
    baseline_bht: int = BASELINE_BHT,
) -> List[SizingRow]:
    """Regenerate Table 3: minimal BHT size for plain branch allocation."""
    rows: List[SizingRow] = []
    for name in benchmarks:
        profile = engine.profile(name)
        allocator = BranchAllocator(profile, threshold=threshold)
        baseline = conventional_cost(allocator.graph, baseline_bht)
        sizing = required_bht_size(allocator, baseline)
        rows.append(
            SizingRow(
                benchmark=name,
                required_size=sizing.required_size,
                baseline_cost=sizing.baseline_cost,
                achieved_cost=sizing.achieved_cost,
                static_branches=profile.static_branch_count,
            )
        )
    return rows


def run_table4(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    threshold: int = DEFAULT_THRESHOLD,
    baseline_bht: int = BASELINE_BHT,
) -> List[SizingRow]:
    """Regenerate Table 4: minimal BHT size with branch classification.

    The baseline is the same conventional 1024-entry PC-indexed
    configuration as Table 3, measured on the *unfiltered* conflict graph;
    the classified allocator's cost is measured on its filtered graph, per
    the paper's premise that same-class biased conflicts are harmless.
    """
    rows: List[SizingRow] = []
    for name in benchmarks:
        profile = engine.profile(name)
        plain = BranchAllocator(profile, threshold=threshold)
        baseline = conventional_cost(plain.graph, baseline_bht)
        allocator = ClassifiedBranchAllocator(profile, threshold=threshold)
        sizing = required_bht_size(
            allocator, baseline, min_size=RESERVED_ENTRIES + 1
        )
        rows.append(
            SizingRow(
                benchmark=name,
                required_size=sizing.required_size,
                baseline_cost=sizing.baseline_cost,
                achieved_cost=sizing.achieved_cost,
                static_branches=profile.static_branch_count,
            )
        )
    return rows


def format_sizing_table(
    rows: Sequence[SizingRow], table_name: str, detail: str
) -> str:
    return render_table(
        ["benchmark", "BHT size required", "baseline cost", "achieved cost"],
        [
            (r.benchmark, r.required_size, r.baseline_cost, r.achieved_cost)
            for r in rows
        ],
        title=f"{table_name}: BHT size required for branch allocation {detail}",
    )


def reduction_summary(
    table3: Sequence[SizingRow], table4: Sequence[SizingRow]
) -> Tuple[float, float]:
    """Mean BHT-size reduction vs the 1024-entry baseline for both tables.

    The paper's conclusion quotes 60–80% (plain) and up to 97%
    (classified).
    """
    def mean_reduction(rows: Sequence[SizingRow]) -> float:
        if not rows:
            return 0.0
        return sum(
            1.0 - r.required_size / BASELINE_BHT for r in rows
        ) / len(rows)

    return mean_reduction(table3), mean_reduction(table4)
