"""Static-vs-dynamic verification: how good are the static analyses?

The paper's §5 allocation consumes a *profiled* conflict graph.  The
:mod:`repro.static_analysis` subsystem predicts that graph — and branch
directions, via the Ball–Larus heuristic catalogue — from program
structure alone.  This module scores both predictions against the
dynamic ground truth:

* :func:`run_static_compare` (the ``static_compare`` experiment)
  answers the allocation question: allocate once from the profiled
  graph and once from the static estimate, then score **both**
  assignments against the profiled graph at the same BHT size.
* :func:`run_verify_static` (the ``verify-static`` CLI command)
  answers the analysis question directly, per benchmark: the
  dynamic-weighted hit rate of the heuristic directions (with a
  per-heuristic breakdown), and the estimated conflict graph's
  working-set shape and edge precision/recall against the measured one.

``static_compare`` columns:

* ``conventional`` — conflict cost of PC-modulo indexing (no allocation);
* ``profiled`` — cost of the allocation computed from the profile;
* ``static`` — cost of the profile-free allocation, scored on the same
  profiled graph;
* ``static/prof`` — the quality ratio (1.0 means the static estimate
  allocated as well as the profile; guarded when the profiled cost is 0);
* ``vs conv`` — fraction of the conventional cost the static allocation
  removes, the headline "how far does zero profiling get you" number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..allocation.allocator import BranchAllocator
from ..allocation.conflict_cost import conflict_cost
from ..analysis.conflict_graph import (
    ConflictGraph,
    auto_threshold,
    build_conflict_graph,
)
from ..analysis.working_sets import partition_working_sets
from ..predictors.indexing import PCModuloIndex
from ..static_analysis.estimator import (
    StaticConflictEstimator,
    estimate_conflict_graph,
)
from ..static_analysis.heuristics import predict_branches
from ..workloads.build import build_workload
from ..workloads.registry import members
from ..workloads.suite import get_benchmark
from .engine import ExecutionEngine, shard_subset
from .report import render_table

#: Benchmarks covered by default (the acceptance floor is six).
DEFAULT_BENCHMARKS = (
    "compress", "gcc", "ijpeg", "li", "chess", "python", "tex",
)

DEFAULT_BHT_SIZE = 128


@dataclass(frozen=True)
class StaticCompareRow:
    """One benchmark's static-vs-profiled allocation comparison.

    All costs are conflict costs on the *profiled* graph at ``bht_size``.
    """

    benchmark: str
    bht_size: int
    static_branches: int
    predicted_edges: int
    profiled_edges: int
    conventional: int
    profiled_cost: int
    static_cost: int

    @property
    def ratio(self) -> Optional[float]:
        """static/profiled cost ratio.

        Defined as 1.0 when both costs are zero (the static allocation
        matched the profiled one exactly); None only when the profiled
        allocation reached zero and the static one did not.
        """
        if self.profiled_cost == 0:
            return 1.0 if self.static_cost == 0 else None
        return self.static_cost / self.profiled_cost

    @property
    def vs_conventional(self) -> Optional[float]:
        """Fraction of conventional cost removed by the static allocation."""
        if self.conventional == 0:
            return None
        return 1.0 - self.static_cost / self.conventional


def run_static_compare(
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]] = None,
    bht_size: int = DEFAULT_BHT_SIZE,
    threshold: Optional[int] = None,
) -> List[StaticCompareRow]:
    """Score static vs. profiled allocation on the profiled graph.

    Args:
        engine: supplies the profiled ground truth.
        benchmarks: analogs to cover (None = DEFAULT_BENCHMARKS,
            restricted to a sharded engine's slice).
        bht_size: BHT entries both allocations must fit into.
        threshold: edge-pruning threshold for both graphs.  Defaults to
            :func:`~repro.analysis.conflict_graph.auto_threshold` of the
            engine's scale, so the comparison stays meaningful on the
            short traces of downscaled runs.
    """
    if benchmarks is None:
        benchmarks = shard_subset(engine, DEFAULT_BENCHMARKS)
    if threshold is None:
        threshold = auto_threshold(engine.scale)
    rows: List[StaticCompareRow] = []
    for name in engine.prefetch(benchmarks):
        # the static path: build only, never simulate
        built = build_workload(get_benchmark(name, scale=engine.scale))
        static_graph = estimate_conflict_graph(
            built.program, threshold=threshold
        )
        static_allocation = BranchAllocator.from_graph(
            static_graph, threshold=threshold
        ).allocate(bht_size)

        # the profiled path: the existing pipeline, same threshold
        profile = engine.profile(name)
        profiled_graph = build_conflict_graph(
            profile, threshold=threshold
        )
        profiled_allocation = BranchAllocator(
            profile, threshold=threshold
        ).allocate(bht_size)

        # score every assignment on the profiled graph (the ground truth);
        # index_map() falls back to PC-modulo for branches an allocation
        # never saw, exactly as the predictor would
        rows.append(
            StaticCompareRow(
                benchmark=name,
                bht_size=bht_size,
                static_branches=built.static_conditional_branches,
                predicted_edges=static_graph.edge_count,
                profiled_edges=profiled_graph.edge_count,
                conventional=conflict_cost(
                    profiled_graph, PCModuloIndex(bht_size)
                ),
                profiled_cost=conflict_cost(
                    profiled_graph, profiled_allocation.index_map()
                ),
                static_cost=conflict_cost(
                    profiled_graph, static_allocation.index_map()
                ),
            )
        )
    return rows


def format_static_compare(rows: Sequence[StaticCompareRow]) -> str:
    def fmt_ratio(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.2f}"

    return render_table(
        [
            "benchmark", "branches", "conventional", "profiled",
            "static", "static/prof", "vs conv",
        ],
        [
            (
                r.benchmark,
                r.static_branches,
                r.conventional,
                r.profiled_cost,
                r.static_cost,
                fmt_ratio(r.ratio),
                fmt_ratio(r.vs_conventional),
            )
            for r in rows
        ],
        title=(
            "Static-estimated vs profiled allocation "
            f"(conflict cost on the profiled graph, {rows[0].bht_size} "
            "BHT entries)" if rows else "Static-estimated vs profiled "
            "allocation"
        ),
    )


# --------------------------------------------------------------------------- #
# verify-static: heuristic directions and estimated graphs vs the profile
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class HeuristicScore:
    """Dynamic agreement for the branches one heuristic rule predicted.

    Attributes:
        heuristic: rule name from the catalogue (``loop-back``, ``guard``,
            ...).
        branches: profiled static branches this rule predicted.
        executions: their total dynamic executions.
        hits: expected dynamic hits — for each branch, executions times
            the fraction of instances that went the predicted way.
    """

    heuristic: str
    branches: int
    executions: int
    hits: float

    @property
    def hit_rate(self) -> Optional[float]:
        """Dynamic-weighted hit rate (None when the rule never fired)."""
        if self.executions == 0:
            return None
        return self.hits / self.executions

    def as_dict(self) -> Dict[str, Any]:
        return {
            "heuristic": self.heuristic,
            "branches": self.branches,
            "executions": self.executions,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class VerifyStaticRow:
    """One benchmark's static-vs-dynamic verification scores.

    Direction scores cover the *profiled* branches (those that executed
    at least once); working-set and edge scores compare the estimated
    conflict graph with the measured one at the same edge threshold.
    """

    benchmark: str
    threshold: int
    static_branches: int      # branches the heuristics predicted
    profiled_branches: int    # branches that executed dynamically
    covered_branches: int     # intersection of the two
    executions: int           # dynamic executions of covered branches
    hits: float               # expected dynamic hits over those
    majority_correct: int     # covered branches matching majority behaviour
    heuristics: Tuple[HeuristicScore, ...]
    predicted_sets: int
    measured_sets: int
    predicted_largest: int
    measured_largest: int
    predicted_avg_size: float
    measured_avg_size: float
    predicted_edges: int
    measured_edges: int
    common_edges: int         # predicted edges the profile confirmed

    @property
    def hit_rate(self) -> Optional[float]:
        """Dynamic-weighted direction hit rate over covered branches."""
        if self.executions == 0:
            return None
        return self.hits / self.executions

    @property
    def majority_rate(self) -> Optional[float]:
        """Fraction of covered branches whose predicted direction matches
        the branch's dynamic majority direction (unweighted)."""
        if self.covered_branches == 0:
            return None
        return self.majority_correct / self.covered_branches

    @property
    def edge_precision(self) -> Optional[float]:
        """Fraction of predicted conflict edges the profile confirmed."""
        if self.predicted_edges == 0:
            return None
        return self.common_edges / self.predicted_edges

    @property
    def edge_recall(self) -> Optional[float]:
        """Fraction of measured conflict edges the estimate predicted."""
        if self.measured_edges == 0:
            return None
        return self.common_edges / self.measured_edges

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (for the CLI envelope)."""
        return {
            "benchmark": self.benchmark,
            "threshold": self.threshold,
            "static_branches": self.static_branches,
            "profiled_branches": self.profiled_branches,
            "covered_branches": self.covered_branches,
            "executions": self.executions,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "majority_correct": self.majority_correct,
            "majority_rate": self.majority_rate,
            "heuristics": [h.as_dict() for h in self.heuristics],
            "working_sets": {
                "predicted_sets": self.predicted_sets,
                "measured_sets": self.measured_sets,
                "predicted_largest": self.predicted_largest,
                "measured_largest": self.measured_largest,
                "predicted_avg_size": self.predicted_avg_size,
                "measured_avg_size": self.measured_avg_size,
            },
            "edges": {
                "predicted": self.predicted_edges,
                "measured": self.measured_edges,
                "common": self.common_edges,
                "precision": self.edge_precision,
                "recall": self.edge_recall,
            },
        }


def _edge_set(graph: ConflictGraph) -> Set[Tuple[int, int]]:
    return {(a, b) if a <= b else (b, a) for a, b, _ in graph.edges()}


def run_verify_static(
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]] = None,
    threshold: Optional[int] = None,
) -> List[VerifyStaticRow]:
    """Score the static analyses against measured profiles.

    For every benchmark: build the program, predict branch directions
    (Ball–Larus heuristics) and the conflict graph (trip-weighted loop
    estimator), then profile the same build and measure how often the
    directions agreed with the dynamic outcome and how closely the
    estimated graph's working-set structure tracks the measured one.

    Args:
        engine: supplies the profiled ground truth.
        benchmarks: analogs to cover (None = the registry's ``all`` set).
        threshold: edge threshold for both graphs (None = the
            ``auto_threshold`` of the engine's scale).
    """
    if benchmarks is None:
        benchmarks = shard_subset(engine, members("all"))
    if threshold is None:
        threshold = auto_threshold(engine.scale)
    rows: List[VerifyStaticRow] = []
    for name in engine.prefetch(benchmarks):
        built = build_workload(get_benchmark(name, scale=engine.scale))
        estimate = StaticConflictEstimator(
            threshold=threshold
        ).estimate(built.program)
        predictions = predict_branches(estimate.cfg)
        profile = engine.profile(name)

        executions = 0
        hits = 0.0
        covered = 0
        majority = 0
        by_rule: Dict[str, List[float]] = {}
        for pc, stats in profile.branches.items():
            prediction = predictions.get(pc)
            if prediction is None or stats.executions == 0:
                continue
            covered += 1
            executions += stats.executions
            rate = stats.taken_rate
            agreement = rate if prediction.taken else 1.0 - rate
            hits += stats.executions * agreement
            if prediction.taken == (rate >= 0.5):
                majority += 1
            bucket = by_rule.setdefault(prediction.heuristic, [0, 0, 0.0])
            bucket[0] += 1
            bucket[1] += stats.executions
            bucket[2] += stats.executions * agreement

        measured_graph = build_conflict_graph(
            profile, threshold=threshold
        )
        predicted_partition = partition_working_sets(estimate.graph)
        measured_partition = partition_working_sets(measured_graph)
        predicted_edges = _edge_set(estimate.graph)
        measured_edges = _edge_set(measured_graph)

        rows.append(
            VerifyStaticRow(
                benchmark=name,
                threshold=threshold,
                static_branches=len(predictions),
                profiled_branches=sum(
                    1 for s in profile.branches.values() if s.executions
                ),
                covered_branches=covered,
                executions=executions,
                hits=hits,
                majority_correct=majority,
                heuristics=tuple(
                    HeuristicScore(
                        heuristic=rule,
                        branches=int(count),
                        executions=int(execs),
                        hits=rule_hits,
                    )
                    for rule, (count, execs, rule_hits) in sorted(
                        by_rule.items(), key=lambda kv: (-kv[1][1], kv[0])
                    )
                ),
                predicted_sets=predicted_partition.count,
                measured_sets=measured_partition.count,
                predicted_largest=predicted_partition.largest_size,
                measured_largest=measured_partition.largest_size,
                predicted_avg_size=predicted_partition.average_static_size,
                measured_avg_size=measured_partition.average_static_size,
                predicted_edges=len(predicted_edges),
                measured_edges=len(measured_edges),
                common_edges=len(predicted_edges & measured_edges),
            )
        )
    return rows


def format_verify_static(rows: Sequence[VerifyStaticRow]) -> str:
    """Render the verification table plus the suite-wide summary line."""
    def pct(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.1%}"

    table = render_table(
        [
            "benchmark", "branches", "hit rate", "majority",
            "sets p/m", "largest p/m", "edge prec", "edge rec",
        ],
        [
            (
                r.benchmark,
                f"{r.covered_branches}/{r.profiled_branches}",
                pct(r.hit_rate),
                pct(r.majority_rate),
                f"{r.predicted_sets}/{r.measured_sets}",
                f"{r.predicted_largest}/{r.measured_largest}",
                pct(r.edge_precision),
                pct(r.edge_recall),
            )
            for r in rows
        ],
        title=(
            "Static-vs-dynamic verification (heuristic directions and "
            f"estimated conflict graphs, threshold {rows[0].threshold})"
            if rows else "Static-vs-dynamic verification"
        ),
    )
    total_exec = sum(r.executions for r in rows)
    total_hits = sum(r.hits for r in rows)
    if total_exec:
        table += (
            f"\nsuite dynamic hit rate: {total_hits / total_exec:.1%} "
            f"over {total_exec} branch executions"
        )
    return table
