"""Ablation experiments backing the paper's side claims.

* **Threshold sweep** — §4.2: "Other threshold values such as 500 or 1000
  show no significant difference on the results."
* **Input sensitivity** — §5.2: different profile inputs (perl_a/b,
  ss_a/b) change the required BHT size; merging profiles (the cumulative
  approach) covers both runs without blowing the table up.
* **Predictor family** — context: how the paper's PAg compares with GAg,
  gshare, bimodal, hybrid and agree on the same traces.
* **Index-hash baseline** — is compiler allocation better than just a
  stronger hash (xor-fold)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..allocation.allocator import BranchAllocator
from ..allocation.conflict_cost import (
    BASELINE_BHT,
    conflict_cost,
    conventional_cost,
)
from ..allocation.sizing import required_bht_size
from ..analysis.metrics import working_set_metrics
from ..predictors.agree import AgreePredictor
from ..predictors.bimodal import BimodalPredictor
from ..predictors.filtered import BiasFilteredPredictor
from ..predictors.gshare import GSharePredictor
from ..predictors.hybrid import HybridPredictor
from ..predictors.indexing import XorFoldIndex
from ..predictors.simulator import simulate_predictor
from ..predictors.twolevel import GAgPredictor, PAgPredictor
from ..profiling.merge import merge_profiles
from .engine import ExecutionEngine
from .figures import HISTORY_BITS
from .report import render_table

DEFAULT_THRESHOLDS = (50, 100, 500, 1000)


# --------------------------------------------------------------------------- #
# Threshold sensitivity
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ThresholdRow:
    benchmark: str
    threshold: int
    total_sets: int
    average_static_size: float
    average_dynamic_size: float


def run_threshold_ablation(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
) -> List[ThresholdRow]:
    """Working-set metrics across edge-pruning thresholds."""
    rows: List[ThresholdRow] = []
    for name in benchmarks:
        profile = engine.profile(name)
        for threshold in thresholds:
            metrics = working_set_metrics(profile, threshold=threshold)
            rows.append(
                ThresholdRow(
                    benchmark=name,
                    threshold=threshold,
                    total_sets=metrics.total_sets,
                    average_static_size=metrics.average_static_size,
                    average_dynamic_size=metrics.average_dynamic_size,
                )
            )
    return rows


def format_threshold_ablation(rows: Sequence[ThresholdRow]) -> str:
    return render_table(
        ["benchmark", "threshold", "sets", "avg static", "avg dynamic"],
        [
            (
                r.benchmark,
                r.threshold,
                r.total_sets,
                f"{r.average_static_size:.1f}",
                f"{r.average_dynamic_size:.1f}",
            )
            for r in rows
        ],
        title="Ablation: conflict-edge threshold sensitivity (paper §4.2)",
    )


# --------------------------------------------------------------------------- #
# Input sensitivity and cumulative profiles
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class InputSensitivityRow:
    benchmark: str        # base name, e.g. "ss"
    size_a: int           # required BHT from profile A
    size_b: int           # required BHT from profile B
    size_merged: int      # required BHT from the merged (cumulative) profile
    cross_cost_a_on_b: int  # allocation from A evaluated on B's graph


def run_input_sensitivity(
    engine: ExecutionEngine,
    pairs: Sequence[str] = ("perl", "ss"),
    baseline_bht: int = BASELINE_BHT,
) -> List[InputSensitivityRow]:
    """The §5.2 experiment: per-input required size + cumulative merge."""
    rows: List[InputSensitivityRow] = []
    for base in pairs:
        profile_a = engine.profile(f"{base}_a")
        profile_b = engine.profile(f"{base}_b")
        merged = merge_profiles([profile_a, profile_b], name=f"{base}_merged")

        alloc_a = BranchAllocator(profile_a)
        alloc_b = BranchAllocator(profile_b)
        alloc_m = BranchAllocator(merged)
        size_a = required_bht_size(
            alloc_a, conventional_cost(alloc_a.graph, baseline_bht)
        ).required_size
        size_b = required_bht_size(
            alloc_b, conventional_cost(alloc_b.graph, baseline_bht)
        ).required_size
        size_m = required_bht_size(
            alloc_m, conventional_cost(alloc_m.graph, baseline_bht)
        ).required_size

        # profile-mismatch cost: allocate from A at its own required size,
        # then measure the conflicts that mapping leaves on B's graph
        assignment = alloc_a.allocate(size_a).assignment
        fallback_size = max(size_a, 1)
        cross = conflict_cost(
            alloc_b.graph,
            lambda pc: assignment.get(pc, (pc >> 2) % fallback_size),
        )
        rows.append(
            InputSensitivityRow(
                benchmark=base,
                size_a=size_a,
                size_b=size_b,
                size_merged=size_m,
                cross_cost_a_on_b=cross,
            )
        )
    return rows


def format_input_sensitivity(rows: Sequence[InputSensitivityRow]) -> str:
    return render_table(
        [
            "benchmark",
            "size (input A)",
            "size (input B)",
            "size (merged)",
            "A-alloc cost on B",
        ],
        [
            (r.benchmark, r.size_a, r.size_b, r.size_merged,
             r.cross_cost_a_on_b)
            for r in rows
        ],
        title="Ablation: profile input sensitivity and cumulative profiles "
        "(paper §5.2)",
    )


# --------------------------------------------------------------------------- #
# Predictor family comparison
# --------------------------------------------------------------------------- #


def run_predictor_family(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    history_bits: int = HISTORY_BITS,
) -> Dict[str, Dict[str, float]]:
    """Misprediction rates of the predictor family per benchmark.

    The whole bank — including the profile-free ``static-heur``
    heuristic predictor — replays each trace in one chunked pass via
    :func:`~repro.pipeline.consumers.replay_bank`.
    """
    from ..pipeline.consumers import replay_bank
    from ..predictors.static_pred import StaticHeuristicPredictor
    from ..workloads.build import build_workload
    from ..workloads.suite import get_benchmark

    results: Dict[str, Dict[str, float]] = {}
    for name in benchmarks:
        trace = engine.trace(name)
        profile = engine.profile(name)
        built = build_workload(get_benchmark(name, scale=engine.scale))
        predictors = [
            PAgPredictor.conventional(BASELINE_BHT, history_bits),
            GAgPredictor(history_bits),
            GSharePredictor(history_bits),
            BimodalPredictor(2048),
            HybridPredictor(
                GSharePredictor(history_bits), BimodalPredictor(4096)
            ),
            AgreePredictor(history_bits, profile=profile),
            BiasFilteredPredictor(
                PAgPredictor.conventional(BASELINE_BHT, history_bits), profile
            ),
            StaticHeuristicPredictor.from_program(built.program),
        ]
        stats = replay_bank(trace, predictors)
        results[name] = {
            predictor_name: s.misprediction_rate
            for predictor_name, s in stats.items()
        }
    return results


def format_predictor_family(results: Dict[str, Dict[str, float]]) -> str:
    if not results:
        return "(no results)"
    predictor_names = list(next(iter(results.values())))
    return render_table(
        ["benchmark"] + predictor_names,
        [
            [name] + [f"{results[name][p]*100:.2f}%" for p in predictor_names]
            for name in results
        ],
        title="Ablation: predictor family misprediction rates",
    )


# --------------------------------------------------------------------------- #
# Stronger-hash baseline
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class HashBaselineRow:
    benchmark: str
    conventional_cost: int
    xorfold_cost: int
    allocated_cost: int


def run_hash_baseline(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    bht_size: int = 1024,
) -> List[HashBaselineRow]:
    """Conflict cost: PC-modulo vs xor-fold hash vs compiler allocation.

    Tests whether the paper's conclusion ("develop better hashing
    algorithms by analyzing ... branches") needs the profile, or whether a
    better blind hash suffices.
    """
    rows: List[HashBaselineRow] = []
    for name in benchmarks:
        profile = engine.profile(name)
        allocator = BranchAllocator(profile)
        graph = allocator.graph
        rows.append(
            HashBaselineRow(
                benchmark=name,
                conventional_cost=conventional_cost(graph, bht_size),
                xorfold_cost=conflict_cost(graph, XorFoldIndex(bht_size)),
                allocated_cost=allocator.allocate(bht_size).cost,
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# History-length sensitivity (the paper fixes a 4096-entry PHT = 12 bits)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class HistorySweepRow:
    benchmark: str
    history_bits: int
    conventional: float      # conventional 1024-entry PAg
    allocated: float         # allocated 1024-entry PAg
    interference_free: float


def run_history_sweep(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    history_bits: Sequence[int] = (4, 6, 8, 10, 12),
    bht_size: int = 1024,
    threshold: Optional[int] = None,
) -> List[HistorySweepRow]:
    """PAg accuracy vs local-history length, with and without allocation.

    Verifies that the allocation gain is not an artifact of the paper's
    chosen 12-bit/4096-entry PHT geometry.
    """
    from ..analysis.conflict_graph import DEFAULT_THRESHOLD
    from ..predictors.twolevel import InterferenceFreePAg

    if threshold is None:
        threshold = DEFAULT_THRESHOLD
    rows: List[HistorySweepRow] = []
    for name in benchmarks:
        artifacts = engine.artifacts(name)
        trace = artifacts.trace
        allocator = BranchAllocator(artifacts.profile, threshold=threshold)
        index_map = allocator.allocate(bht_size).index_map()
        for bits in history_bits:
            def rate(predictor) -> float:
                return simulate_predictor(
                    predictor, trace, track_per_branch=False
                ).misprediction_rate

            rows.append(
                HistorySweepRow(
                    benchmark=name,
                    history_bits=bits,
                    conventional=rate(
                        PAgPredictor.conventional(bht_size, bits)
                    ),
                    allocated=rate(PAgPredictor.allocated(index_map, bits)),
                    interference_free=rate(InterferenceFreePAg(bits)),
                )
            )
    return rows


def format_history_sweep(rows: Sequence[HistorySweepRow]) -> str:
    return render_table(
        ["benchmark", "history bits", "conventional", "allocated",
         "interference-free"],
        [
            (
                r.benchmark,
                r.history_bits,
                f"{r.conventional*100:.2f}%",
                f"{r.allocated*100:.2f}%",
                f"{r.interference_free*100:.2f}%",
            )
            for r in rows
        ],
        title="Ablation: PAg local-history length sweep (1024-entry BHT)",
    )


# --------------------------------------------------------------------------- #
# Working-set definition: partition vs maximal cliques (paper §4.1 note)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CliqueDefinitionRow:
    benchmark: str
    partition_sets: int
    partition_avg: float
    maximal_cliques: int       # -1 when enumeration exceeded the cap
    maximal_avg: float
    membership_per_branch: float


def run_clique_definition_ablation(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    threshold: Optional[int] = None,
    limit: int = 50_000,
) -> List[CliqueDefinitionRow]:
    """Table 2 under both working-set definitions the paper discusses."""
    from ..analysis.cliques import CliqueLimitExceeded, maximal_clique_stats
    from ..analysis.conflict_graph import DEFAULT_THRESHOLD
    from ..analysis.working_sets import partition_working_sets

    if threshold is None:
        threshold = DEFAULT_THRESHOLD
    rows: List[CliqueDefinitionRow] = []
    for name in benchmarks:
        profile = engine.profile(name)
        graph = BranchAllocator(profile, threshold=threshold).graph
        partition = partition_working_sets(graph)
        try:
            stats = maximal_clique_stats(graph, limit=limit)
            maximal_count = stats.clique_count
            maximal_avg = stats.average_size
            membership = stats.membership_per_branch
        except CliqueLimitExceeded:
            maximal_count, maximal_avg, membership = -1, 0.0, 0.0
        rows.append(
            CliqueDefinitionRow(
                benchmark=name,
                partition_sets=partition.count,
                partition_avg=partition.average_static_size,
                maximal_cliques=maximal_count,
                maximal_avg=maximal_avg,
                membership_per_branch=membership,
            )
        )
    return rows


def format_clique_definition(rows: Sequence[CliqueDefinitionRow]) -> str:
    return render_table(
        [
            "benchmark",
            "partition sets",
            "avg size",
            "maximal cliques",
            "avg size ",
            "cliques/branch",
        ],
        [
            (
                r.benchmark,
                r.partition_sets,
                f"{r.partition_avg:.1f}",
                ("> cap" if r.maximal_cliques < 0 else r.maximal_cliques),
                f"{r.maximal_avg:.1f}",
                f"{r.membership_per_branch:.2f}",
            )
            for r in rows
        ],
        title="Ablation: working-set definition — disjoint partition vs "
        "overlapping maximal cliques",
    )


# --------------------------------------------------------------------------- #
# Branch alignment (the no-ISA-change alternative, paper §5)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AlignmentRow:
    benchmark: str
    original_cost: int
    aligned_cost: int
    allocated_cost: int
    original_mispredict: float
    aligned_mispredict: float


def run_alignment_ablation(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    bht_size: int = 1024,
    history_bits: int = HISTORY_BITS,
    threshold: Optional[int] = None,
    residue_stride: int = 1,
) -> List[AlignmentRow]:
    """Compare code alignment against true allocation (paper §5's 'for any
    ISA without change ... may not be as effective as our scheme')."""
    from ..allocation.alignment import align_workload
    from ..pipeline.bus import BranchEventBus
    from ..pipeline.consumers import TraceBuilder
    from ..workloads.build import run_workload
    from ..workloads.suite import get_benchmark

    if threshold is None:
        from ..analysis.conflict_graph import DEFAULT_THRESHOLD

        threshold = DEFAULT_THRESHOLD
    rows: List[AlignmentRow] = []
    for name in benchmarks:
        artifacts = engine.artifacts(name)
        profile = artifacts.profile
        spec = get_benchmark(name, scale=engine.scale)
        result = align_workload(
            spec,
            profile,
            bht_size=bht_size,
            threshold=threshold,
            residue_stride=residue_stride,
        )
        builder = TraceBuilder(f"{name}-aligned")
        bus = BranchEventBus([builder])
        run_workload(result.aligned, branch_hook=bus)
        bus.finish()
        aligned_trace = builder.result

        def mispredict(trace) -> float:
            predictor = PAgPredictor.conventional(bht_size, history_bits)
            return simulate_predictor(
                predictor, trace, track_per_branch=False
            ).misprediction_rate

        allocator = BranchAllocator(profile, threshold=threshold)
        rows.append(
            AlignmentRow(
                benchmark=name,
                original_cost=result.original_cost,
                aligned_cost=result.aligned_cost,
                allocated_cost=allocator.allocate(bht_size).cost,
                original_mispredict=mispredict(artifacts.trace),
                aligned_mispredict=mispredict(aligned_trace),
            )
        )
    return rows


def format_alignment_ablation(rows: Sequence[AlignmentRow]) -> str:
    return render_table(
        [
            "benchmark",
            "cost (scattered)",
            "cost (aligned)",
            "cost (allocated)",
            "mispred scattered",
            "mispred aligned",
        ],
        [
            (
                r.benchmark,
                r.original_cost,
                r.aligned_cost,
                r.allocated_cost,
                f"{r.original_mispredict*100:.2f}%",
                f"{r.aligned_mispredict*100:.2f}%",
            )
            for r in rows
        ],
        title="Ablation: branch alignment vs branch allocation "
        "(conventional PAg hardware)",
    )


def format_hash_baseline(rows: Sequence[HashBaselineRow]) -> str:
    return render_table(
        ["benchmark", "pc-modulo", "xor-fold", "allocated"],
        [
            (r.benchmark, r.conventional_cost, r.xorfold_cost,
             r.allocated_cost)
            for r in rows
        ],
        title="Ablation: conflict cost of indexing schemes at 1024 entries",
    )
