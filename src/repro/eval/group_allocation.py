"""Group-level branch allocation (the §6 extension, end to end).

Pipeline: classify/group branches -> fold the interleave profile to group
granularity -> colour the *group* conflict graph -> expand the group
assignment back to a per-branch :class:`~repro.predictors.indexing.
StaticIndexMap` -> simulate a PAg against it.

Because a group shares one BHT entry by construction, grouping trades
intra-group history sharing (harmless if the grouping is good) for a
smaller colouring problem — the generic form of what §5.2's two reserved
entries do for biased branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..allocation.allocator import BranchAllocator
from ..allocation.coloring import color_graph
from ..analysis.conflict_graph import DEFAULT_THRESHOLD, build_conflict_graph
from ..analysis.groups import (
    Grouping,
    expand_group_assignment,
    fold_profile,
    group_by_bias,
    group_by_history_pattern,
)
from ..predictors.indexing import PCModuloIndex, StaticIndexMap
from ..predictors.simulator import simulate_predictor
from ..predictors.twolevel import PAgPredictor
from ..profiling.profile import InterleaveProfile
from .engine import ExecutionEngine
from .report import render_table


@dataclass(frozen=True)
class GroupAllocationResult:
    """Outcome of one group-level allocation.

    Attributes:
        grouping: the branch -> group mapping used.
        group_count: number of groups (colouring problem size).
        assignment: expanded branch PC -> BHT entry map.
        bht_size: entries made available.
        cost: same-entry conflict weight on the folded graph.
    """

    grouping: Grouping
    group_count: int
    assignment: Dict[int, int]
    bht_size: int
    cost: int

    def index_map(self) -> StaticIndexMap:
        """Predictor-facing index function (PC-modulo fallback)."""
        return StaticIndexMap(
            self.bht_size,
            self.assignment,
            fallback=PCModuloIndex(self.bht_size),
        )


def allocate_groups(
    profile: InterleaveProfile,
    grouping: Grouping,
    bht_size: int,
    threshold: int = DEFAULT_THRESHOLD,
) -> GroupAllocationResult:
    """Colour the group-level conflict graph and expand to branches."""
    folded = fold_profile(profile, grouping)
    graph = build_conflict_graph(folded, threshold=threshold)
    coloring = color_graph(graph, bht_size)
    assignment = expand_group_assignment(coloring.assignment, grouping)
    return GroupAllocationResult(
        grouping=grouping,
        group_count=folded.static_branch_count,
        assignment=assignment,
        bht_size=bht_size,
        cost=coloring.cost,
    )


@dataclass(frozen=True)
class GroupAblationRow:
    """Per-benchmark comparison of grouping strategies at one BHT size."""

    benchmark: str
    bht_size: int
    branch_mispredict: float    # plain per-branch allocation
    bias_groups: int
    bias_mispredict: float      # bias-class grouping
    pattern_groups: int
    pattern_mispredict: float   # periodic-history grouping
    conventional: float


def run_group_ablation(
    engine: ExecutionEngine,
    benchmarks: Sequence[str],
    bht_size: int = 128,
    threshold: int = DEFAULT_THRESHOLD,
    history_bits: int = 12,
) -> List[GroupAblationRow]:
    """Compare per-branch vs group-level allocation on prediction accuracy."""
    rows: List[GroupAblationRow] = []
    for name in benchmarks:
        artifacts = engine.artifacts(name)
        trace, profile = artifacts.trace, artifacts.profile

        def rate(index_map: Optional[StaticIndexMap]) -> float:
            if index_map is None:
                predictor = PAgPredictor.conventional(bht_size, history_bits)
            else:
                predictor = PAgPredictor.allocated(index_map, history_bits)
            return simulate_predictor(
                predictor, trace, track_per_branch=False
            ).misprediction_rate

        plain = BranchAllocator(profile, threshold=threshold)
        bias = allocate_groups(
            profile, group_by_bias(profile), bht_size, threshold
        )
        pattern = allocate_groups(
            profile,
            group_by_history_pattern(trace),
            bht_size,
            threshold,
        )
        rows.append(
            GroupAblationRow(
                benchmark=name,
                bht_size=bht_size,
                branch_mispredict=rate(
                    plain.allocate(bht_size).index_map()
                ),
                bias_groups=bias.group_count,
                bias_mispredict=rate(bias.index_map()),
                pattern_groups=pattern.group_count,
                pattern_mispredict=rate(pattern.index_map()),
                conventional=rate(None),
            )
        )
    return rows


def format_group_ablation(rows: Sequence[GroupAblationRow]) -> str:
    if not rows:
        return "(no results)"
    size = rows[0].bht_size
    return render_table(
        [
            "benchmark",
            "per-branch",
            "bias groups",
            "bias-grouped",
            "pattern groups",
            "pattern-grouped",
            f"conv@{size}",
        ],
        [
            (
                r.benchmark,
                f"{r.branch_mispredict*100:.2f}%",
                r.bias_groups,
                f"{r.bias_mispredict*100:.2f}%",
                r.pattern_groups,
                f"{r.pattern_mispredict*100:.2f}%",
                f"{r.conventional*100:.2f}%",
            )
            for r in rows
        ],
        title=f"Ablation: group-level allocation at {size}-entry BHT "
        "(paper §6 extension)",
    )
