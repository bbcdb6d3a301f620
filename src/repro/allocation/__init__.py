"""Branch allocation: compiler-controlled BHT index assignment (paper §5)."""

from .alignment import AlignmentResult, align_workload
from .allocator import AllocationResult, BranchAllocator
from .classified import (
    NOT_TAKEN_ENTRY,
    RESERVED_ENTRIES,
    TAKEN_ENTRY,
    ClassifiedBranchAllocator,
)
from .coloring import ColoringResult, color_graph, verify_coloring
from .conflict_cost import (
    BASELINE_BHT,
    conflict_cost,
    conflicting_pairs,
    conventional_cost,
)
from .sizing import SizingResult, cost_sweep, required_bht_size

__all__ = [
    "AlignmentResult",
    "AllocationResult",
    "align_workload",
    "BASELINE_BHT",
    "BranchAllocator",
    "ClassifiedBranchAllocator",
    "ColoringResult",
    "NOT_TAKEN_ENTRY",
    "RESERVED_ENTRIES",
    "SizingResult",
    "TAKEN_ENTRY",
    "color_graph",
    "conflict_cost",
    "conflicting_pairs",
    "conventional_cost",
    "cost_sweep",
    "required_bht_size",
    "verify_coloring",
]
