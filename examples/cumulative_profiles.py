#!/usr/bin/env python3
"""Profile input sensitivity and cumulative profiles (paper §5.2).

The paper observed that SimpleScalar profiled with two different inputs
(ss_a / ss_b) produced "significant difference in the table size
requirements", and proposed merging conflict graphs from several profile
runs.  This example reproduces the experiment on the ss analog pair:

1. profile each input separately and size the BHT for each;
2. apply input-A's allocation to input-B's conflict graph (the mismatch
   cost the paper warns about);
3. merge the profiles and show the cumulative allocation covers both.

Run:  python examples/cumulative_profiles.py [scale]
"""

import sys

from repro.allocation import (
    BranchAllocator,
    conflict_cost,
    conventional_cost,
    required_bht_size,
)
from repro.analysis.conflict_graph import auto_threshold
from repro.eval import ExecutionEngine
from repro.profiling import coverage_against, merge_profiles


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    threshold = auto_threshold(scale)
    engine = ExecutionEngine(scale=scale)

    profile_a = engine.profile("ss_a")
    profile_b = engine.profile("ss_b")
    print(f"ss_a: {profile_a.static_branch_count} statics, "
          f"{profile_a.dynamic_branch_count} dynamic branches")
    print(f"ss_b: {profile_b.static_branch_count} statics, "
          f"{profile_b.dynamic_branch_count} dynamic branches")
    print(f"ss_a covers {coverage_against(profile_a, profile_b):.1%} of "
          f"ss_b's dynamic executions\n")

    alloc_a = BranchAllocator(profile_a, threshold=threshold)
    alloc_b = BranchAllocator(profile_b, threshold=threshold)
    size_a = required_bht_size(
        alloc_a, conventional_cost(alloc_a.graph, 1024)
    ).required_size
    size_b = required_bht_size(
        alloc_b, conventional_cost(alloc_b.graph, 1024)
    ).required_size
    print(f"required BHT size from input A: {size_a}")
    print(f"required BHT size from input B: {size_b}")

    # the mismatch experiment: A's mapping on B's behaviour
    assignment = alloc_a.allocate(max(size_a, size_b)).assignment
    table = max(size_a, size_b)
    mismatch = conflict_cost(
        alloc_b.graph,
        lambda pc: assignment.get(pc, (pc >> 2) % table),
    )
    own = alloc_b.allocate(table).cost
    print(f"\nconflict cost on input B's graph:")
    print(f"  allocation profiled on A : {mismatch}")
    print(f"  allocation profiled on B : {own}")

    # the paper's fix: cumulative profiles
    merged = merge_profiles([profile_a, profile_b], name="ss_merged")
    alloc_m = BranchAllocator(merged, threshold=threshold)
    size_m = required_bht_size(
        alloc_m, conventional_cost(alloc_m.graph, 1024)
    ).required_size
    merged_assignment = alloc_m.allocate(size_m).assignment
    cost_on_a = conflict_cost(
        alloc_a.graph,
        lambda pc: merged_assignment.get(pc, (pc >> 2) % size_m),
    )
    cost_on_b = conflict_cost(
        alloc_b.graph,
        lambda pc: merged_assignment.get(pc, (pc >> 2) % size_m),
    )
    print(f"\ncumulative profile: required size {size_m} "
          f"(A needed {size_a}, B needed {size_b})")
    print(f"  merged allocation cost on A's graph: {cost_on_a}")
    print(f"  merged allocation cost on B's graph: {cost_on_b}")
    print("\n(the paper: cumulative profiles need not blow up the table — "
          "more sets, not bigger ones)")


if __name__ == "__main__":
    main()
