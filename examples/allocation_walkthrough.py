#!/usr/bin/env python3
"""Branch allocation in detail (paper §5), step by step.

Profiles the `gcc` analog (the suite's most branch-rich program), builds
the conflict graph, colours it at several BHT sizes, shows how entry
sharing kicks in below the working-set size, and contrasts the plain
allocator with the classification-enhanced one — ending with the Table 3
and Table 4 sizing numbers for this benchmark.

Run:  python examples/allocation_walkthrough.py [scale]
"""

import sys

from repro.allocation import (
    BranchAllocator,
    ClassifiedBranchAllocator,
    conventional_cost,
    required_bht_size,
)
from repro.analysis import BiasClass, classify_profile
from repro.analysis.conflict_graph import auto_threshold
from repro.eval import ExecutionEngine


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    threshold = auto_threshold(scale)
    engine = ExecutionEngine(scale=scale)

    print("profiling the gcc analog ...")
    profile = engine.profile("gcc")
    print(f"  {profile.static_branch_count} static branches, "
          f"{profile.dynamic_branch_count} dynamic, "
          f"{len(profile.pairs)} interleaving pairs\n")

    # -- the conflict graph --------------------------------------------------
    allocator = BranchAllocator(profile, threshold=threshold)
    graph = allocator.graph
    print(f"conflict graph at threshold {threshold}: "
          f"{graph.node_count} nodes, {graph.edge_count} edges")
    baseline = conventional_cost(graph, 1024)
    print(f"conventional 1024-entry PC-indexed conflict cost: {baseline}\n")

    # -- colouring at decreasing sizes ----------------------------------------
    print(f"{'BHT size':>9} {'cost':>8} {'sharing branches':>17}")
    for size in (1024, 256, 64, 16, 4):
        result = allocator.allocate(size)
        print(f"{size:>9} {result.cost:>8} {len(result.shared_branches):>17}")
    print("(cost rises only once the table dips below the working sets)\n")

    # -- Table 3 sizing ----------------------------------------------------------
    sizing = required_bht_size(allocator, baseline)
    print(f"Table 3 number for gcc: {sizing.required_size} entries "
          f"(cost {sizing.achieved_cost} < baseline {baseline})")
    print(f"  search probes: {sorted(sizing.probes)}\n")

    # -- classification (§5.2) -----------------------------------------------------
    classes = classify_profile(profile)
    biased_taken = sum(
        1 for c in classes.values() if c is BiasClass.TAKEN_BIASED
    )
    biased_not = sum(
        1 for c in classes.values() if c is BiasClass.NOT_TAKEN_BIASED
    )
    print(f"classification: {biased_taken} branches >99% taken, "
          f"{biased_not} branches <1% taken, "
          f"{len(classes) - biased_taken - biased_not} mixed")

    classified = ClassifiedBranchAllocator(profile, threshold=threshold)
    print(f"filtered conflict graph: {classified.graph.edge_count} edges "
          f"(was {graph.edge_count})")
    sizing4 = required_bht_size(classified, baseline, min_size=3)
    print(f"Table 4 number for gcc: {sizing4.required_size} entries "
          f"(biased branches share 2 reserved entries)")

    reduction3 = 1 - sizing.required_size / 1024
    reduction4 = 1 - sizing4.required_size / 1024
    print(f"\nBHT size reduction vs 1024: "
          f"{reduction3:.0%} plain, {reduction4:.0%} with classification")


if __name__ == "__main__":
    main()
