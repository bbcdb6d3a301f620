#!/usr/bin/env python3
"""Quickstart: the whole pipeline on one benchmark analog in ~a minute.

Builds the `compress` analog (assembled from hand-written kernels), runs it
on the miniature RISC simulator while capturing the conditional-branch
trace, performs the paper's working set analysis, computes a branch
allocation, and compares PAg predictors with conventional vs. allocated
BHT indexing.

Run:  python examples/quickstart.py [scale]
"""

import sys

from repro.allocation import (
    BranchAllocator,
    conventional_cost,
    required_bht_size,
)
from repro.analysis import working_set_metrics
from repro.pipeline import BranchEventBus, TraceBuilder
from repro.predictors import (
    InterferenceFreePAg,
    PAgPredictor,
    simulate_predictor,
)
from repro.profiling import profile_trace
from repro.workloads import build_workload, get_benchmark, run_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    threshold = 100 if scale >= 0.9 else 10

    # 1. build and simulate the workload, capturing branch events
    spec = get_benchmark("compress", scale=scale)
    built = build_workload(spec)
    print(f"built {spec.name!r}: {len(built.program)} instructions, "
          f"{built.static_conditional_branches} static conditional branches")

    builder = TraceBuilder(spec.name)
    bus = BranchEventBus([builder])
    result = run_workload(built, branch_hook=bus)
    bus.finish()
    trace = builder.result
    print(f"simulated {result.instructions} instructions -> "
          f"{len(trace)} dynamic conditional branches "
          f"({result.taken_rate:.0%} taken)")

    # 2. the paper's working set analysis
    profile = profile_trace(trace)
    metrics = working_set_metrics(profile, threshold=threshold)
    print(f"\nworking sets (threshold={threshold}): "
          f"{metrics.total_sets} sets, "
          f"avg static size {metrics.average_static_size:.1f}, "
          f"avg dynamic size {metrics.average_dynamic_size:.1f}, "
          f"largest {metrics.largest_size}")

    # 3. branch allocation: how small can the BHT get?
    allocator = BranchAllocator(profile, threshold=threshold)
    baseline = conventional_cost(allocator.graph, 1024)
    sizing = required_bht_size(allocator, baseline)
    print(f"\nconventional 1024-entry BHT conflict cost: {baseline}")
    print(f"branch allocation beats it with just "
          f"{sizing.required_size} entries "
          f"(cost {sizing.achieved_cost})")

    # 4. prediction accuracy (PAg, 4096-entry PHT)
    print("\nPAg misprediction rates (12-bit history):")
    for label, predictor in [
        ("conventional @1024", PAgPredictor.conventional(1024, 12)),
        ("allocated    @1024",
         PAgPredictor.allocated(allocator.allocate(1024).index_map(), 12)),
        ("allocated    @128",
         PAgPredictor.allocated(allocator.allocate(128).index_map(), 12)),
        ("interference free ", InterferenceFreePAg(12)),
    ]:
        stats = simulate_predictor(predictor, trace, track_per_branch=False)
        print(f"  {label}: {stats.misprediction_rate:.4%}")


if __name__ == "__main__":
    main()
