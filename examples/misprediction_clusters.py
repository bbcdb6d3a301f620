#!/usr/bin/env python3
"""The paper's §6 open question, answered on this substrate.

    "Are the clustered branch mispredictions found in recent work on
    dynamic prediction caused by changes in working set?"

This example detects working-set transitions in a trace (from the trace's
own conflict-graph partition) and compares misprediction density right
after each transition against the steady state, for a synthetic phased
workload and for a simulated benchmark analog.

Run:  python examples/misprediction_clusters.py [scale]
"""

import sys

from repro.analysis import (
    build_conflict_graph,
    detect_transitions,
    misprediction_clustering,
    partition_working_sets,
)
from repro.eval import ExecutionEngine
from repro.predictors import PAgPredictor
from repro.profiling import profile_trace
from repro.trace import make_phased_workload


def analyse(label, trace, partition):
    report = detect_transitions(trace, partition, window=256, stride=64)
    clustering = misprediction_clustering(
        PAgPredictor.conventional(512, 10),
        trace,
        partition,
        radius=256,
        warmup=1024,
    )
    ratio = clustering.clustering_ratio
    print(f"{label}:")
    print(f"  {len(trace)} events, {partition.count} working sets, "
          f"{len(report.transitions)} transitions detected")
    print(f"  misprediction rate near transitions : "
          f"{clustering.transition_rate:.3%} "
          f"({clustering.transition_events} events)")
    print(f"  misprediction rate in steady state  : "
          f"{clustering.steady_rate:.3%} "
          f"({clustering.steady_events} events)")
    print(f"  clustering ratio: {ratio:.2f}x "
          f"{'-> mispredictions DO cluster at working-set changes' if ratio > 1.1 else '-> no clustering evident'}\n")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    threshold = 100 if scale >= 0.9 else 10

    # controlled case: phases are working sets by construction
    workload = make_phased_workload(
        n_phases=8, branches_per_phase=16, iterations=250, seed=51,
        text_span=1 << 20,
    )
    trace = workload.generate(seed=52)
    partition = partition_working_sets(
        build_conflict_graph(profile_trace(trace), threshold=100)
    )
    analyse("synthetic phased workload", trace, partition)

    # a simulated benchmark analog
    engine = ExecutionEngine(scale=scale)
    artifacts = engine.artifacts("gs")
    partition = partition_working_sets(
        build_conflict_graph(artifacts.profile, threshold=threshold)
    )
    analyse(f"gs analog (scale={scale})", artifacts.trace, partition)


if __name__ == "__main__":
    main()
