"""repro — reproduction of Kim & Tyson, *Analyzing the Working Set
Characteristics of Branch Execution* (MICRO 1998).

The package is organised bottom-up:

* substrates: :mod:`repro.isa`, :mod:`repro.asm`, :mod:`repro.sim`,
  :mod:`repro.trace`, :mod:`repro.workloads` — a miniature RISC toolchain
  and benchmark suite standing in for SimpleScalar + SPECint95;
* the paper's contribution: :mod:`repro.profiling` (time-stamp interleave
  analysis), :mod:`repro.analysis` (conflict graph + working sets),
  :mod:`repro.allocation` (graph-colouring branch allocation);
* :mod:`repro.predictors` — the 2-level predictor family (PAg et al.);
* :mod:`repro.pipeline` — the columnar event bus fusing simulate →
  profile → predict into one pass (see docs/PIPELINE.md);
* :mod:`repro.static_analysis` — CFG, dominators, natural loops, a
  profile-free conflict-graph estimator, and an assembly linter;
* :mod:`repro.eval` — regenerates every table and figure in the paper,
  via :class:`~repro.eval.engine.ExecutionEngine`: a process-pool
  evaluation engine over a content-addressed artifact store (see
  docs/EVAL.md).

Quick start::

    from repro import ExecutionEngine, run_experiment

    engine = ExecutionEngine(scale=0.2, cache_dir=".cache", jobs=4)
    print(run_experiment("table2", engine))
    print(engine.stats.render())  # per-job timing + cache hit/miss

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .allocation import (
    AllocationResult,
    BranchAllocator,
    ClassifiedBranchAllocator,
    conflict_cost,
    conventional_cost,
    required_bht_size,
)
from .analysis import (
    BiasClass,
    ClassificationBounds,
    ConflictGraph,
    WorkingSetPartition,
    build_conflict_graph,
    classify_profile,
    partition_working_sets,
    working_set_metrics,
)
from .eval import (
    ArtifactStore,
    ExecutionEngine,
    RunArtifacts,
    run_all_experiments,
    run_experiment,
)
from .predictors import (
    InterferenceFreePAg,
    PAgPredictor,
    PCModuloIndex,
    StaticIndexMap,
    simulate_predictor,
)
from .profiling import (
    InterleaveAnalyzer,
    InterleaveProfile,
    merge_profiles,
    profile_trace,
)
from .static_analysis import (
    StaticConflictEstimator,
    build_cfg,
    estimate_conflict_graph,
    find_loops,
    lint_program,
    lint_source,
)
from .pipeline import (
    BranchEventBus,
    InterleaveConsumer,
    PredictorConsumer,
    TraceBuilder,
    replay_bank,
)
from .trace import BranchTrace, make_phased_workload
from .workloads import benchmark_suite, build_workload, run_workload

__version__ = "1.0.0"

__all__ = [
    "AllocationResult",
    "ArtifactStore",
    "BiasClass",
    "BranchAllocator",
    "BranchEventBus",
    "BranchTrace",
    "ClassificationBounds",
    "ClassifiedBranchAllocator",
    "ConflictGraph",
    "ExecutionEngine",
    "InterferenceFreePAg",
    "InterleaveAnalyzer",
    "InterleaveConsumer",
    "InterleaveProfile",
    "PAgPredictor",
    "PCModuloIndex",
    "PredictorConsumer",
    "RunArtifacts",
    "StaticConflictEstimator",
    "StaticIndexMap",
    "TraceBuilder",
    "WorkingSetPartition",
    "__version__",
    "benchmark_suite",
    "build_cfg",
    "build_conflict_graph",
    "build_workload",
    "classify_profile",
    "conflict_cost",
    "conventional_cost",
    "estimate_conflict_graph",
    "find_loops",
    "lint_program",
    "lint_source",
    "make_phased_workload",
    "merge_profiles",
    "partition_working_sets",
    "profile_trace",
    "replay_bank",
    "required_bht_size",
    "run_all_experiments",
    "run_experiment",
    "run_workload",
    "simulate_predictor",
    "working_set_metrics",
]
