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

import importlib
from typing import Dict, List

__version__ = "1.0.0"

#: public name -> the subpackage defining it.  Names resolve on first
#: access (PEP 562), so ``import repro`` stays cheap: a command pays only
#: for the subpackages it uses.
_EXPORTS: Dict[str, str] = {
    "AllocationResult": ".allocation",
    "BranchAllocator": ".allocation",
    "ClassifiedBranchAllocator": ".allocation",
    "conflict_cost": ".allocation",
    "conventional_cost": ".allocation",
    "required_bht_size": ".allocation",
    "BiasClass": ".analysis",
    "ClassificationBounds": ".analysis",
    "ConflictGraph": ".analysis",
    "WorkingSetPartition": ".analysis",
    "build_conflict_graph": ".analysis",
    "classify_profile": ".analysis",
    "partition_working_sets": ".analysis",
    "working_set_metrics": ".analysis",
    "ArtifactStore": ".eval",
    "ExecutionEngine": ".eval",
    "RunArtifacts": ".eval",
    "run_all_experiments": ".eval",
    "run_experiment": ".eval",
    "InterferenceFreePAg": ".predictors",
    "PAgPredictor": ".predictors",
    "PCModuloIndex": ".predictors",
    "StaticIndexMap": ".predictors",
    "simulate_predictor": ".predictors",
    "InterleaveAnalyzer": ".profiling",
    "InterleaveProfile": ".profiling",
    "merge_profiles": ".profiling",
    "profile_trace": ".profiling",
    "StaticConflictEstimator": ".static_analysis",
    "build_cfg": ".static_analysis",
    "estimate_conflict_graph": ".static_analysis",
    "find_loops": ".static_analysis",
    "lint_program": ".static_analysis",
    "lint_source": ".static_analysis",
    "BranchEventBus": ".pipeline",
    "InterleaveConsumer": ".pipeline",
    "PredictorConsumer": ".pipeline",
    "TraceBuilder": ".pipeline",
    "replay_bank": ".pipeline",
    "BranchTrace": ".trace",
    "make_phased_workload": ".trace",
    "benchmark_suite": ".workloads",
    "build_workload": ".workloads",
    "run_workload": ".workloads",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
