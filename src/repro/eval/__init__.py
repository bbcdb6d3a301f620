"""Experiment harness: tables, figures, ablations and orchestration."""

import importlib
from typing import Dict, List

#: public name -> the module defining it, resolved on first access (PEP
#: 562): importing one module of this package (the engine, say) does not
#: load the supervisor, the experiments or the ablations with it.
_EXPORTS: Dict[str, str] = {
    "run_hash_baseline": ".ablations",
    "run_input_sensitivity": ".ablations",
    "run_predictor_family": ".ablations",
    "run_threshold_ablation": ".ablations",
    "JobSpec": ".digest",
    "artifact_digest": ".digest",
    "compute_job_digest": ".digest",
    "EngineStats": ".engine",
    "ExecutionEngine": ".engine",
    "EXPERIMENTS": ".experiments",
    "Experiment": ".experiments",
    "format_failure_report": ".experiments",
    "run_all_experiments": ".experiments",
    "run_experiment": ".experiments",
    "select_benchmarks": ".experiments",
    "FaultPlan": ".faults",
    "InjectedFault": ".faults",
    "corrupt_file": ".faults",
    "FigureRow": ".figures",
    "average_improvement": ".figures",
    "format_figure": ".figures",
    "run_figure3": ".figures",
    "run_figure4": ".figures",
    "render_table": ".report",
    "to_csv": ".report",
    "write_csv": ".report",
    "ArtifactStore": ".store",
    "RunArtifacts": ".store",
    "ShardSupervisor": ".supervisor",
    "SupervisorReport": ".supervisor",
    "SupervisorStats": ".supervisor",
    "classify_worker": ".supervisor",
    "restart_delay": ".supervisor",
    "SizingRow": ".tables",
    "Table1Row": ".tables",
    "Table2Row": ".tables",
    "format_sizing_table": ".tables",
    "format_table1": ".tables",
    "format_table2": ".tables",
    "reduction_summary": ".tables",
    "run_table1": ".tables",
    "run_table2": ".tables",
    "run_table3": ".tables",
    "run_table4": ".tables",
    "JobResult": ".worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
