"""Workload substrate: kernels, inputs, builder, suite and set registry."""

from .build import (
    BuiltWorkload,
    InputSpec,
    KernelCall,
    PhaseSpec,
    WorkloadSpec,
    build_workload,
    replicated_calls,
    run_workload,
)
from .inputs import binary_runs, make_input, mixed_input, text_input
from .kernels import KernelSpec, get_kernel, kernel_registry
from .registry import (
    BenchmarkSet,
    Selection,
    benchmark_sets,
    estimated_cost,
    known_benchmarks,
    members,
    resolve_benchmark,
    resolve_selection,
)
from .suite import (
    benchmark_names,
    benchmark_suite,
    get_benchmark,
)

__all__ = [
    "BenchmarkSet",
    "BuiltWorkload",
    "InputSpec",
    "KernelCall",
    "KernelSpec",
    "PhaseSpec",
    "Selection",
    "WorkloadSpec",
    "benchmark_names",
    "benchmark_sets",
    "benchmark_suite",
    "binary_runs",
    "build_workload",
    "estimated_cost",
    "get_benchmark",
    "get_kernel",
    "kernel_registry",
    "known_benchmarks",
    "make_input",
    "members",
    "mixed_input",
    "replicated_calls",
    "resolve_benchmark",
    "resolve_selection",
    "run_workload",
    "text_input",
]
