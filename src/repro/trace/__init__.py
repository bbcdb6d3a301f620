"""Branch trace storage, statistics and synthesis.

Traces are captured by a :class:`~repro.pipeline.bus.BranchEventBus`
carrying a :class:`~repro.pipeline.consumers.TraceBuilder`.
"""

from .events import BranchEvent, BranchTrace
from .io import (
    load_trace,
    load_trace_ndjson,
    read_trace_meta,
    save_trace,
    save_trace_ndjson,
)
from .sampling import systematic_sample, truncate
from .stats import TraceSummary, frequency_cutoff, summarize_trace
from .synthetic import (
    Behavior,
    Phase,
    SyntheticBranch,
    SyntheticWorkload,
    make_phased_workload,
)

__all__ = [
    "Behavior",
    "BranchEvent",
    "BranchTrace",
    "Phase",
    "SyntheticBranch",
    "SyntheticWorkload",
    "TraceSummary",
    "frequency_cutoff",
    "load_trace",
    "load_trace_ndjson",
    "make_phased_workload",
    "read_trace_meta",
    "save_trace",
    "save_trace_ndjson",
    "summarize_trace",
    "systematic_sample",
    "truncate",
]
