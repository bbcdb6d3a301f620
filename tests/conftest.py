"""Shared fixtures.

The expensive fixtures (benchmark runs) are session-scoped and run the
analog suite at a small scale; structural assertions hold at any scale,
while the paper-shape assertions (who beats whom) are exercised at full
scale only by the benchmark harness.
"""

from __future__ import annotations

import pytest

from repro.eval.engine import ExecutionEngine
from repro.profiling.interleave import profile_trace
from repro.trace.synthetic import make_phased_workload

#: Scale used by integration tests: fast, still structurally faithful.
TEST_SCALE = 0.12

#: Edge threshold matched to the test scale (the paper's 100 assumes full
#: iteration counts; at 0.12 scale phases revisit ~14x).
TEST_THRESHOLD = 10


@pytest.fixture(scope="session")
def engine() -> ExecutionEngine:
    """A session-wide execution engine at test scale."""
    return ExecutionEngine(scale=TEST_SCALE)


@pytest.fixture(scope="session")
def phased_workload():
    """A synthetic workload with known ground-truth working sets."""
    return make_phased_workload(
        n_phases=6,
        branches_per_phase=10,
        iterations=250,
        seed=7,
        text_span=1 << 20,
    )


@pytest.fixture(scope="session")
def phased_trace(phased_workload):
    """The trace of the synthetic phased workload."""
    return phased_workload.generate(seed=11)


@pytest.fixture(scope="session")
def phased_profile(phased_trace):
    """Interleave profile of the synthetic phased workload."""
    return profile_trace(phased_trace)
