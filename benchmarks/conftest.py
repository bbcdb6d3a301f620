"""Benchmark-harness fixtures.

The harness regenerates every paper table and figure at full analog scale
(override with ``REPRO_BENCH_SCALE``).  Simulation traces and interleave
profiles are cached under ``benchmarks/.cache`` so pytest-benchmark timing
measures the *analysis* being reproduced, not repeated trace generation;
rendered tables are written to ``benchmarks/results/`` for inspection and
for the EXPERIMENTS.md record.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.engine import ExecutionEngine

BENCH_DIR = Path(__file__).parent
CACHE_DIR = BENCH_DIR / ".cache"
RESULTS_DIR = BENCH_DIR / "results"

#: Full-scale analogs by default; the paper's threshold of 100 applies at
#: this scale.  Smaller scales are for smoke-testing the harness itself.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
THRESHOLD = 100 if SCALE >= 0.9 else 10

#: Worker processes for cold-cache trace generation (1 = sequential).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def engine() -> ExecutionEngine:
    """Session-wide engine with a persistent trace/profile cache."""
    return ExecutionEngine(scale=SCALE, cache_dir=CACHE_DIR, jobs=JOBS)


def save_result(name: str, text: str) -> None:
    """Persist a rendered experiment table for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
