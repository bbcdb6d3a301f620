"""Streaming-pipeline throughput: fused one-pass vs materialize-then-replay.

Times the analysis stage both ways on three kernels and asserts the
fused pipeline is at least 2x faster on two of them:

* **seed** (materialize-then-replay, the pre-pipeline shape) — finish the
  capture into a trace, round-trip it through the npz store, run the
  interleave analysis over the reloaded trace, then replay the trace
  once per predictor through the scalar ``access`` loop;
* **pipeline** (fused) — one chunked pass over the same events with the
  interleave analyzer and the whole predictor bank riding the event bus
  together.

Both sides consume identical event streams and produce identical
statistics (asserted below); only the throughput differs.  The simulation
itself is excluded from both timings — it is common to both shapes.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import (
    InterleaveConsumer,
    PredictorConsumer,
    TraceBuilder,
)
from repro.predictors.gshare import GSharePredictor
from repro.predictors.simulator import simulate_predictor
from repro.predictors.twolevel import (
    GAgPredictor,
    GAsPredictor,
    InterferenceFreePAg,
    PAgPredictor,
)
from repro.profiling.interleave import profile_trace
from repro.trace.io import load_trace, save_trace
from repro.workloads.build import build_workload, run_workload
from repro.workloads.suite import get_benchmark

KERNELS = ("compress", "pgp", "plot")
SCALE = float(os.environ.get("REPRO_BENCH_PIPELINE_SCALE", "0.3"))


def _bank():
    return [
        PAgPredictor.conventional(1024, 12),
        InterferenceFreePAg(12),
        GAgPredictor(12),
        GAsPredictor(),
        GSharePredictor(12),
    ]


def _seed_stage(trace, tmp_path):
    """The pre-pipeline analysis shape, timed end to end."""
    started = time.perf_counter()
    npz = tmp_path / f"{trace.name}.trace.npz"
    save_trace(trace, npz)
    reloaded = load_trace(npz)
    profile = profile_trace(reloaded)
    results = {
        predictor.name: simulate_predictor(
            predictor, reloaded, track_per_branch=False, chunked=False
        )
        for predictor in _bank()
    }
    return time.perf_counter() - started, profile, results


def _pipeline_stage(trace):
    """One fused chunked pass: profiler + bank on the bus together."""
    started = time.perf_counter()
    profiler = InterleaveConsumer(label=trace.name)
    bank = [
        PredictorConsumer(p, label=trace.name, track_per_branch=False)
        for p in _bank()
    ]
    BranchEventBus.replay(trace, [profiler, *bank])
    results = {c.predictor.name: c.result for c in bank}
    return time.perf_counter() - started, profiler.result, results


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name in KERNELS:
        built = build_workload(get_benchmark(name, scale=SCALE))
        builder = TraceBuilder(name)
        bus = BranchEventBus([builder])
        run_workload(built, branch_hook=bus)
        bus.finish()
        out[name] = builder.result
    return out


def test_pipeline_throughput(traces, tmp_path):
    rows = []
    for name in KERNELS:
        trace = traces[name]
        seed_s, seed_profile, seed_stats = _seed_stage(trace, tmp_path)
        fused_s, fused_profile, fused_stats = _pipeline_stage(trace)
        # same events, same answers — speed is the only difference
        assert fused_profile.branches == seed_profile.branches
        assert fused_profile.pairs == seed_profile.pairs
        for pname, seed in seed_stats.items():
            fused = fused_stats[pname]
            assert (fused.branches, fused.mispredictions) == (
                seed.branches, seed.mispredictions
            ), pname
        rows.append({"kernel": name, "speedup": round(seed_s / fused_s, 2)})
    at_least_2x = [r for r in rows if r["speedup"] >= 2.0]
    assert len(at_least_2x) >= 2, rows
