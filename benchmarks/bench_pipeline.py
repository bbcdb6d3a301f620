"""Streaming-pipeline throughput: fused one-pass vs materialize-then-replay.

Times the analysis stage both ways on three kernels and writes
``BENCH_pipeline.json`` at the repo root:

* **seed** (materialize-then-replay, the pre-pipeline shape) — finish the
  capture into a trace, round-trip it through the npz store, run the
  interleave analysis event by event, then replay the trace once per
  predictor through the scalar ``access`` loop;
* **pipeline** (fused) — one chunked pass over the same events with the
  interleave analyzer and the whole predictor bank riding the event bus
  together.

Both sides consume identical event streams and produce identical
statistics (asserted below); only the throughput differs.  The simulation
itself is excluded from both timings — it is common to both shapes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

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
from repro.profiling.interleave import InterleaveAnalyzer
from repro.trace.io import load_trace, save_trace
from repro.workloads.build import build_workload, run_workload
from repro.workloads.suite import get_benchmark

KERNELS = ("compress", "pgp", "plot")
SCALE = float(os.environ.get("REPRO_BENCH_PIPELINE_SCALE", "0.3"))
OUTPUT = Path(__file__).parent.parent / "BENCH_pipeline.json"


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
    analyzer = InterleaveAnalyzer(name=trace.name)
    observe = analyzer.observe
    for pc, taken in zip(reloaded.pcs.tolist(), reloaded.taken.tolist()):
        observe(pc, taken)
    profile = analyzer.finish()
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
        events = len(trace)
        rows.append(
            {
                "kernel": name,
                "scale": SCALE,
                "events": events,
                "seed_seconds": round(seed_s, 4),
                "seed_events_per_second": round(events / seed_s, 1),
                "pipeline_seconds": round(fused_s, 4),
                "pipeline_events_per_second": round(events / fused_s, 1),
                "speedup": round(seed_s / fused_s, 2),
            }
        )
    OUTPUT.write_text(
        json.dumps(
            {
                "description": "analysis-stage events/sec: fused one-pass "
                "pipeline vs seed materialize-then-replay "
                "(profile + 5-predictor bank)",
                "kernels": rows,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    at_least_2x = [r for r in rows if r["speedup"] >= 2.0]
    assert len(at_least_2x) >= 2, rows
