"""Simulation-core throughput: superblock-compiled traces vs interpreter.

Runs a set of suite kernels under both simulation backends with the full
fused event pipeline attached (profiler + chunked trace builder on the
bus — the exact shape engine jobs use) and asserts the superblock
backend is at least 5x faster on three of them.

Both backends must produce byte-identical event streams (asserted on the
trace columns); only the throughput differs.  Timings are best-of-N of
the steady state: the superblock side is warmed once first so one-time
trace emission and lazy code materialization are excluded, exactly as an
experiment sweep amortizes them across runs.
"""

from __future__ import annotations

import os
import time

from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import InterleaveConsumer, TraceBuilder
from repro.sim.machine import Simulator
from repro.workloads.build import build_workload
from repro.workloads.suite import get_benchmark

KERNELS = ("plot", "pgp", "compress", "gcc", "li", "ijpeg", "m88ksim")
SCALE = float(os.environ.get("REPRO_BENCH_SIMCORE_SCALE", "0.1"))
REPEATS = int(os.environ.get("REPRO_BENCH_SIMCORE_REPEATS", "3"))
FUEL = 50_000_000


def _run(built, backend):
    profiler = InterleaveConsumer(label="bench")
    builder = TraceBuilder(label="bench")
    bus = BranchEventBus([profiler, builder])
    sim = Simulator(
        built.program,
        input_data=built.input_data,
        branch_hook=bus,
        random_seed=built.spec.random_seed,
        backend=backend,
    )
    started = time.perf_counter()
    result = sim.run(max_instructions=FUEL)
    elapsed = time.perf_counter() - started
    bus.finish()
    trace = builder.result
    columns = (
        trace.pcs.tobytes(),
        trace.targets.tobytes(),
        trace.taken.tobytes(),
        trace.timestamps.tobytes(),
    )
    return elapsed, result, columns


def _best(built, backend):
    times = []
    result = columns = None
    for _ in range(REPEATS):
        elapsed, result, columns = _run(built, backend)
        times.append(elapsed)
    return min(times), result, columns


def test_simcore_throughput():
    rows = []
    for name in KERNELS:
        built = build_workload(get_benchmark(name, scale=SCALE))
        _run(built, "superblock")  # warm: emit traces, materialize code
        interp_s, interp_result, interp_columns = _best(built, "interp")
        super_s, super_result, super_columns = _best(built, "superblock")
        assert super_columns == interp_columns, name
        assert super_result == interp_result, name
        rows.append({"kernel": name, "speedup": round(interp_s / super_s, 2)})
    at_least_5x = [r for r in rows if r["speedup"] >= 5.0]
    assert len(at_least_5x) >= 3, rows
