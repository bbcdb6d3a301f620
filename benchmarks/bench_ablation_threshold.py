"""Ablation — conflict-edge threshold sensitivity (paper §4.2).

The paper: "Other threshold values such as 500 or 1000 show no significant
difference on the results."  At full scale we sweep 50/100/500/1000 over
three representative benchmarks.
"""

from conftest import SCALE, save_result
from repro.eval.ablations import (
    format_threshold_ablation,
    run_threshold_ablation,
)

BENCHMARKS = ("compress", "gcc", "python")


def _thresholds():
    if SCALE >= 0.9:
        return (50, 100, 500, 1000)
    return (5, 10, 25, 50)


def test_ablation_threshold(benchmark, engine):
    engine.prefetch(BENCHMARKS)
    thresholds = _thresholds()
    rows = benchmark.pedantic(
        lambda: run_threshold_ablation(
            engine, BENCHMARKS, thresholds=thresholds
        ),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_threshold", format_threshold_ablation(rows))

    assert len(rows) == len(BENCHMARKS) * len(thresholds)
    # within each benchmark: pruning more edges can only break sets apart
    for name in BENCHMARKS:
        series = [r for r in rows if r.benchmark == name]
        counts = [r.total_sets for r in series]
        assert counts == sorted(counts)
