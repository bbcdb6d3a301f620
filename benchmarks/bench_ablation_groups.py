"""Ablation — group-level allocation (the paper's §6 extension).

Compares per-branch allocation against bias-class and history-pattern
groupings at a 128-entry BHT: good groupings shrink the colouring problem
while keeping prediction accuracy close to per-branch allocation.
"""

from conftest import save_result
from repro.eval.group_allocation import (
    format_group_ablation,
    run_group_ablation,
)

BENCHMARKS = ("compress", "gcc", "tex", "perl_a")


def test_ablation_groups(benchmark, engine):
    engine.prefetch(BENCHMARKS)
    rows = benchmark.pedantic(
        lambda: run_group_ablation(engine, BENCHMARKS, bht_size=128),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_groups", format_group_ablation(rows))

    for row in rows:
        profile = engine.profile(row.benchmark)
        statics = profile.static_branch_count
        # grouping genuinely shrinks the allocation problem
        assert row.bias_groups <= statics
        assert row.pattern_groups <= statics
        # and costs little accuracy relative to per-branch allocation
        assert row.bias_mispredict <= row.branch_mispredict + 0.02
        assert row.pattern_mispredict <= row.branch_mispredict + 0.02
