"""Ablation — branch alignment (code motion, no ISA change) vs allocation.

The paper (§5): working set information "can be incorporated into a branch
alignment transformation for any ISA without change although it may not be
as effective as our scheme".  This bench quantifies both halves of that
sentence: alignment reduces the conventional table's conflicts, and true
allocation still does better.
"""

from conftest import THRESHOLD, save_result
from repro.eval.ablations import (
    format_alignment_ablation,
    run_alignment_ablation,
)

BENCHMARKS = ("gcc", "tex", "m88ksim")


def test_ablation_alignment(benchmark, engine):
    engine.prefetch(BENCHMARKS)
    rows = benchmark.pedantic(
        lambda: run_alignment_ablation(
            engine, BENCHMARKS, threshold=THRESHOLD
        ),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_alignment", format_alignment_ablation(rows))

    for row in rows:
        # alignment never increases the conflict cost ...
        assert row.aligned_cost <= row.original_cost, row
        # ... but true allocation is at least as effective (the paper's
        # "may not be as effective as our scheme")
        assert row.allocated_cost <= row.aligned_cost, row
        # and aligned layouts do not mispredict more on the same hardware
        assert row.aligned_mispredict <= row.original_mispredict + 0.002
