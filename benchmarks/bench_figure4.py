"""Figure 4 — PAg misprediction with allocation + branch classification."""

from conftest import THRESHOLD, save_result
from repro.eval.figures import (
    average_improvement,
    format_figure,
    run_figure3,
    run_figure4,
)
from repro.workloads.registry import members


def test_figure4(benchmark, engine):
    engine.prefetch(members("figures"))
    rows = benchmark.pedantic(
        lambda: run_figure4(engine, threshold=THRESHOLD),
        rounds=1,
        iterations=1,
    )
    save_result(
        "figure4",
        format_figure(rows, "Figure 4", "allocation with classification")
        + f"\n\naverage relative improvement @1024: "
        f"{average_improvement(rows):+.1%}",
    )

    assert len(rows) == len(members("figures"))
    wins_at_128 = 0
    for row in rows:
        assert row.allocated[1024] <= row.conventional + 0.002, row
        # a 0.1pp tolerance absorbs benchmarks where the two configurations
        # tie to within noise (pgp/python here; the paper's one exception
        # was gcc)
        if row.allocated[128] <= row.conventional + 0.001:
            wins_at_128 += 1
    # the paper: classified allocation at 128 entries beats (or matches)
    # the conventional 1024-entry PAg on every benchmark except one
    assert wins_at_128 >= len(rows) - 2
