"""Figure 3 — PAg misprediction with branch allocation, no classification.

Bars per benchmark: allocated BHT at 16/128/1024 entries vs the
conventional 1024-entry PAg and the interference-free configuration.
"""

from conftest import THRESHOLD, save_result
from repro.eval.figures import (
    average_improvement,
    format_figure,
    run_figure3,
)
from repro.workloads.registry import members


def test_figure3(benchmark, engine):
    engine.prefetch(members("figures"))
    rows = benchmark.pedantic(
        lambda: run_figure3(engine, threshold=THRESHOLD),
        rounds=1,
        iterations=1,
    )
    save_result(
        "figure3",
        format_figure(rows, "Figure 3", "allocation without classification")
        + f"\n\naverage relative improvement @1024: "
        f"{average_improvement(rows):+.1%} (paper: ~16%)",
    )

    assert len(rows) == len(members("figures"))
    for row in rows:
        # allocated 1024-entry tracks the interference-free bound ...
        assert row.allocated[1024] <= row.interference_free + 0.005, row
        # ... and never loses to the conventional baseline
        assert row.allocated[1024] <= row.conventional + 0.002, row
    # the paper's headline: on average, allocation at equal size wins
    assert average_improvement(rows) >= 0.0
