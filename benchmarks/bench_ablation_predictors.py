"""Ablation — the 2-level predictor family on the same traces."""

from conftest import save_result
from repro.eval.ablations import (
    format_predictor_family,
    run_predictor_family,
)

BENCHMARKS = ("compress", "gcc", "li", "chess")


def test_ablation_predictors(benchmark, engine):
    engine.prefetch(BENCHMARKS)
    results = benchmark.pedantic(
        lambda: run_predictor_family(engine, BENCHMARKS),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_predictors", format_predictor_family(results))

    for name in BENCHMARKS:
        rates = results[name]
        assert set(rates) == {
            "PAg", "GAg", "gshare", "bimodal", "hybrid", "agree",
            "bias-filtered"
        }
        # every dynamic predictor stays below coin-flipping
        assert all(rate < 0.5 for rate in rates.values()), rates
        # the hybrid never does much worse than its better component
        best_component = min(rates["gshare"], rates["bimodal"])
        assert rates["hybrid"] <= best_component + 0.02
