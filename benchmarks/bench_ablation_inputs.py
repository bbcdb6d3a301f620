"""Ablation — profile input sensitivity + cumulative profiles (§5.2)."""

from conftest import save_result
from repro.eval.ablations import (
    format_input_sensitivity,
    run_input_sensitivity,
)


def test_ablation_inputs(benchmark, engine):
    engine.prefetch(["perl_a", "perl_b", "ss_a", "ss_b"])
    rows = benchmark.pedantic(
        lambda: run_input_sensitivity(engine, pairs=("perl", "ss")),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_inputs", format_input_sensitivity(rows))

    assert {r.benchmark for r in rows} == {"perl", "ss"}
    for row in rows:
        assert row.size_a >= 1 and row.size_b >= 1
        # the cumulative profile's requirement is in the same regime as
        # the single-input ones (the paper: "will not necessarily lead to
        # significantly larger table requirements")
        assert row.size_merged <= 4 * max(row.size_a, row.size_b)
