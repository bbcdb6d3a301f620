"""Table 3 — BHT size required for branch allocation (no classification)."""

from conftest import THRESHOLD, save_result
from repro.eval.tables import format_sizing_table, run_table3
from repro.workloads.registry import members


def test_table3(benchmark, engine):
    engine.prefetch(members("table34"))
    rows = benchmark.pedantic(
        lambda: run_table3(engine, threshold=THRESHOLD),
        rounds=1,
        iterations=1,
    )
    save_result(
        "table3",
        format_sizing_table(rows, "Table 3", "(working sets only)"),
    )

    assert len(rows) == len(members("table34"))
    for row in rows:
        # the paper's claim: allocation beats the conventional 1024-entry
        # BHT with a fraction of the entries (60-80% reduction there)
        assert row.required_size < 1024, row
        if row.baseline_cost > 0:
            assert row.achieved_cost < row.baseline_cost, row
