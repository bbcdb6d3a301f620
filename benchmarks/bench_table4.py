"""Table 4 — BHT size required with branch classification."""

from conftest import THRESHOLD, save_result
from repro.eval.tables import (
    format_sizing_table,
    reduction_summary,
    run_table3,
    run_table4,
)
from repro.workloads.registry import members


def test_table4(benchmark, engine):
    engine.prefetch(members("table34"))
    rows = benchmark.pedantic(
        lambda: run_table4(engine, threshold=THRESHOLD),
        rounds=1,
        iterations=1,
    )
    save_result(
        "table4",
        format_sizing_table(rows, "Table 4", "with branch classification"),
    )

    table3 = run_table3(engine, threshold=THRESHOLD)
    by_name3 = {r.benchmark: r for r in table3}
    smaller = 0
    for row in rows:
        assert row.required_size < 1024
        if row.required_size <= by_name3[row.benchmark].required_size:
            smaller += 1
    # classification shrinks (or preserves) the requirement almost
    # everywhere — in the paper it shrinks every single benchmark
    assert smaller >= len(rows) - 2

    r3, r4 = reduction_summary(table3, rows)
    save_result(
        "reduction_summary",
        f"mean BHT size reduction vs 1024 entries:\n"
        f"  plain allocation       : {r3:.1%}  (paper: 60-80%)\n"
        f"  with classification    : {r4:.1%}  (paper: up to 97%)",
    )
    assert r4 >= r3 - 1e-9
