"""Table 1 — benchmarks, input sets, % of dynamic branches analyzed."""

from conftest import save_result
from repro.eval.tables import format_table1, run_table1
from repro.workloads.registry import members


def test_table1(benchmark, engine):
    engine.prefetch(members("table2"))
    rows = benchmark.pedantic(
        lambda: run_table1(engine, members("table2")), rounds=1,
        iterations=1,
    )
    save_result("table1", format_table1(rows))

    assert len(rows) == len(members("table2"))
    for row in rows:
        # the frequency cutoff keeps >=99% of dynamic branches, as in the
        # paper's Table 1 (worst case there: gcc at 93.74%)
        assert row.percent_analyzed >= 93.0, row
        assert 0 < row.analyzed_static <= row.static_branches
