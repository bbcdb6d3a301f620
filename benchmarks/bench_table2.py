"""Table 2 — the sizes of branch working sets."""

from conftest import THRESHOLD, save_result
from repro.eval.tables import format_table2, run_table2
from repro.workloads.registry import members


def test_table2(benchmark, engine):
    engine.prefetch(members("table2"))
    rows = benchmark.pedantic(
        lambda: run_table2(engine, threshold=THRESHOLD),
        rounds=1,
        iterations=1,
    )
    save_result("table2", format_table2(rows))

    assert len(rows) == len(members("table2"))
    by_name = {r.benchmark: r for r in rows}
    for row in rows:
        assert row.total_sets >= 1
        # the paper's core observation: each working set holds only a
        # small fraction of the program's static branches
        assert row.average_static_size <= row.static_branches
        assert row.average_dynamic_size <= row.static_branches
    # gcc has the largest static population in both the paper and here
    assert by_name["gcc"].static_branches == max(
        r.static_branches for r in rows
    )
