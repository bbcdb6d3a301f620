"""Table/figure experiment tests at test scale.

These check structure and internal consistency (row counts, value ranges,
ordering invariants) rather than the full-scale paper shapes, which the
benchmark harness regenerates.
"""

import pytest

from conftest import TEST_THRESHOLD
from repro.eval.figures import (
    average_improvement,
    format_figure,
    run_figure3,
    run_figure4,
)
from repro.eval.tables import (
    format_sizing_table,
    format_table1,
    format_table2,
    reduction_summary,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)

BENCH_SUBSET = ["compress", "plot"]


def test_table1_rows(engine):
    rows = run_table1(engine, benchmarks=BENCH_SUBSET)
    assert [r.benchmark for r in rows] == BENCH_SUBSET
    for row in rows:
        assert row.analyzed_dynamic <= row.total_dynamic
        assert row.percent_analyzed >= 99.0  # cutoff targets 99.9%
        assert row.analyzed_static <= row.static_branches
    text = format_table1(rows)
    assert "Table 1" in text and "compress" in text


def test_table2_rows(engine):
    rows = run_table2(
        engine, benchmarks=BENCH_SUBSET, threshold=TEST_THRESHOLD
    )
    for row in rows:
        assert row.total_sets >= 1
        assert 1 <= row.average_static_size <= row.largest_size
        assert row.largest_size <= row.static_branches
    text = format_table2(rows)
    assert "working sets" in text


def test_table3_sizes_below_baseline_table(engine):
    rows = run_table3(
        engine, benchmarks=BENCH_SUBSET, threshold=TEST_THRESHOLD
    )
    for row in rows:
        assert 1 <= row.required_size < 1024
        if row.baseline_cost > 0:
            assert row.achieved_cost < row.baseline_cost
        else:
            assert row.achieved_cost == 0
    text = format_sizing_table(rows, "Table 3", "(working sets only)")
    assert "Table 3" in text


def test_table4_requires_no_more_than_table3(engine):
    t3 = run_table3(engine, benchmarks=BENCH_SUBSET,
                    threshold=TEST_THRESHOLD)
    t4 = run_table4(engine, benchmarks=BENCH_SUBSET,
                    threshold=TEST_THRESHOLD)
    for row3, row4 in zip(t3, t4):
        assert row4.benchmark == row3.benchmark
        # classification can only relax the colouring problem
        assert row4.required_size <= row3.required_size + 2


def test_reduction_summary_fractions(engine):
    t3 = run_table3(engine, benchmarks=BENCH_SUBSET,
                    threshold=TEST_THRESHOLD)
    t4 = run_table4(engine, benchmarks=BENCH_SUBSET,
                    threshold=TEST_THRESHOLD)
    r3, r4 = reduction_summary(t3, t4)
    assert 0.0 < r3 <= 1.0
    assert r4 >= r3 - 0.05


@pytest.fixture(scope="module")
def figure3_rows(engine):
    return run_figure3(
        engine, benchmarks=BENCH_SUBSET, threshold=TEST_THRESHOLD,
        sizes=(16, 128, 1024),
    )


def test_figure3_rates_are_probabilities(figure3_rows):
    for row in figure3_rows:
        for rate in list(row.allocated.values()) + [
            row.conventional, row.interference_free
        ]:
            assert 0.0 <= rate <= 1.0


def test_figure3_allocated_1024_close_to_interference_free(figure3_rows):
    for row in figure3_rows:
        assert row.allocated[1024] <= row.interference_free + 0.01


def test_figure3_bigger_allocated_tables_do_not_hurt(figure3_rows):
    for row in figure3_rows:
        assert row.allocated[1024] <= row.allocated[16] + 0.005


def test_figure_format_and_improvement(figure3_rows):
    text = format_figure(figure3_rows, "Figure 3", "test")
    assert "Figure 3" in text and "alloc@1024" in text
    improvement = average_improvement(figure3_rows)
    assert -0.5 < improvement < 1.0
    assert average_improvement([]) == 0.0


def test_figure4_classified_variant(engine):
    rows = run_figure4(
        engine, benchmarks=["compress"], threshold=TEST_THRESHOLD,
        sizes=(16, 128),
    )
    (row,) = rows
    assert set(row.allocated) == {16, 128}
    assert 0.0 <= row.allocated[128] <= 1.0
