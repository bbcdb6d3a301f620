"""Static-vs-dynamic verification pass (`repro verify-static`)."""

from conftest import TEST_THRESHOLD
from repro.eval.static_compare import (
    format_verify_static,
    run_verify_static,
)


def test_verify_static_rows(engine):
    rows = run_verify_static(
        engine, benchmarks=["compress", "chess"], threshold=TEST_THRESHOLD
    )
    assert [r.benchmark for r in rows] == ["compress", "chess"]
    for row in rows:
        # the heuristics cover every static branch, so every profiled
        # branch is covered
        assert 0 < row.covered_branches <= row.profiled_branches
        assert row.covered_branches <= row.static_branches
        assert row.executions > 0
        # a 50% hit rate is a coin flip; the catalogue must beat it
        assert 0.5 < row.hit_rate <= 1.0
        assert 0.0 <= row.hits <= row.executions
        assert 0.5 < row.majority_rate <= 1.0
        # the per-heuristic breakdown tiles the covered totals exactly
        assert sum(h.branches for h in row.heuristics) == (
            row.covered_branches
        )
        assert sum(h.executions for h in row.heuristics) == row.executions
        assert abs(sum(h.hits for h in row.heuristics) - row.hits) < 1e-6
        # edge scores are well-formed fractions of the right edge sets
        assert row.common_edges <= min(
            row.predicted_edges, row.measured_edges
        )
        if row.predicted_edges:
            assert row.edge_precision == (
                row.common_edges / row.predicted_edges
            )
        if row.measured_edges:
            assert row.edge_recall == row.common_edges / row.measured_edges
        # working-set shapes are non-degenerate on real benchmarks
        assert row.predicted_sets > 0 and row.measured_sets > 0
        assert row.predicted_largest > 0 and row.measured_largest > 0


def test_verify_static_matches_predictor_hit_rate(engine):
    """The dynamic-weighted hit rate IS the static-heur predictor's hit
    rate: both integrate per-branch agreement over the same executions."""
    from repro.eval.ablations import run_predictor_family

    [row] = run_verify_static(
        engine, benchmarks=["compress"], threshold=TEST_THRESHOLD
    )
    rates = run_predictor_family(engine, ["compress"])["compress"]
    miss_rate = rates["static-heur"]
    assert abs((1.0 - miss_rate) - row.hit_rate) < 1e-6


def test_verify_static_as_dict_payload(engine):
    [row] = run_verify_static(
        engine, benchmarks=["compress"], threshold=TEST_THRESHOLD
    )
    payload = row.as_dict()
    assert payload["benchmark"] == "compress"
    assert payload["hit_rate"] == row.hit_rate
    assert {"predicted", "measured", "common", "precision", "recall"} == (
        set(payload["edges"])
    )
    assert {h["heuristic"] for h in payload["heuristics"]} == {
        h.heuristic for h in row.heuristics
    }
    assert payload["working_sets"]["measured_sets"] == row.measured_sets


def test_format_verify_static(engine):
    rows = run_verify_static(
        engine, benchmarks=["compress"], threshold=TEST_THRESHOLD
    )
    text = format_verify_static(rows)
    assert "hit rate" in text and "compress" in text
    assert "suite dynamic hit rate" in text
    assert "Static-vs-dynamic verification" in format_verify_static([])
