"""Ablation runners and the experiment registry, at test scale."""

import pytest

from conftest import TEST_THRESHOLD
from repro.eval.ablations import (
    format_hash_baseline,
    format_input_sensitivity,
    format_predictor_family,
    format_threshold_ablation,
    run_hash_baseline,
    run_input_sensitivity,
    run_predictor_family,
    run_threshold_ablation,
)
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.static_compare import (
    format_static_compare,
    run_static_compare,
)


def test_threshold_ablation_monotone_sets(engine):
    rows = run_threshold_ablation(
        engine, ["compress"], thresholds=(5, 20, 80)
    )
    assert [r.threshold for r in rows] == [5, 20, 80]
    # higher thresholds prune edges -> never fewer, larger sets
    sets = [r.total_sets for r in rows]
    assert sets == sorted(sets)
    sizes = [r.average_static_size for r in rows]
    assert sizes == sorted(sizes, reverse=True)
    assert "threshold" in format_threshold_ablation(rows)


def test_input_sensitivity_rows(engine):
    rows = run_input_sensitivity(engine, pairs=("ss",))
    (row,) = rows
    assert row.benchmark == "ss"
    assert row.size_a >= 1 and row.size_b >= 1 and row.size_merged >= 1
    # the merged profile needs a table in the single inputs' range, not
    # their sum (EXPERIMENTS.md §5.2: ss_a 133, ss_b 106, merged 130)
    assert (
        min(row.size_a, row.size_b)
        <= row.size_merged
        <= max(row.size_a, row.size_b) + 2
    )
    assert row.cross_cost_a_on_b >= 0
    assert "input A" in format_input_sensitivity(rows)


def test_predictor_family_results(engine):
    results = run_predictor_family(engine, ["compress"], history_bits=10)
    rates = results["compress"]
    assert set(rates) == {
        "PAg", "GAg", "gshare", "bimodal", "hybrid", "agree",
        "bias-filtered", "static-heur"
    }
    assert all(0.0 <= rate <= 1.0 for rate in rates.values())
    # the heuristic predictor is static: it must beat a coin flip but
    # cannot beat the trained table predictors
    assert rates["static-heur"] < 0.5
    assert rates["static-heur"] >= rates["PAg"]
    text = format_predictor_family(results)
    assert "gshare" in text
    assert format_predictor_family({}) == "(no results)"


def test_hash_baseline_rows(engine):
    rows = run_hash_baseline(engine, ["compress"], bht_size=64)
    (row,) = rows
    # the profile-guided allocation never loses to blind hashing at the
    # conflict-cost objective it optimises
    assert row.allocated_cost <= row.conventional_cost
    assert row.allocated_cost <= row.xorfold_cost
    assert "xor-fold" in format_hash_baseline(rows)


def test_experiment_registry_complete():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table3", "table4",
        "figure3", "figure4", "claims",
        "ablation_threshold", "ablation_inputs",
        "ablation_predictors", "ablation_hash", "ablation_groups",
        "ablation_alignment", "ablation_cliques", "ablation_history",
        "static_compare", "verify_static",
    }
    for experiment in EXPERIMENTS.values():
        assert experiment.description
        assert experiment.paper_artifact


def test_run_experiment_unknown_id(engine):
    with pytest.raises(KeyError):
        run_experiment("table9", engine)


def test_run_experiment_renders_text(engine):
    text = run_experiment("table2", engine)
    assert "Table 2" in text
    assert "compress" in text


def test_static_compare_rows(engine):
    rows = run_static_compare(
        engine, benchmarks=["compress", "chess"], bht_size=32,
        threshold=TEST_THRESHOLD,
    )
    assert [r.benchmark for r in rows] == ["compress", "chess"]
    for row in rows:
        # the profiled allocation optimises the graph it is scored on,
        # so the conventional baseline bounds it; the static allocation
        # holds no such guarantee (it never saw the profile)
        assert 0 <= row.profiled_cost <= row.conventional
        assert row.static_cost >= 0
        assert row.static_branches > 0 and row.predicted_edges > 0
        if row.profiled_cost:
            assert row.ratio == row.static_cost / row.profiled_cost
        elif row.static_cost == 0:
            assert row.ratio == 1.0  # both allocations reached zero
        else:
            assert row.ratio is None
    text = format_static_compare(rows)
    assert "static/prof" in text and "compress" in text


def test_empty_benchmark_list_analyses_nothing():
    """An explicit empty list is not "no list": nothing is simulated."""
    from repro.eval.engine import ExecutionEngine

    engine = ExecutionEngine(scale=0.05)
    text = run_experiment("table2", engine, [])
    assert "Table 2" in text
    assert engine.stats.job_source == {}


def test_ablation_inputs_shards_keep_input_pairs_whole(tmp_path, capsys):
    """Each shard owns whole _a/_b pairs: every ``--shard K/3`` exits 0
    (a shard with no pair prints a note) and the shards' rows together
    are the unsharded table."""
    from repro.__main__ import main

    def rows(*shard):
        assert main(["experiment", "ablation_inputs", "--scale", "0.05",
                     "--cache", str(tmp_path), *shard]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.split()[:1] in (["perl"], ["ss"])]

    sharded = [row for k in (1, 2, 3) for row in rows("--shard", f"{k}/3")]
    unsharded = rows()
    assert len(unsharded) == 2
    assert sorted(sharded) == sorted(unsharded)
