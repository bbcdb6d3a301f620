"""Ablation — working-set definition: disjoint partition vs overlapping
maximal cliques (the paper's §4.1 "many other definitions are possible").
"""

from conftest import THRESHOLD, save_result
from repro.eval.ablations import (
    format_clique_definition,
    run_clique_definition_ablation,
)

BENCHMARKS = ("compress", "pgp", "plot", "chess", "tex", "gs")


def test_ablation_cliques(benchmark, engine):
    engine.prefetch(BENCHMARKS)
    rows = benchmark.pedantic(
        lambda: run_clique_definition_ablation(
            engine, BENCHMARKS, threshold=THRESHOLD
        ),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_cliques", format_clique_definition(rows))

    for row in rows:
        if row.maximal_cliques < 0:
            continue  # enumeration capped; nothing to compare
        # overlapping cliques can only be at least as numerous/big as the
        # disjoint partition's sets
        assert row.maximal_cliques >= row.partition_sets
        assert row.maximal_avg >= row.partition_avg - 1e-9
        assert row.membership_per_branch >= 1.0
    # the shared-kernel benchmarks genuinely overlap
    by_name = {r.benchmark: r for r in rows}
    assert by_name["tex"].membership_per_branch > 1.0
