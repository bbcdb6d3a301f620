"""Ablation — is profile-guided allocation better than a stronger hash?

The paper's conclusion proposes "better hashing algorithms by analyzing
and understanding execution characteristics"; this bench quantifies the
gap between a blind xor-fold hash and the profile-guided mapping.
"""

from conftest import save_result
from repro.eval.ablations import format_hash_baseline, run_hash_baseline

BENCHMARKS = ("gcc", "python", "chess", "gs", "tex")


def test_ablation_hash(benchmark, engine):
    engine.prefetch(BENCHMARKS)
    rows = benchmark.pedantic(
        lambda: run_hash_baseline(engine, BENCHMARKS, bht_size=1024),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_hash", format_hash_baseline(rows))

    for row in rows:
        # the profiled allocator never loses at its own objective
        assert row.allocated_cost <= row.conventional_cost
        assert row.allocated_cost <= row.xorfold_cost
