"""Ablation — PAg local-history length sweep.

The paper fixes the PHT at 4096 entries (12-bit histories); this sweep
checks that allocation's advantage over conventional indexing is not an
artifact of that geometry.
"""

from conftest import THRESHOLD, save_result
from repro.eval.ablations import format_history_sweep, run_history_sweep

BENCHMARKS = ("gcc", "tex")
BITS = (4, 6, 8, 10, 12)


def test_ablation_history(benchmark, engine):
    engine.prefetch(BENCHMARKS)
    rows = benchmark.pedantic(
        lambda: run_history_sweep(
            engine, BENCHMARKS, history_bits=BITS, threshold=THRESHOLD
        ),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_history", format_history_sweep(rows))

    for name in BENCHMARKS:
        series = [r for r in rows if r.benchmark == name]
        assert [r.history_bits for r in series] == list(BITS)
        for row in series:
            # allocation never loses to conventional at any history length
            assert row.allocated <= row.conventional + 0.002, row
            # and tracks the interference-free bound
            assert row.allocated <= row.interference_free + 0.005, row
        # longer local histories help these pattern-heavy workloads
        assert series[-1].allocated <= series[0].allocated
