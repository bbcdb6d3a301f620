"""The paper-claims judge on hand-built rows, without simulating.

Rows shaped like the full-scale suite hold every claim; doctoring one row
fails exactly the claim that reads it; a missing benchmark or a
downscaled run is refused.
"""

from dataclasses import replace

import pytest

from repro.errors import ClaimsNotMet
from repro.eval.claims import judge, render_verdicts
from repro.eval.engine import ExecutionEngine
from repro.eval.experiments import run_experiment
from repro.eval.figures import FigureRow
from repro.eval.tables import SizingRow, Table2Row
from repro.workloads.registry import members

SIZING = SizingRow("", required_size=100, baseline_cost=500,
                   achieved_cost=400, static_branches=300)
BARS = FigureRow("", allocated={16: 0.06, 128: 0.045, 1024: 0.04},
                 conventional=0.05, interference_free=0.04)


def _rows():
    def per(set_name, row, **changes):
        return {n: replace(row, benchmark=n, **changes)
                for n in members(set_name)}

    table2 = per("table2", Table2Row("", 3, 20.0, 60.0, 100, 200, 100))
    table2["gcc"] = replace(table2["gcc"], static_branches=391)
    return {"table2": table2, "table3": per("table34", SIZING),
            "table4": per("table34", SIZING, required_size=50),
            "figure3": per("figures", BARS), "figure4": per("figures", BARS)}


def _judge(rows):
    return judge({key: list(by_name.values()) for key, by_name in rows.items()})


def test_suite_shaped_rows_hold_every_claim():
    text = render_verdicts(_judge(_rows()))
    assert text.count("holds") == 7
    assert "largest 100-100; most statics gcc" in text
    assert "13/13 (13 strictly)" in text


DOCTORED = [  # (claim, row list, benchmarks, changes)
    (1, "table2", ["li"], dict(largest_size=257, static_branches=300)),
    (1, "table2", ["ss"], dict(average_dynamic_size=101.0)),
    (1, "table2", ["compress"], dict(static_branches=392)),
    (2, "table3", ["tex"], dict(required_size=1024)),
    (2, "table3", ["pgp"], dict(achieved_cost=500)),
    (3, "table4", ["gs"], dict(required_size=100)),
    (4, "figure3", ["li"], dict(interference_free=0.038)),
    (5, "figure4", ["pgp"], dict(conventional=0.0385)),
    (6, "figure4", ["gcc", "tex"],
     dict(allocated={16: 0.08, 128: 0.07, 1024: 0.04})),
    (7, "figure3", members("figures"), dict(conventional=0.04)),
]


@pytest.mark.parametrize("claim, key, names, changes", DOCTORED)
def test_doctored_row_fails_its_claim(claim, key, names, changes):
    rows = _rows()
    for name in names:
        rows[key][name] = replace(rows[key][name], **changes)
    verdicts = _judge(rows)
    assert [i for i, v in enumerate(verdicts, 1) if not v.held] == [claim]
    with pytest.raises(ClaimsNotMet, match="1 of 7 claims failed") as info:
        render_verdicts(verdicts)
    assert info.value.context["failed"] == [verdicts[claim - 1].claim]
    assert "FAILS" in str(info.value)


def test_missing_benchmark_is_a_failed_claim():
    rows = _rows()
    del rows["figure4"]["python"]
    with pytest.raises(ClaimsNotMet, match=r"no row for python \(figure4\)"):
        _judge(rows)


def test_claims_refuse_a_downscaled_run_before_simulating(tmp_path):
    engine = ExecutionEngine(scale=0.05, cache_dir=tmp_path)
    with pytest.raises(ClaimsNotMet, match="judged at scale 1.0, not 0.05"):
        run_experiment("claims", engine)
    assert engine.stats.simulated == engine.stats.store_hits == 0
    assert list(tmp_path.iterdir()) == []
