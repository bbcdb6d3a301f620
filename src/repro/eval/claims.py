"""The paper's claims, judged from the rows of Tables 2-4 and Figures 3-4.

Pure, rows in and verdicts out, so every tolerance is decided here.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Mapping, Sequence

from ..allocation.conflict_cost import BASELINE_BHT
from ..errors import ClaimsNotMet
from ..workloads.registry import members
from .figures import average_improvement
from .report import render_table
from .tables import reduction_summary

TOLERANCE = 0.001  # 0.1pp of misprediction rate
ROW_SETS = {"table2": "table2", "table3": "table34", "table4": "table34",
            "figure3": "figures", "figure4": "figures"}

Verdict = namedtuple("Verdict", "claim measured held")


def _worst(f3, f4, key):
    worst, where = max((r.allocated[BASELINE_BHT] - getattr(r, key),
                        f"{r.benchmark}, Fig. {n}")
                       for n, fig in ((3, f3), (4, f4)) for r in fig)
    return f"worst {worst * 100:+.3f}pp ({where})", worst <= TOLERANCE


def judge(rows: Mapping[str, Sequence]) -> List[Verdict]:
    """One verdict per claim; a ``ROW_SETS`` benchmark with no row raises."""
    missing = [f"{name} ({key})" for key, set_name in ROW_SETS.items()
               for name in members(set_name)
               if name not in {r.benchmark for r in rows[key]}]
    if missing:
        raise ClaimsNotMet(f"no row for {', '.join(missing)}", missing=missing)
    t2, t3, t4, f3, f4 = (rows[key] for key in ROW_SETS)
    most = max(t2, key=lambda r: r.static_branches)
    gcc = next(r for r in t2 if r.benchmark == "gcc")
    small = gcc.static_branches == most.static_branches and all(
        r.total_sets >= 1 and r.largest_size <= min(256, r.static_branches)
        and r.largest_size >= r.average_static_size
        and r.largest_size >= r.average_dynamic_size for r in t2)
    largest = sorted(r.largest_size for r in t2)
    plain = {r.benchmark: r.required_size for r in t3}
    sizes = sorted(r.required_size for r in t4)
    costed = [r for r in t3 if r.baseline_cost > 0]
    beat = sum(r.achieved_cost < r.baseline_cost for r in costed)
    shrunk = sum(r.required_size < plain[r.benchmark] for r in t4)
    r3, r4 = reduction_summary(t3, t4)
    ties = sum(r.allocated[128] <= r.conventional + TOLERANCE for r in f4)
    wins = sum(r.allocated[128] < r.conventional for r in f4)
    g3, g4 = average_improvement(f3), average_improvement(f4)
    return [
        Verdict("Table 2: >= 1 working set, largest <= 256 and <= statics; "
                "gcc has the most statics", f"largest {largest[0]}-"
                f"{largest[-1]}; most statics {most.benchmark}", small),
        Verdict("Table 3: < 1024 entries; achieved cost < baseline where > 0",
                f"{min(plain.values())}-{max(plain.values())}; "
                f"{beat}/{len(costed)} below baseline",
                max(plain.values()) < BASELINE_BHT and beat == len(costed)),
        Verdict("Table 4: classification shrinks every Table 3 size; mean "
                "reduction >= Table 3's", f"{sizes[0]}-{sizes[-1]}; "
                f"{shrunk}/{len(t4)} shrunk; mean reduction {r4:.1%} vs "
                f"{r3:.1%}", shrunk == len(t4) and r4 >= r3),
        Verdict("Figs 3-4: alloc@1024 <= interference-free + 0.1pp",
                *_worst(f3, f4, "interference_free")),
        Verdict("Figs 3-4: alloc@1024 <= conv@1024 + 0.1pp",
                *_worst(f3, f4, "conventional")),
        Verdict("Fig 4: classified alloc@128 <= conv@1024 + 0.1pp on >= 12 "
                "of 13", f"{ties}/{len(f4)} ({wins} strictly)",
                ties >= len(f4) - 1),
        Verdict("Figs 3-4: mean gain@1024 > 0 (paper: ~16%)",
                f"{g3:+.2%} / {g4:+.2%}", g3 > 0 and g4 > 0),
    ]


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    """The verdict table; raises :class:`ClaimsNotMet` if a claim failed."""
    text = render_table(
        ["#", "claim", "measured", "verdict"],
        [(i, v.claim, v.measured, "holds" if v.held else "FAILS")
         for i, v in enumerate(verdicts, 1)],
        title="The paper's claims at scale 1.0 (tolerance 0.1pp)")
    failed = [v.claim for v in verdicts if not v.held]
    if failed:
        raise ClaimsNotMet(f"{len(failed)} of {len(verdicts)} claims "
                           f"failed\n{text}", failed=failed)
    return text
