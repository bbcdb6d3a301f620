"""A rerun continues a run, and is never served artifacts of older sources.

Finished work is found through the digest memo and the content-addressed
store, both of which check the current sources.  After a kernel edit the
same command must simulate the edited benchmark again and report the new
numbers; once that is stored, the next rerun is all store hits.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _plot_row(output: str) -> str:
    (row,) = [line for line in output.splitlines() if "plot" in line]
    return row


def test_rerun_after_a_source_edit_resimulates_the_edited_benchmark(
    tmp_path,
):
    src = tmp_path / "src"
    shutil.copytree(
        REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__")
    )
    cache = tmp_path / "cache"
    command = [
        sys.executable, "-m", "repro", "experiment", "table2",
        "--benchmarks", "plot", "--scale", "0.05",
        "--cache", str(cache), "--json",
    ]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run():
        result = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)["results"]

    first = run()
    assert first["engine"]["simulated"] == 1

    # change one argument of plot's evaluate phase in the copied sources
    suite = src / "repro" / "workloads" / "suite.py"
    text = suite.read_text()
    head, plot = text.split("def _plot(", 1)
    old = 'rep.take("sieve", 8, lambda i: (80 + 40 * i,))'
    assert plot.count(old) == 1
    suite.write_text(
        head + "def _plot("
        + plot.replace(old, 'rep.take("sieve", 8, lambda i: (90 + 40 * i,))')
    )

    second = run()
    assert second["engine"]["simulated"] == 1
    assert second["engine"]["store_hits"] == 0
    assert _plot_row(second["output"]) != _plot_row(first["output"])

    third = run()
    assert third["engine"]["simulated"] == 0
    assert third["engine"]["store_hits"] == 1
    assert third["output"] == second["output"]
