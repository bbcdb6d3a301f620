"""A rerun continues a run, and is never served artifacts of older sources.

Finished work is found through the digest memo and the content-addressed
store, both of which check the current sources.  After a kernel edit the
same command must simulate the edited benchmark again and report the new
numbers; once that is stored, the next rerun is all store hits.  The
shard supervisor asks the same question when a worker dies: a benchmark
finished before the edit is unfinished after it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _plot_row(output: str) -> str:
    (row,) = [line for line in output.splitlines() if "plot" in line]
    return row


def _copy_sources(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(
        REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__")
    )
    return src


def _edit_plot(src: Path) -> None:
    """Change one argument of plot's evaluate phase in the copied sources."""
    suite = src / "repro" / "workloads" / "suite.py"
    text = suite.read_text()
    head, plot = text.split("def _plot(", 1)
    old = 'rep.take("sieve", 8, lambda i: (80 + 40 * i,))'
    assert plot.count(old) == 1
    suite.write_text(
        head + "def _plot("
        + plot.replace(old, 'rep.take("sieve", 8, lambda i: (90 + 40 * i,))')
    )


def _runner(src: Path, args, **env_extra):
    """Run ``python -m repro`` on the copied sources; returns the results."""
    env = dict(os.environ, PYTHONPATH=str(src), **env_extra)
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_rerun_after_a_source_edit_resimulates_the_edited_benchmark(
    tmp_path,
):
    src = _copy_sources(tmp_path)
    cache = tmp_path / "cache"
    command = [
        "experiment", "table2", "--benchmarks", "plot", "--scale", "0.05",
        "--cache", str(cache), "--json",
    ]

    def run():
        return json.loads(_runner(src, command))["results"]

    first = run()
    assert first["engine"]["simulated"] == 1

    _edit_plot(src)

    second = run()
    assert second["engine"]["simulated"] == 1
    assert second["engine"]["store_hits"] == 0
    assert _plot_row(second["output"]) != _plot_row(first["output"])

    third = run()
    assert third["engine"]["simulated"] == 0
    assert third["engine"]["store_hits"] == 1
    assert third["output"] == second["output"]


def test_a_predictor_source_edit_misses_every_prediction_record(tmp_path):
    """Figure predictor results are stored beside the entry, keyed on the
    predictor sources: a rerun replays nothing, and after a comment is
    added to a predictor kernel the rerun replays every predictor again
    (the entry itself is still a store hit)."""
    src = _copy_sources(tmp_path)
    command = [
        "experiment", "figure3", "--benchmarks", "plot,compress",
        "--scale", "0.05", "--cache", str(tmp_path / "cache"), "--json",
    ]

    def run():
        results = json.loads(_runner(src, command))["results"]
        return results["engine"]["replayed_runs"], results["output"]

    replayed, output = run()
    assert replayed == 2
    assert run() == (0, output)

    kernel = src / "repro" / "predictors" / "twolevel.py"
    kernel.write_text(kernel.read_text() + "\n# edited\n")

    assert run() == (2, output)
    assert run() == (0, output)


@pytest.mark.slow
@pytest.mark.faults
def test_supervised_rerun_after_a_source_edit_restarts_the_lost_worker(
    tmp_path,
):
    """plot is stored (and journaled complete) for the old sources only;
    after the edit the rerun's only worker is killed mid-simulation.
    The supervisor must restart it and end with an entry for the edited
    sources beside the old one."""
    src = _copy_sources(tmp_path)
    cache = tmp_path / "cache"
    command = [
        "supervise", "--benchmarks", "plot", "--workers", "1",
        "--scale", "0.05", "--cache", str(cache), "--json",
    ]
    _runner(src, command)
    (before,) = sorted(cache.glob("plot-*.meta.json"))

    _edit_plot(src)

    results = json.loads(
        _runner(src, command, REPRO_FAULTS="shard_kill:1@1000")
    )["results"]
    assert results["supervisor"]["restarts"] == 1
    (event,) = results["shard_events"]
    assert event["code"] == "shard_lost"
    assert event["benchmarks"] == ["plot"]
    assert results["completed"] == ["plot"]
    after = sorted(cache.glob("plot-*.meta.json"))
    assert len(after) == 2 and before in after
    assert _verify_current(src, cache) == "True"


def _verify_current(src: Path, cache: Path) -> str:
    """Whether the store holds a verified plot entry for *src*'s sources."""
    code = (
        "import sys\n"
        "from repro.eval.digest import JobSpec, compute_job_digest\n"
        "from repro.eval.store import ArtifactStore\n"
        "spec = JobSpec('plot', 0.05, None, 'interp')\n"
        "print(ArtifactStore(sys.argv[1]).verify(spec, "
        "compute_job_digest(spec)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(cache)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()
