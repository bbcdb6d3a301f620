"""The digest memo: a warm job's digest without rebuilding its workload.

``compute_job_digest(spec, root)`` answers from ``<root>/digests/`` while
the record's source key matches the sources a digest depends on; every
other case (no record, garbage, another source key) builds and digests,
exactly once.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.eval.digest as digest_mod
import repro.eval.worker as worker_mod
from repro.eval.digest import (
    DIGEST_SUBDIR,
    DigestMemo,
    JobSpec,
    compute_job_digest,
    digest_source_key,
    digest_sources,
)
from repro.eval.engine import ExecutionEngine

SCALE = 0.05
SRC = Path(digest_mod.__file__).resolve().parents[2]


@pytest.fixture
def builds(monkeypatch):
    """Count calls of ``build_workload`` by the digest and the worker."""
    calls = []
    real = digest_mod.build_workload

    def counting(spec):
        calls.append(spec.name)
        return real(spec)

    for module in (digest_mod, worker_mod):
        monkeypatch.setattr(module, "build_workload", counting)
    return calls


def test_memo_hit_skips_the_build(tmp_path, builds):
    spec = JobSpec("plot", scale=SCALE)
    first = compute_job_digest(spec, str(tmp_path))
    assert builds == ["plot"]
    assert (tmp_path / DIGEST_SUBDIR / f"{spec.tag()}.json").is_file()
    assert compute_job_digest(spec, str(tmp_path)) == first
    assert builds == ["plot"]
    # the memo never changes the answer
    assert compute_job_digest(spec) == first


def test_memo_is_per_spec(tmp_path, builds):
    root = str(tmp_path)
    specs = [
        JobSpec("plot", scale=SCALE),
        JobSpec("plot", scale=SCALE, backend="superblock"),
        JobSpec("pgp", scale=SCALE),
    ]
    digests = [compute_job_digest(spec, root) for spec in specs]
    assert len(set(digests)) == len(specs)
    assert [compute_job_digest(spec, root) for spec in specs] == digests
    assert len(builds) == len(specs)


@pytest.mark.parametrize(
    "pair", ["plot@0.05", "compress@0.05", "ijpeg@0.061"]
)
def test_digest_matches_the_recorded_benchmark_digest(pair):
    """The digest formula (the constant ``limit:0`` included) still gives
    the digests the repo benchmark recorded for its service mix."""
    expected = (
        Path(__file__).resolve().parents[1]
        / "perfbench" / "expected" / "service_mix.json"
    )
    recorded = json.loads(expected.read_text())[pair]["digest"]
    name, scale = pair.split("@")
    spec = JobSpec(name, float(scale), None, "superblock")
    assert compute_job_digest(spec) == recorded


@pytest.mark.parametrize(
    "damage", ["garbage", "truncated", "source_key", "spec", "digest"]
)
def test_bad_memo_file_is_a_miss_never_a_wrong_hit(tmp_path, builds, damage):
    spec = JobSpec("plot", scale=SCALE)
    truth = compute_job_digest(spec, str(tmp_path))
    path = DigestMemo(tmp_path).path(spec)
    record = json.loads(path.read_text())
    if damage == "garbage":
        path.write_bytes(b"\x00\xffnot json at all")
    elif damage == "truncated":
        path.write_text(json.dumps(record)[:40])
    else:
        wrong = {
            "source_key": {"source": "0" * 64, "digest": "f" * 64},
            "spec": {"spec": {**record["spec"], "scale": 0.1}},
            "digest": {"digest": "not-a-digest"},
        }[damage]
        record.update(wrong)
        path.write_text(json.dumps(record))
    builds.clear()
    assert compute_job_digest(spec, str(tmp_path)) == truth
    assert builds == ["plot"]
    # the miss rewrote a good record
    builds.clear()
    assert compute_job_digest(spec, str(tmp_path)) == truth
    assert builds == []


def test_source_key_change_invalidates(tmp_path, builds, monkeypatch):
    spec = JobSpec("plot", scale=SCALE)
    truth = compute_job_digest(spec, str(tmp_path))
    monkeypatch.setattr(digest_mod, "digest_source_key", lambda: "1" * 64)
    builds.clear()
    assert compute_job_digest(spec, str(tmp_path)) == truth
    assert builds == ["plot"]


def test_unwritable_memo_is_ignored(tmp_path, builds):
    spec = JobSpec("plot", scale=SCALE)
    (tmp_path / DIGEST_SUBDIR).write_text("a file where the directory goes")
    truth = compute_job_digest(spec)
    assert compute_job_digest(spec, str(tmp_path)) == truth
    assert compute_job_digest(spec, str(tmp_path)) == truth
    assert builds == ["plot", "plot", "plot"]


def test_memo_hashes_every_module_the_build_imports():
    """Every ``repro`` module a workload build or a digest can load is
    hashed, and the store, the workers and the scheduler are not."""
    probe = (
        "import json, sys\n"
        "import repro.workloads.build, repro.workloads.suite\n"
        "import repro.isa.program, repro.eval.digest\n"
        "print(json.dumps(sorted(m.__file__ for n, m in sys.modules.items()"
        " if n == 'repro' or n.startswith('repro.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    ).stdout
    loaded = {Path(f).resolve() for f in json.loads(out)}
    hashed = set(digest_sources())
    assert loaded - hashed == set()
    eval_dir = Path(digest_mod.__file__).resolve().parent
    assert eval_dir / "digest.py" in hashed
    for name in ("engine.py", "store.py", "worker.py"):
        assert eval_dir / name not in hashed


def _copy_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "src"
    shutil.copytree(SRC / "repro", tree / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def _run_in(tree: Path, code: str, *args: str) -> str:
    """Run *code* on the copied sources; its stdout."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True, timeout=600,
        env={"PYTHONPATH": str(tree), "PATH": "/usr/bin:/bin"},
    ).stdout


def _source_key(tree: Path) -> str:
    return _run_in(
        tree,
        "from repro.eval.digest import digest_source_key\n"
        "print(digest_source_key())\n",
    ).strip()


def _append_comment(tree: Path, *parts: str) -> None:
    path = tree.joinpath("repro", *parts)
    path.write_text(path.read_text() + "\n# edited\n")


def test_kernel_edit_changes_the_source_key(tmp_path):
    """Editing a kernel or the digest module (even a comment) invalidates
    every memo record."""
    tree = _copy_tree(tmp_path)
    before = _source_key(tree)
    assert before == digest_source_key.__wrapped__()
    _append_comment(tree, "workloads", "kernels", "sieve.py")
    kernel_edited = _source_key(tree)
    assert kernel_edited != before
    _append_comment(tree, "eval", "digest.py")
    assert _source_key(tree) not in (before, kernel_edited)


#: ``experiment table2 --json`` on the copied sources, with every
#: ``build_workload`` binding logging to the file named by ``argv[2]``
#: (appends, so builds in forked workers are logged too).
_COUNTED_TABLE2 = """\
import sys
import repro.workloads.build as build
real = build.build_workload
def counting(spec):
    with open(sys.argv[2], "a") as log:
        log.write(spec.name + "\\n")
    return real(spec)
for name, module in list(sys.modules.items()):
    if name.startswith("repro") and vars(module).get("build_workload") is real:
        module.build_workload = counting
from repro.__main__ import main
sys.exit(main(["experiment", "table2", "--scale", "0.05", "--jobs", "2",
               "--cache", sys.argv[1], "--json"]))
"""


def test_engine_store_worker_edits_keep_the_memo(tmp_path):
    """Editing the scheduler, the store or the workers keeps every memo
    record: the warm rerun is all store hits and builds nothing."""
    tree = _copy_tree(tmp_path)
    cache, builds = str(tmp_path / "cache"), tmp_path / "builds.log"

    def table2() -> dict:
        builds.write_text("")
        out = _run_in(tree, _COUNTED_TABLE2, cache, str(builds))
        return json.loads(out)["results"]["engine"]

    before = _source_key(tree)
    assert table2()["simulated"] > 0
    assert builds.read_text()  # the log sees the cold run's builds
    for name in ("engine.py", "store.py", "worker.py"):
        _append_comment(tree, "eval", name)
    assert _source_key(tree) == before
    warm = table2()
    assert warm["simulated"] == 0
    assert warm["store_hits"] > 0
    assert builds.read_text() == ""


def test_warm_engine_job_builds_nothing(tmp_path, builds):
    cold = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    cold.artifacts("plot")
    assert builds == ["plot"]  # the memo miss and the simulation share it

    builds.clear()
    warm = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    warm.artifacts("plot")
    assert warm.digest("plot") == cold.digest("plot")
    assert warm.stats.store_hits == 1
    assert builds == []


def test_memo_hit_with_a_store_miss_builds_once(tmp_path, builds):
    spec = JobSpec("plot", scale=SCALE)
    compute_job_digest(spec, str(tmp_path))
    builds.clear()
    engine = ExecutionEngine(scale=SCALE, cache_dir=tmp_path)
    engine.artifacts("plot")
    assert engine.stats.simulated == 1
    assert builds == ["plot"]


def test_service_submit_uses_the_memo(tmp_path, builds):
    from repro.service.app import AnalysisService, Connection, ServiceConfig

    def submit(tag):
        config = ServiceConfig(
            socket_path=str(tmp_path / f"{tag}.sock"),
            cache_dir=str(tmp_path / "cache"),
        )
        service = AnalysisService(config)
        conn = Connection()
        service._dispatch(
            {"op": "submit", "id": tag, "benchmark": "plot", "scale": SCALE},
            conn,
        )
        (ack,) = [conn.queue.get_nowait()]
        return ack["digest"]

    first = submit("a")
    assert builds == ["plot"]
    assert submit("b") == first
    assert builds == ["plot"]
