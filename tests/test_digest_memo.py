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

import repro.eval.engine as engine_mod
from repro.eval.engine import (
    DIGEST_SUBDIR,
    DigestMemo,
    ExecutionEngine,
    JobSpec,
    compute_job_digest,
    digest_source_key,
    digest_sources,
)

SCALE = 0.05
SRC = Path(engine_mod.__file__).resolve().parents[2]


@pytest.fixture
def builds(monkeypatch):
    """Count calls of the engine's ``build_workload``."""
    calls = []
    real = engine_mod.build_workload

    def counting(spec):
        calls.append(spec.name)
        return real(spec)

    monkeypatch.setattr(engine_mod, "build_workload", counting)
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
        JobSpec("plot", scale=SCALE, trace_limit=500),
        JobSpec("plot", scale=SCALE, backend="superblock"),
        JobSpec("pgp", scale=SCALE),
    ]
    digests = [compute_job_digest(spec, root) for spec in specs]
    assert len(set(digests)) == len(specs)
    assert [compute_job_digest(spec, root) for spec in specs] == digests
    assert len(builds) == len(specs)


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
    monkeypatch.setattr(engine_mod, "digest_source_key", lambda: "1" * 64)
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
    """Every ``repro`` module a workload build can load is hashed."""
    probe = (
        "import json, sys\n"
        "import repro.workloads.build, repro.workloads.suite\n"
        "import repro.isa.program\n"
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
    assert Path(engine_mod.__file__).resolve() in hashed


def test_kernel_edit_changes_the_source_key(tmp_path):
    """Editing a kernel (even a comment) invalidates every memo record."""
    tree = tmp_path / "src"
    shutil.copytree(SRC / "repro", tree / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = (
        "from repro.eval.engine import digest_source_key\n"
        "print(digest_source_key())\n"
    )

    def key() -> str:
        return subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(tree), "PATH": "/usr/bin:/bin"},
        ).stdout.strip()

    before = key()
    assert before == digest_source_key.__wrapped__()
    kernel = tree / "repro" / "workloads" / "kernels" / "sieve.py"
    kernel.write_text(kernel.read_text() + "\n# edited\n")
    assert key() != before


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
