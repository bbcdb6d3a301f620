"""Regenerate ``perfbench/expected/`` with the ``interp`` oracle backend.

The benchmark runs every workload on the ``superblock`` backend; the
values its correctness gates compare against are produced here by the
independent interpreter backend (artifacts are byte-identical across
backends, which the test suite already guarantees).  Run from the
repository root when the workloads' inputs or the program's outputs
change on purpose::

    python3 perfbench/make_expected.py          # several minutes (scale 1.0)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from repro.eval.engine import ExecutionEngine, JobSpec, compute_job_digest  # noqa: E402
from repro.pipeline.bus import BranchEventBus  # noqa: E402
from repro.pipeline.consumers import PredictorConsumer  # noqa: E402
from repro.service.jobs import build_predictor  # noqa: E402
from repro.workloads.registry import members  # noqa: E402

ORACLE = "interp"
EXPECTED = HERE / "expected"


def summaries(names, scale, store: Path) -> dict:
    engine = ExecutionEngine(
        scale=scale, cache_dir=store, jobs=2, backend=ORACLE
    )
    engine.prefetch(list(names))
    return {name: inputs.artifact_summary(engine.artifacts(name)) for name in names}


def predictions(name: str, scale: float, store: Path) -> dict:
    engine = ExecutionEngine(scale=scale, cache_dir=store, backend=ORACLE)
    trace = engine.trace(name)
    bank = [
        PredictorConsumer(build_predictor(text), label=name)
        for text in inputs.PREDICTORS
    ]
    BranchEventBus.replay(trace, bank)
    return {
        text: {
            "branches": consumer.result.branches,
            "mispredictions": consumer.result.mispredictions,
        }
        for text, consumer in zip(inputs.PREDICTORS, bank)
    }


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-expected-", dir=ROOT))
    try:
        suite = summaries(
            inputs.SUITE_COLD_BENCHMARKS, inputs.SUITE_COLD_SCALE,
            work / "cold",
        )
        (EXPECTED / "suite_cold.json").write_text(
            json.dumps(suite, indent=1, sort_keys=True) + "\n"
        )
        store = work / "warm"
        summaries(inputs.SUITE_WARM_BENCHMARKS, inputs.SUITE_WARM_SCALE, store)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for experiment in inputs.WARM_EXPERIMENTS:
            out = subprocess.run(
                [
                    sys.executable, "-m", "repro", "experiment", experiment,
                    "--benchmarks", ",".join(inputs.SUITE_WARM_BENCHMARKS),
                    "--scale", str(inputs.SUITE_WARM_SCALE), "--backend", ORACLE,
                    "--cache", str(store), "--json",
                ],
                env=env, cwd=ROOT, check=True, capture_output=True, text=True,
            ).stdout
            text = json.loads(out)["results"]["output"]
            (EXPECTED / f"{experiment}.txt").write_text(text + "\n")
        supervised = summaries(
            members(inputs.SUPERVISED_SET), inputs.SUPERVISED_SCALE,
            work / "unix",
        )
        (EXPECTED / "supervised.json").write_text(
            json.dumps(supervised, indent=1, sort_keys=True) + "\n"
        )
        pairs = [(h, inputs.HOT_SCALE) for h in inputs.HOT_SET]
        pairs += list(inputs.COLD_PAIRS)
        digests = {
            pair: compute_job_digest(
                JobSpec(pair[0], pair[1], None, inputs.BACKEND)
            )
            for pair in pairs
        }
        if len(set(digests.values())) != len(pairs):
            raise SystemExit("service-mix pairs do not have distinct digests")
        service = {
            f"{name}@{scale:g}": {
                "digest": digests[(name, scale)],
                "predictions": predictions(name, scale, work / "service"),
            }
            for name, scale in pairs
        }
        (EXPECTED / "service_mix.json").write_text(
            json.dumps(service, indent=1, sort_keys=True) + "\n"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
