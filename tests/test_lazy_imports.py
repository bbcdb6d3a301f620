"""``import repro`` is cheap: public names resolve on first access."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.eval

SRC = Path(repro.__file__).resolve().parents[1]


def _loaded_after(statement: str) -> set:
    probe = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    ).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("package", [repro, repro.eval])
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro.eval, "run_all")


def test_from_import_still_works():
    from repro import ExecutionEngine, InterleaveProfile
    from repro.eval import EXPERIMENTS, ShardSupervisor

    assert ExecutionEngine.__module__ == "repro.eval.engine"
    assert InterleaveProfile.__module__ == "repro.profiling.profile"
    assert "table2" in EXPERIMENTS
    assert ShardSupervisor.__module__ == "repro.eval.supervisor"


def test_import_repro_loads_neither_numpy_nor_eval():
    loaded = _loaded_after("import repro")
    assert "numpy" not in loaded
    assert not any(m == "repro.eval" or m.startswith("repro.eval.")
                   for m in loaded)


def test_cli_module_defers_service_and_supervisor():
    loaded = _loaded_after("import repro.__main__")
    assert "repro.eval.supervisor" not in loaded
    assert not any(m.startswith("repro.service") for m in loaded)
