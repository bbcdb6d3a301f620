"""CLI (`python -m repro`) tests."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.schema import SCHEMA_VERSION

REPO = Path(__file__).resolve().parent.parent


def _json_out(capsys, command):
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["command"] == command
    assert set(document) == {
        "schema_version", "command", "params", "results",
    }
    return document


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "compress" in out and "gcc" in out
    assert "rle" in out and "queens" in out


def test_run_command(capsys):
    assert main(["run", "plot", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "static branches" in out
    assert "conditional branches" in out


def test_profile_command(capsys):
    assert main(["profile", "plot", "--scale", "0.05",
                 "--threshold", "5"]) == 0
    out = capsys.readouterr().out
    assert "working sets" in out


def test_allocate_command(capsys):
    assert main(["allocate", "plot", "--scale", "0.05",
                 "--threshold", "5"]) == 0
    out = capsys.readouterr().out
    assert "required BHT size" in out
    assert "with classification" in out


def test_experiment_command(capsys):
    assert main(["experiment", "table2", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_experiment_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["experiment", "table9"])


def test_disasm_command_with_head(capsys):
    assert main(["disasm", "plot", "--scale", "0.05", "--head", "5"]) == 0
    out = capsys.readouterr().out
    assert "main:" in out
    assert "more lines" in out


def test_cfg_command(capsys):
    assert main(["cfg", "plot", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "blocks:" in out and "natural loops" in out


def test_cfg_command_lists_loops(capsys):
    assert main(["cfg", "plot", "--scale", "0.05", "--loops"]) == 0
    out = capsys.readouterr().out
    assert "back edge" in out


def test_lint_command_single_benchmark(capsys):
    assert main(["lint", "plot", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "plot: clean" in out


def test_lint_all_is_clean(capsys):
    """The CI entry point: every registered analog lints clean."""
    assert main(["lint", "--all", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert out.count("clean") == 15


def test_lint_command_requires_target(capsys):
    assert main(["lint"]) == 2
    assert "--all" in capsys.readouterr().err


def test_allocate_static_runs_without_simulation(capsys):
    assert main(["allocate", "plot", "--static", "--scale", "0.05",
                 "--threshold", "5", "--bht", "64"]) == 0
    out = capsys.readouterr().out
    assert "no profiling run" in out
    assert "predicted conflict graph" in out
    assert "allocation @64 entries" in out


def test_run_json_envelope(capsys):
    assert main(["run", "plot", "--scale", "0.05", "--json"]) == 0
    document = _json_out(capsys, "run")
    assert document["params"]["benchmark"] == "plot"
    assert document["params"]["backend"] == "interp"
    assert document["results"]["retired_instructions"] > 0
    assert document["results"]["static_branches"] > 0


def test_version_reports_package_and_schema(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out == f"repro {__version__} (schema {SCHEMA_VERSION})"


def test_run_backend_flag_is_equivalent(capsys):
    assert main(["run", "plot", "--scale", "0.05", "--json"]) == 0
    interp = _json_out(capsys, "run")
    assert main(["run", "plot", "--scale", "0.05", "--json",
                 "--backend", "superblock"]) == 0
    superblock = _json_out(capsys, "run")
    assert superblock["params"]["backend"] == "superblock"
    # identical results; only the params differ (by the backend name)
    assert superblock["results"] == interp["results"]


def test_run_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        main(["run", "plot", "--backend", "jit"])


def test_profile_backend_flag(capsys, tmp_path):
    assert main(["profile", "plot", "--scale", "0.05", "--threshold", "5",
                 "--backend", "superblock", "--json"]) == 0
    document = _json_out(capsys, "profile")
    assert document["params"]["backend"] == "superblock"
    assert document["results"]["working_sets"] > 0


def test_profile_json_envelope(capsys):
    assert main(["profile", "plot", "--scale", "0.05",
                 "--threshold", "5", "--json"]) == 0
    document = _json_out(capsys, "profile")
    assert document["results"]["working_sets"] > 0
    assert document["results"]["threshold"] == 5


def test_allocate_json_envelope(capsys):
    assert main(["allocate", "plot", "--scale", "0.05",
                 "--threshold", "5", "--json"]) == 0
    document = _json_out(capsys, "allocate")
    assert document["params"]["static"] is False
    assert document["results"]["required_size_plain"] > 0


def test_allocate_static_json_envelope(capsys):
    assert main(["allocate", "plot", "--static", "--scale", "0.05",
                 "--threshold", "5", "--bht", "64", "--json"]) == 0
    document = _json_out(capsys, "allocate")
    assert document["params"]["static"] is True
    assert document["results"]["predicted_nodes"] > 0


def test_experiment_jobs_and_cache(tmp_path, capsys):
    argv = ["experiment", "table2", "--scale", "0.03",
            "--cache", str(tmp_path), "--jobs", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "simulated" in out          # per-job timing block
    assert "cache: 0 hit(s)" in out

    # warm rerun: every artifact comes back from the store
    assert main(argv + ["--json"]) == 0
    document = _json_out(capsys, "experiment")
    assert document["params"]["jobs"] == 2
    engine = document["results"]["engine"]
    assert engine["simulated"] == 0
    assert engine["store_hits"] == len(document["results"]["benchmarks"])
    assert "Table 2" in document["results"]["output"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


#: Every subcommand's options (first option string, or a positional's
#: name) and their parsed defaults.  verify-static's --scale defaults to
#: None because the selected set's declared scale applies before 1.0.
OPTION_SURFACE = {
    "list": {"--json": False},
    "run": {"benchmark": None, "--scale": 1.0, "--backend": "interp",
            "--json": False},
    "profile": {"benchmark": None, "--scale": 1.0, "--cache": "",
                "--json": False, "--threshold": 0, "--backend": "interp"},
    "allocate": {"benchmark": None, "--scale": 1.0, "--cache": "",
                 "--json": False, "--threshold": 0, "--static": False,
                 "--bht": 128},
    "cfg": {"benchmark": None, "--scale": 1.0, "--loops": False},
    "lint": {"benchmark": "", "--all": False, "--scale": 1.0,
             "--strict": False, "--waive": [], "--json": False},
    "verify-static": {"benchmarks": None, "--set": "", "--shard": "",
                      "--scale": None, "--cache": "", "--jobs": 1,
                      "--threshold": 0, "--json": False},
    "experiment": {"id": None, "--set": "", "--benchmarks": "",
                   "--shard": "", "--scale": None, "--cache": "",
                   "--jobs": 1, "--timeout": 0.0, "--retries": 1,
                   "--checkpoint-every": 0, "--backend": "interp",
                   "--json": False},
    "faults": {"--benchmarks": "", "--set": "", "--scale": None,
               "--jobs": 4, "--cache": "", "--crash": "", "--hang": "",
               "--flaky": "", "--corrupt": "", "--kill": "",
               "--checkpoint-every": 0, "--timeout": 0.0, "--retries": 1,
               "--json": False},
    "serve": {"--socket": None, "--cache": None, "--workers": 2,
              "--queue-limit": 16, "--retries": 1, "--quota-rate": 0.0,
              "--quota-burst": 8.0, "--checkpoint-every": 20000,
              "--deadline": 0.0},
    "loadgen": {"--socket": None, "--rate": 10.0, "--jobs": 20,
                "--benchmarks": "", "--set": "", "--tenants": 1,
                "--scale": 0.05, "--predictors": "", "--deadline": 0.0,
                "--slow-client": 0, "--conn-drop": 0,
                "--backend": "interp", "--json": False},
    "merge-shards": {"sources": None, "--into": None, "--json": False},
    "supervise": {"--set": "", "--benchmarks": "", "--workers": 2,
                  "--scale": None, "--cache": None, "--retries": 1,
                  "--checkpoint-every": 20000, "--max-restarts": None,
                  "--lease-timeout": None, "--no-speculate": False,
                  "--backend": "interp", "--json": False},
    "disasm": {"benchmark": None, "--scale": 1.0, "--head": 0},
}


def test_option_surface_is_unchanged():
    """No subcommand gains, loses or renames a flag, or changes a default."""
    [subparsers] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {
        command: {
            (action.option_strings or [action.dest])[0]: action.default
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for command, parser in subparsers.choices.items()
    }
    assert surface == OPTION_SURFACE


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "doom", "--scale", "0.05"],
        ["profile", "doom", "--scale", "0.05"],
        ["allocate", "doom", "--scale", "0.05"],
        ["allocate", "doom", "--static", "--scale", "0.05"],
        ["cfg", "doom", "--scale", "0.05"],
        ["lint", "doom", "--scale", "0.05"],
        ["disasm", "doom", "--scale", "0.05"],
    ],
)
def test_unknown_benchmark_exits_with_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark 'doom'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "table2", "--jobs", "0"],
        ["experiment", "table2", "--retries", "-1"],
        ["experiment", "table2", "--checkpoint-every", "-5"],
        ["experiment", "table2", "--timeout", "-1"],
        ["serve", "--socket", "s", "--cache", "c", "--workers", "0"],
        ["serve", "--socket", "s", "--cache", "c", "--checkpoint-every", "0"],
        ["serve", "--socket", "s", "--cache", "c", "--deadline", "-1"],
        ["supervise", "--set", "smoke", "--cache", "c", "--retries", "-1"],
        ["supervise", "--set", "smoke", "--cache", "c",
         "--lease-timeout", "-1"],
        ["supervise", "--set", "smoke", "--cache", "c", "--scale", "nan"],
        ["run", "plot", "--scale", "nan"],
        ["run", "plot", "--scale", "0"],
        ["experiment", "table2", "--benchmarks", "plot", "--scale", "0"],
        ["profile", "plot", "--threshold", "-5"],
        ["allocate", "plot", "--static", "--bht", "0"],
        ["disasm", "plot", "--head", "-3"],
        ["loadgen", "--socket", "s", "--rate", "0"],
        ["loadgen", "--socket", "s", "--jobs", "0"],
        ["loadgen", "--socket", "s", "--tenants", "0"],
        ["loadgen", "--socket", "s", "--slow-client", "-1"],
        ["loadgen", "--socket", "s", "--conn-drop", "-1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_out_of_range_numbers_exit_2_without_traceback(argv, tmp_path):
    """Rejected when the arguments are parsed: a usage message and exit
    2, never a traceback or a run that fails every job."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"argument {argv[-2]}: must be" in result.stderr


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--quota-rate", "1", "--quota-burst", "0.5"], "quota_burst"),
        (["--quota-rate", "2", "--quota-burst", "0"], "quota_burst"),
        (["--quota-rate", "nan"], "quota_rate"),
        (["--retries", "-1"], "--retries"),
    ],
    ids=["burst-half", "burst-zero", "rate-nan", "retries-negative"],
)
def test_serve_refuses_quotas_that_admit_nothing(argv, field, tmp_path):
    """A quota no submit could pass, or a negative retry budget, stops
    ``serve`` before it binds a socket: exit 2, no traceback."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--socket", "s",
         "--cache", "c", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert field in result.stderr
    assert not (tmp_path / "s").exists()


def test_checkpoint_every_zero_stays_off(tmp_path, capsys):
    assert main(["experiment", "table2", "--checkpoint-every", "0",
                 "--scale", "0.05", "--benchmarks", "plot", "--json"]) == 0
    params = _json_out(capsys, "experiment")["params"]
    assert params["checkpoint_every"] is None


def test_lint_json_envelope(capsys):
    assert main(["lint", "plot", "--scale", "0.05", "--json"]) == 0
    document = _json_out(capsys, "lint")
    assert document["params"]["strict"] is False
    [report] = document["results"]["reports"]
    assert report["name"] == "plot"
    assert report["clean"] is True
    assert document["results"]["failed"] is False
    assert document["results"]["waived"] == 0


def test_lint_strict_passes_on_clean_program(capsys):
    assert main(["lint", "plot", "--scale", "0.05", "--strict"]) == 0


def test_lint_rejects_malformed_waiver(capsys):
    assert main(["lint", "plot", "--waive", "nocolon"]) == 2
    assert "BENCH:CODE" in capsys.readouterr().err


def test_lint_waiver_suppresses_strict_failure(capsys, monkeypatch):
    from repro.static_analysis.lint import Diagnostic, LintReport

    def fake_lint(program, check_registers=True):
        return LintReport(
            name="plot",
            diagnostics=(
                Diagnostic("warning", "dead-store", "synthetic", 0x1000),
            ),
        )

    # cmd_lint imports the linter when it runs
    monkeypatch.setattr("repro.static_analysis.lint_program", fake_lint)
    base = ["lint", "plot", "--scale", "0.05", "--strict"]
    assert main(base) == 1
    capsys.readouterr()
    assert main(base + ["--waive", "plot:dead-store", "--json"]) == 0
    document = _json_out(capsys, "lint")
    assert document["results"]["waived"] == 1
    assert document["results"]["failed"] is False


def test_verify_static_command(capsys):
    assert main(["verify-static", "plot", "--scale", "0.05",
                 "--threshold", "5"]) == 0
    out = capsys.readouterr().out
    assert "hit rate" in out and "plot" in out
    assert "suite dynamic hit rate" in out


def test_verify_static_json_envelope(capsys):
    assert main(["verify-static", "plot", "--scale", "0.05",
                 "--threshold", "5", "--json"]) == 0
    document = _json_out(capsys, "verify-static")
    assert document["params"]["benchmarks"] == ["plot"]
    [row] = document["results"]["rows"]
    assert row["benchmark"] == "plot"
    assert 0.5 < row["hit_rate"] <= 1.0
    assert row["heuristics"]
    suite = document["results"]["suite"]
    assert suite["executions"] > 0
    assert suite["hit_rate"] == row["hit_rate"]


def test_verify_static_runs_at_the_sets_scale(capsys):
    """With no --scale, the selected set's declared scale applies."""
    assert main(["verify-static", "--set", "smoke", "--json"]) == 0
    document = _json_out(capsys, "verify-static")
    assert document["params"]["scale"] == 0.05
    assert [row["benchmark"] for row in document["results"]["rows"]] == [
        "compress", "pgp", "plot",
    ]


def test_verify_static_reports_the_resolved_list(capsys):
    """With no selection, params name the whole `all` set (before the
    shard); the rows cover this host's slice of it, and a shard that owns
    none of the list says so in `note`."""
    from repro.eval.shards import ShardSpec, shard_names
    from repro.workloads.registry import members

    assert main(["verify-static", "--shard", "15/15", "--scale", "0.05",
                 "--threshold", "5", "--json"]) == 0
    document = _json_out(capsys, "verify-static")
    assert document["params"]["benchmarks"] == list(members("all"))
    assert [row["benchmark"] for row in document["results"]["rows"]] == list(
        shard_names(members("all"), ShardSpec(15, 15), 0.05)
    )
    assert document["results"]["note"] is None
    # more shards than names: this host owns none, and says so
    assert main(["verify-static", "plot", "--shard", "2/2", "--scale",
                 "0.05", "--json"]) == 0
    document = _json_out(capsys, "verify-static")
    assert document["params"]["benchmarks"] == ["plot"]
    assert document["results"]["rows"] == []
    assert "owns no benchmarks" in document["results"]["note"]


def test_experiment_json_envelope_on_a_typed_failure(capsys):
    """A typed error other than suite_degraded still emits the envelope."""
    assert main(["experiment", "claims", "--scale", "0.05", "--json"]) == 1
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["command"] == "experiment"
    results = document["results"]
    assert results["id"] == "claims"
    assert results["error"]["code"] == "claims_not_met"
    assert results["engine"]["simulated"] == 0
    assert "claims_not_met" in captured.err


def test_verify_static_unknown_benchmark(capsys):
    assert main(["verify-static", "doom", "--scale", "0.05"]) == 2
    assert "unknown benchmark 'doom'" in capsys.readouterr().err


def test_loadgen_fails_when_no_request_reaches_the_daemon(tmp_path, capsys):
    """A missing socket is a failed run, not an empty success."""
    code = main(["loadgen", "--socket", str(tmp_path / "missing.sock"),
                 "--jobs", "3", "--rate", "100", "--json"])
    results = _json_out(capsys, "loadgen")["results"]
    assert code == 1
    assert results["client_errors"] == 3
    assert results["completed"] == results["rejected"] == 0
    assert results["failed"] == 0
