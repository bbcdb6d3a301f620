"""The typed error taxonomy: hierarchy, serialisation, historical bases."""

import json
import pickle

import pytest

from repro import errors
from repro.errors import (
    ArtifactCorrupt,
    CheckpointCorrupt,
    ClaimsNotMet,
    JobCancelled,
    JobFailed,
    JobInterrupted,
    JobTimeout,
    MemAccessError,
    QuotaExceeded,
    ReproError,
    ServiceOverloaded,
    SuiteDegraded,
    SuiteInterrupted,
    error_to_dict,
)


# -- hierarchy --------------------------------------------------------------


def test_taxonomy_roots():
    for cls in (ArtifactCorrupt, CheckpointCorrupt, JobFailed, JobTimeout,
                JobCancelled, JobInterrupted,
                ServiceOverloaded, QuotaExceeded, SuiteDegraded,
                SuiteInterrupted, MemAccessError):
        assert issubclass(cls, ReproError)
    assert issubclass(JobTimeout, JobFailed)
    assert issubclass(JobCancelled, JobFailed)
    # an interrupted job is resumable progress, not a failure
    assert not issubclass(JobInterrupted, JobFailed)


def test_folded_errors_join_the_taxonomy():
    """Errors defined in their home modules are re-exported lazily and
    descend from ReproError while keeping their historical bases."""
    assert issubclass(errors.SimulationError, ReproError)
    assert issubclass(errors.SimulationError, RuntimeError)
    assert issubclass(errors.FuelExhausted, ReproError)
    assert issubclass(errors.FuelExhausted, RuntimeError)
    assert issubclass(errors.SyscallError, ReproError)
    assert issubclass(errors.AsmSyntaxError, ReproError)
    assert issubclass(errors.AsmSyntaxError, ValueError)
    assert issubclass(errors.EncodingError, ReproError)
    assert issubclass(errors.EncodingError, ValueError)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        errors.NotAnError


def test_mem_access_error_legacy_alias_is_gone():
    # the deprecated MemoryError_ alias completed its removal cycle
    import repro.sim.memory as memory_module

    with pytest.raises(AttributeError):
        memory_module.MemoryError_
    assert issubclass(MemAccessError, RuntimeError)


def test_asm_syntax_error_keeps_line_formatting():
    exc = errors.AsmSyntaxError("bad mnemonic", 3)
    assert str(exc) == "line 3: bad mnemonic"
    assert exc.line == 3
    assert exc.to_dict()["line"] == 3


# -- serialisation ----------------------------------------------------------


def test_to_dict_carries_code_and_context():
    exc = JobTimeout("gcc blew its budget", benchmark="gcc",
                     timeout_seconds=2.5)
    payload = exc.to_dict()
    assert payload == {
        "error": "JobTimeout",
        "code": "job_timeout",
        "message": "gcc blew its budget",
        "benchmark": "gcc",
        "timeout_seconds": 2.5,
    }
    assert str(exc) == "gcc blew its budget"


def test_error_codes_are_distinct():
    classes = (ReproError, ArtifactCorrupt, CheckpointCorrupt, JobFailed,
               JobTimeout, JobCancelled, JobInterrupted, ClaimsNotMet,
               ServiceOverloaded, QuotaExceeded, SuiteDegraded,
               SuiteInterrupted, MemAccessError)
    codes = {cls.code for cls in classes}
    assert len(codes) == len(classes)


def test_error_to_dict_wraps_foreign_exceptions():
    payload = error_to_dict(ValueError("nope"))
    assert payload == {
        "error": "ValueError",
        "code": "unexpected_error",
        "message": "nope",
    }
    typed = error_to_dict(ArtifactCorrupt("bad entry", digest="abcd"))
    assert typed["code"] == "artifact_corrupt"
    assert typed["digest"] == "abcd"


def test_all_error_payloads_round_trip_through_json():
    """Every taxonomy member's to_dict() must survive json.dumps/loads —
    the CLI envelope and the run journal both persist these payloads."""
    from repro.eval.faults import InjectedFault

    samples = [
        ReproError("root", detail="context"),
        ArtifactCorrupt("bad entry", benchmark="gcc", digest="abcd",
                        quarantined=["a.trace.npz"]),
        CheckpointCorrupt("bad checkpoint", stem="gcc-s1-abcd", seq=3,
                          quarantined=[]),
        JobFailed("died", benchmark="gcc", attempts=2,
                  cause={"code": "unexpected_error"}),
        JobTimeout("slow", benchmark="gcc", timeout_seconds=1.5),
        JobCancelled("deadline", benchmark="gcc", deadline_s=2.0),
        JobInterrupted("drained", benchmark="gcc", events=1000,
                       checkpoints_written=2),
        ServiceOverloaded("queue full", queue_depth=16, queue_limit=16),
        QuotaExceeded("slow down", tenant="t0", retry_after_s=0.5),
        SuiteDegraded("all failed", benchmarks=["a", "b"]),
        ClaimsNotMet("1 of 7 claims failed", failed=["Table 3: ..."]),
        SuiteInterrupted("drained", completed=["a"], remaining=["b"]),
        MemAccessError("unmapped", address=0xDEAD),
        InjectedFault("boom", benchmark="plot", fault="worker_kill",
                      events=15000),
        errors.SimulationError("pc left text"),
        errors.FuelExhausted("out of fuel"),
        errors.SyscallError("unknown syscall 99"),
    ]
    for exc in samples:
        payload = exc.to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload
        assert round_tripped["code"] == type(exc).code
        assert round_tripped["error"] == type(exc).__name__


def test_checkpoint_corrupt_code():
    exc = CheckpointCorrupt("torn file", stem="x", seq=1)
    assert exc.code == "checkpoint_corrupt"
    assert error_to_dict(exc)["seq"] == 1


def test_repro_errors_pickle_round_trip():
    """Worker failures cross process boundaries; context must survive."""
    original = JobFailed("compress died", benchmark="compress", attempts=3)
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, JobFailed)
    assert clone.message == "compress died"
    assert clone.context == {"benchmark": "compress", "attempts": 3}
    assert clone.to_dict() == original.to_dict()
