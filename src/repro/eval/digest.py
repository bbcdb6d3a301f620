"""Content digests of job artifacts, and the memo that skips the build.

Artifacts are keyed on a digest of the assembled program image, its
input bytes and the capture parameters, so editing a kernel (or the
assembler, via the emitted image) invalidates stale traces automatically
and warm runs skip simulation entirely.  Computing a digest means
building the workload; the :class:`DigestMemo` answers warm jobs without
that build.

This module decides every digest and nothing else: the memo's source
key hashes it, not the store, the workers or the scheduler, so an edit
to those keeps every memo record.  It must therefore import nothing
from :mod:`~repro.eval.store`, :mod:`~repro.eval.worker`,
:mod:`~repro.eval.engine`, the simulator, the pipeline or the
checkpoints.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from ..workloads.build import BuiltWorkload, build_workload
from ..workloads.suite import get_benchmark

#: Bump to invalidate every stored artifact (digest input change).
#: v2: the simulation backend became a digest component.
DIGEST_VERSION = 2


@dataclass(frozen=True)
class JobSpec:
    """One unit of engine work: a benchmark at a scale on a backend."""

    name: str
    scale: float = 1.0
    # the retired event cap, kept for positional callers: only None
    trace_limit: None = None
    backend: str = "interp"

    def __post_init__(self) -> None:
        if self.trace_limit is not None:
            raise ValueError(
                "trace_limit is no longer supported (every run captures "
                f"its full trace), got {self.trace_limit!r}"
            )

    def tag(self) -> str:
        """Human-readable artifact prefix (the legacy cache tag)."""
        tag = f"{self.name}-s{self.scale:g}"
        if self.backend != "interp":
            tag += f"-b{self.backend}"
        return tag


def artifact_digest(built: BuiltWorkload, backend: str = "interp") -> str:
    """Content digest for one job's artifacts.

    Hashes the assembled program image (text + data + entry point), the
    input bytes, and every parameter that changes what a capture run
    records (random seed, fuel budget).  Anything that alters the
    simulated instruction stream alters the digest.  The
    simulation backend is also a component: backends are verified
    byte-compatible, but artifacts must record exactly how they were
    produced, so different backends never alias in the store.
    """
    text, data = built.program.to_image()
    hasher = hashlib.sha256()
    for part in (
        f"v{DIGEST_VERSION}",
        f"entry:{built.program.entry_point}",
        f"seed:{built.spec.random_seed}",
        f"fuel:{built.spec.fuel}",
        "limit:0",  # the retired event cap: every digest stays the same
        f"backend:{backend}",
    ):
        hasher.update(part.encode("ascii"))
        hasher.update(b"\x00")
    hasher.update(text)
    hasher.update(b"\x00")
    hasher.update(data)
    hasher.update(b"\x00")
    hasher.update(built.input_data)
    return hasher.hexdigest()


#: subdirectory of the cache root holding the digest memo.
DIGEST_SUBDIR = "digests"

#: source packages whose bytes decide a job's digest: the kernels, inputs
#: and suite definitions, the assembler, the ISA encoding.
_DIGEST_SOURCE_PACKAGES = ("workloads", "asm", "isa")

#: modules the packages above and this module load from outside them;
#: ``eval/__init__.py`` is this module's package (its lazy name map).
_DIGEST_SOURCE_MODULES = ("__init__.py", "errors.py", "eval/__init__.py")


def digest_sources() -> List[Path]:
    """Every source file the digest memo's source key hashes.

    The source packages, the modules they import, and this module, which
    defines :func:`artifact_digest`.
    """
    here = Path(__file__).resolve()
    root = here.parent.parent
    files = [here] + [root / name for name in _DIGEST_SOURCE_MODULES]
    for package in _DIGEST_SOURCE_PACKAGES:
        files.extend((root / package).rglob("*.py"))
    return sorted(set(files))


@functools.lru_cache(maxsize=None)
def digest_source_key() -> str:
    """sha256 over everything a job's digest is a function of besides its spec.

    That is :data:`DIGEST_VERSION`, the Python and numpy versions (the
    workload inputs come from ``numpy.random.default_rng``) and the bytes
    of :func:`digest_sources`.  Computed once per process.
    """
    import numpy

    root = Path(__file__).resolve().parent.parent
    hasher = hashlib.sha256()
    for part in (f"v{DIGEST_VERSION}", sys.version, numpy.__version__):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    for path in digest_sources():
        hasher.update(path.relative_to(root).as_posix().encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
        hasher.update(b"\x00")
    return hasher.hexdigest()


class DigestMemo:
    """``<root>/digests/``: one small file per job spec holding its digest.

    A record is ``{"source", "spec", "digest"}``; it answers only while
    its source key equals :func:`digest_source_key`, so an edit to a
    kernel, the assembler or the ISA invalidates every record.  The memo
    is advisory: an unreadable, truncated or foreign record is a miss,
    and a failed write is ignored.
    """

    def __init__(self, root: Path) -> None:
        self.directory = Path(root) / DIGEST_SUBDIR

    def path(self, spec: JobSpec) -> Path:
        return self.directory / f"{spec.tag()}.json"

    def get(self, spec: JobSpec) -> Optional[str]:
        """The memoised digest for *spec*, or None."""
        try:
            record = json.loads(self.path(spec).read_bytes())
            digest = record["digest"]
            if (
                record["source"] == digest_source_key()
                and record["spec"] == dataclasses.asdict(spec)
                and re.fullmatch("[0-9a-f]{64}", digest)
            ):
                return digest
        except (OSError, ValueError, KeyError, TypeError):
            pass  # unreadable, truncated or foreign: a miss
        return None

    def put(self, spec: JobSpec, digest: str) -> None:
        """Record *digest* for *spec* (tmp + ``os.replace``, no fsync)."""
        path = self.path(spec)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        record = {
            "source": digest_source_key(),
            "spec": dataclasses.asdict(spec),
            "digest": digest,
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass


def compute_job_digest(
    spec: JobSpec,
    cache_root: Optional[str] = None,
    on_build: Optional[Callable[[BuiltWorkload], None]] = None,
) -> str:
    """The content digest of *spec*'s artifacts (never simulates).

    With a store root the :class:`DigestMemo` answers first and a hit
    skips the build.  Otherwise the workload is built and digested, and
    the memo (if any) records the result.  *on_build* receives a
    workload built here, so a caller about to simulate it need not
    build it again.
    """
    memo = DigestMemo(Path(cache_root)) if cache_root else None
    if memo is not None:
        digest = memo.get(spec)
        if digest is not None:
            return digest
    built = build_workload(get_benchmark(spec.name, scale=spec.scale))
    if on_build is not None:
        on_build(built)
    digest = artifact_digest(built, backend=spec.backend)
    if memo is not None:
        memo.put(spec, digest)
    return digest
