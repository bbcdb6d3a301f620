"""Parallel evaluation engine with a fault-tolerant artifact store.

Every table and figure in the paper is a per-benchmark sweep, so the
dominant wall-clock cost is simulating the analog suite.  The
:class:`ExecutionEngine` removes that cost twice over:

* **Parallelism** — benchmark x scale x trace-limit jobs fan out across
  worker processes (``jobs=N``; ``N=1`` is a plain sequential loop
  in-process).
* **Content-addressed caching** — artifacts are keyed on a digest of the
  assembled program image, its input bytes and the capture parameters,
  so editing a kernel (or the assembler, via the emitted image)
  invalidates stale traces automatically and warm runs skip simulation
  entirely.

And, because the paper's sweeps are long multi-benchmark runs where one
bad job must not discard hours of completed work, the engine is built to
*degrade* rather than abort:

* store writes are atomic (tmp + ``os.replace``) and loads are verified —
  a corrupt entry is quarantined under ``<root>/quarantine/`` and costs a
  resimulation, never a crash;
* a worker that raises, dies or hangs yields a structured
  :class:`JobResult` carrying a typed :class:`~repro.errors.ReproError`
  instead of killing the pool pass;
* failures are retried with exponential backoff (``retries``/
  ``retry_backoff``) and bounded per-attempt wall-clock time
  (``timeout``, parallel runs only);
* whatever still fails lands in :attr:`ExecutionEngine.failures` so the
  experiment layer can run on the surviving benchmark set.

The CLI, the tables, figures and ablations, and the examples all drive
the pipeline through one :class:`ExecutionEngine`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    RunJournal,
    prune_directory,
    run_simulation,
)
from ..errors import (
    ArtifactCorrupt,
    JobFailed,
    JobInterrupted,
    JobTimeout,
    ReproError,
    SuiteInterrupted,
    error_to_dict,
)
from ..pipeline.bus import BranchEventBus, PipelineStats
from ..pipeline.consumers import InterleaveConsumer, TraceBuilder
from ..profiling.profile import PROFILE_COLUMNS, InterleaveProfile
from ..sim.api import get_backend
from ..trace.events import BranchTrace
from ..trace.io import read_trace_archive, read_trace_meta, save_trace
from ..workloads.build import BuiltWorkload, build_workload
from ..workloads.registry import members
from ..workloads.suite import get_benchmark
from . import faults, interrupt
from .shards import ShardSpec, shard_names

#: Bump to invalidate every stored artifact (digest input change).
#: v2: the simulation backend became a digest component.
DIGEST_VERSION = 2

#: Bump when the on-disk layout of a store entry changes; an entry of any
#: other format reads as corrupt (quarantined, resimulated).
#: v2: the profile moved from ``.profile.json`` into the trace archive.
STORE_FORMAT = 2

#: Scheduler poll interval while parallel jobs are in flight (seconds).
_POLL_SECONDS = 0.02


@dataclass(frozen=True)
class RunArtifacts:
    """Everything the experiments need for one benchmark run."""

    name: str
    trace: BranchTrace
    profile: InterleaveProfile
    instructions: int
    static_branches: int


@dataclass(frozen=True)
class JobSpec:
    """One unit of engine work: a benchmark at a scale and capture limit."""

    name: str
    scale: float = 1.0
    trace_limit: Optional[int] = None
    backend: str = "interp"

    def tag(self) -> str:
        """Human-readable artifact prefix (the legacy cache tag)."""
        tag = f"{self.name}-s{self.scale:g}"
        if self.trace_limit:
            tag += f"-l{self.trace_limit}"
        if self.backend != "interp":
            tag += f"-b{self.backend}"
        return tag


def artifact_digest(
    built: BuiltWorkload,
    trace_limit: Optional[int] = None,
    backend: str = "interp",
) -> str:
    """Content digest for one job's artifacts.

    Hashes the assembled program image (text + data + entry point), the
    input bytes, and every parameter that changes what a capture run
    records (random seed, fuel budget, trace limit).  Anything that
    alters the simulated instruction stream alters the digest.  The
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
        f"limit:{trace_limit or 0}",
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

#: modules the packages above import from the package root.
_DIGEST_SOURCE_MODULES = ("__init__.py", "errors.py")


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
    digest = artifact_digest(
        built, trace_limit=spec.trace_limit, backend=spec.backend
    )
    if memo is not None:
        memo.put(spec, digest)
    return digest


@dataclass(frozen=True)
class JobResult:
    """Outcome of one executed job.

    ``artifacts`` is ``None`` when a worker process wrote them to (or
    found them in) the artifact store — the parent loads them from there
    instead of shipping arrays through the pickle pipe — *and* when the
    job failed, in which case ``error`` carries the typed failure and
    ``source`` is ``"failed"``.  An in-process store hit carries the
    artifacts of its one full read, so the engine never reads a stored
    entry twice.
    """

    spec: JobSpec
    digest: str
    source: str  # "store" | "simulated" | "resimulated" | "failed"
    seconds: float
    artifacts: Optional[RunArtifacts] = None
    error: Optional[ReproError] = None
    attempts: int = 1
    quarantined: int = 0
    #: per-consumer observability counters when the job simulated
    #: through the event bus (None on store hits and failures).
    pipeline: Optional[PipelineStats] = None
    #: checkpoint files written during this job's simulation.
    checkpoints_written: int = 0
    #: True when the simulation restored from a checkpoint instead of
    #: starting from instruction zero.
    resumed: bool = False
    #: quarantine files age-pruned by the artifact store during the job.
    quarantine_pruned: int = 0


def _check_embedded_digest(embedded: Dict, digest: str) -> None:
    """Raise unless a trace archive's embedded meta names *digest*."""
    if embedded.get("digest") != digest:
        raise ValueError("trace digest does not match content digest")


class ArtifactStore:
    """Content-addressed trace/profile store with verified, atomic entries.

    Layout is flat and human-readable: the legacy ``name-sSCALE[-lLIMIT]``
    tag with the content digest folded in, two files per entry::

        <root>/compress-s1-3f9a2c41d06b17e8.trace.npz
        <root>/compress-s1-3f9a2c41d06b17e8.meta.json

    The ``.trace.npz`` archive holds the trace's event columns, the
    interleave profile's columns (:data:`~repro.profiling.profile.
    PROFILE_COLUMNS`) and the embedded content digest; the
    ``.meta.json`` sidecar is the commit record.

    The digest alone decides validity: a kernel edit changes the program
    image, hence the digest, hence the filename — stale artifacts simply
    stop being found.

    Robustness guarantees:

    * :meth:`put` stages both files in a temp directory and commits each
      with ``os.replace`` (meta last), so a crashed or killed writer can
      never leave a torn entry that looks complete;
    * :meth:`load` and :meth:`verify` treat *any* defect — truncated
      JSON, a bad zip member or CRC, a missing column, a digest mismatch,
      an entry of an older :data:`STORE_FORMAT` — as an
      :class:`~repro.errors.ArtifactCorrupt` cache miss: the bad files
      are moved to ``<root>/quarantine/`` (for post-mortem) and the
      caller resimulates;
    * :meth:`try_claim` takes an advisory per-digest claim file
      (``O_CREAT|O_EXCL``) before simulating, so two engines (or daemon
      workers) sharing one store never both miss and duplicate the same
      simulation: exactly one claims and simulates, the other
      :meth:`wait_for_writer`\\ s for the atomic publish — or proceeds
      on its own if the claim goes stale (the holder died) or the wait
      budget runs out.  Claims are *advisory*: correctness never
      depends on them (``put`` is atomic and idempotent), they only
      save duplicated work.
    """

    #: hex digits of the digest folded into filenames.
    DIGEST_CHARS = 16

    #: subdirectory corrupt entries are moved to.
    QUARANTINE_DIR = "quarantine"

    #: bound on quarantined files kept for post-mortem; older ones are
    #: pruned whenever a new entry is quarantined, so the directory can
    #: never grow without limit across long suite runs.
    QUARANTINE_KEEP = 24

    #: suffix of the advisory in-flight claim files.
    CLAIM_SUFFIX = ".claim"

    #: a claim whose holder cannot be liveness-probed counts as stale
    #: after this many seconds (holder-death is detected much sooner via
    #: the pid probe; this is the cross-host / unreadable-claim backstop).
    CLAIM_STALE_SECONDS = 600.0

    #: how long a second writer waits on a live claim before giving up
    #: and simulating anyway (duplicated work, never wrong results).
    CLAIM_WAIT_SECONDS = 600.0

    #: poll interval while waiting on another writer's claim.
    CLAIM_POLL_SECONDS = 0.05

    #: minimum interval between claim-mtime refreshes from a running
    #: job's progress path.  A healthy holder simulating one long job
    #: never rewrites its claim, so without refreshes the mtime backstop
    #: would eventually break a *live* claim; the checkpointed slice
    #: loop touches it at this cadence instead.
    CLAIM_REFRESH_SECONDS = 15.0

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        #: corruption events observed by this store instance.
        self.corrupt_events: List[ArtifactCorrupt] = []
        #: quarantined files pruned (age-bound) by this store instance.
        self.pruned_entries: int = 0
        #: misses served by waiting on another writer's claim.
        self.claim_waits: int = 0

    def stem(self, spec: JobSpec, digest: str) -> str:
        return f"{spec.tag()}-{digest[: self.DIGEST_CHARS]}"

    def paths(self, spec: JobSpec, digest: str) -> Tuple[Path, Path]:
        """(trace archive, meta) paths for one job."""
        stem = self.stem(spec, digest)
        return (
            self.root / f"{stem}.trace.npz",
            self.root / f"{stem}.meta.json",
        )

    def contains(self, spec: JobSpec, digest: str) -> bool:
        trace_path, meta_path = self.paths(spec, digest)
        return trace_path.exists() and meta_path.exists()

    # -- in-flight claims ---------------------------------------------------

    def claim_path(self, spec: JobSpec, digest: str) -> Path:
        """The advisory claim file for one job's digest."""
        return self.root / f"{self.stem(spec, digest)}{self.CLAIM_SUFFIX}"

    def try_claim(self, spec: JobSpec, digest: str) -> bool:
        """Atomically claim the right to simulate this digest.

        Creates the claim file with ``O_CREAT|O_EXCL`` — the one
        filesystem primitive that is atomic across processes — so under
        any interleaving of two writers exactly one call returns True.
        A pre-existing claim whose holder is provably dead (pid probe)
        or ancient (mtime backstop) is broken and re-taken.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.claim_path(spec, digest)
        payload = json.dumps(
            {"pid": os.getpid(), "ts": round(time.time(), 3)}
        ).encode("ascii")
        for _ in range(2):  # second pass: after breaking a stale claim
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._claim_is_stale(path):
                    return False
                try:  # break the dead writer's claim and retry once
                    path.unlink()
                except OSError:
                    return False
                continue
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            return True
        return False

    def release_claim(self, spec: JobSpec, digest: str) -> None:
        """Drop this job's claim (the artifacts are published, or we lost)."""
        try:
            self.claim_path(spec, digest).unlink()
        except OSError:
            pass

    def _claim_is_stale(self, path: Path) -> bool:
        """True when the claim's holder is dead or the claim is ancient.

        The pid probe is authoritative when it gives an answer: a holder
        that is provably *alive* keeps its claim no matter how old the
        file is (a healthy process deep in one long simulation may not
        touch the claim for ages — see :data:`CLAIM_REFRESH_SECONDS`),
        and a provably dead one loses it immediately.  The mtime age
        backstop applies only to claims that cannot be probed at all
        (cross-host stores, unreadable/foreign content, permissions).
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return False  # claim vanished or unreadable: treat as live
        pid = None
        try:
            pid = int(json.loads(raw)["pid"])
        except Exception:
            pass  # mid-write or foreign content; fall through to mtime
        if pid is not None:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # holder is gone (same-host pid probe)
            except OSError:
                pass  # exists but unprobeable (permissions): fall through
            else:
                return False  # holder provably alive: never break on age
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False
        return age > self.CLAIM_STALE_SECONDS

    def wait_for_writer(
        self, spec: JobSpec, digest: str, timeout: Optional[float] = None
    ) -> bool:
        """Wait for the claim holder to publish this digest's artifacts.

        Polls until the entry verifies (True), the claim disappears or
        goes stale without artifacts (False — the caller should claim
        and simulate), or the wait budget runs out (False — simulate
        anyway; duplicate work beats a deadlock on a wedged writer).
        """
        budget = self.CLAIM_WAIT_SECONDS if timeout is None else timeout
        deadline = time.monotonic() + budget
        path = self.claim_path(spec, digest)
        while True:
            if self.verify(spec, digest):
                self.claim_waits += 1
                return True
            if not path.exists() or self._claim_is_stale(path):
                if self.verify(spec, digest):
                    self.claim_waits += 1
                    return True
                return False
            if time.monotonic() >= deadline:
                return False
            time.sleep(self.CLAIM_POLL_SECONDS)

    # -- corruption handling ------------------------------------------------

    def quarantine(
        self, spec: JobSpec, digest: str, reason: str
    ) -> ArtifactCorrupt:
        """Move the entry's files aside and record the corruption event.

        A file that vanishes first was quarantined by a concurrent
        reader of the same entry; it is skipped, never an error.
        """
        quarantine_root = self.root / self.QUARANTINE_DIR
        # an entry of the previous store format also had a profile sidecar
        legacy = self.root / f"{self.stem(spec, digest)}.profile.json"
        moved = []
        for path in (*self.paths(spec, digest), legacy):
            target = quarantine_root / path.name
            try:
                quarantine_root.mkdir(parents=True, exist_ok=True)
                os.replace(path, target)
            except FileNotFoundError:
                continue
            moved.append(str(target))
        if moved:
            self.pruned_entries += prune_directory(
                quarantine_root, self.QUARANTINE_KEEP
            )
        error = ArtifactCorrupt(
            f"corrupt cache entry for {spec.name}: {reason}",
            benchmark=spec.name,
            digest=digest[: self.DIGEST_CHARS],
            quarantined=moved,
        )
        self.corrupt_events.append(error)
        return error

    def _read_meta(self, spec: JobSpec, digest: str) -> Dict:
        """Parse and check the commit record; raises on any defect."""
        _, meta_path = self.paths(spec, digest)
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if int(meta["store_format"]) != STORE_FORMAT:
            raise ValueError(
                f"store format {meta['store_format']} != {STORE_FORMAT}"
            )
        if int(meta["digest_version"]) != DIGEST_VERSION:
            raise ValueError(
                f"digest version {meta['digest_version']} != {DIGEST_VERSION}"
            )
        if meta["digest"] != digest:
            raise ValueError("meta digest does not match content digest")
        int(meta["instructions"])
        int(meta["static_branches"])
        return meta

    def verify(self, spec: JobSpec, digest: str) -> bool:
        """True when the stored entry exists and passes verification.

        Reads only the commit record, the archive's member list and its
        embedded digest — no column decompression — so pool workers use
        it to decide hit vs resimulate.  Corrupt entries are quarantined
        as a side effect, so a False return means the caller can
        simulate-and-put without racing the bad files.
        """
        if not self.contains(spec, digest):
            return False
        trace_path, _ = self.paths(spec, digest)
        try:
            self._read_meta(spec, digest)
            embedded = read_trace_meta(trace_path, require=PROFILE_COLUMNS)
            _check_embedded_digest(embedded, digest)
        except Exception as exc:
            self.quarantine(spec, digest, f"{type(exc).__name__}: {exc}")
            return False
        return True

    def load(self, spec: JobSpec, digest: str) -> Optional[RunArtifacts]:
        """Artifacts for *spec* if stored and intact, else None.

        One full read of the archive, every member checked against its
        zip CRC.  Any corruption — unparseable JSON, a damaged ``.npz``,
        a missing column, digest mismatches — quarantines the entry and
        reads as a cache miss; corruption is *reported* via
        :attr:`corrupt_events`, never raised.
        """
        if not self.contains(spec, digest):
            return None
        trace_path, _ = self.paths(spec, digest)
        try:
            meta = self._read_meta(spec, digest)
            trace, columns, embedded = read_trace_archive(
                trace_path, PROFILE_COLUMNS
            )
            _check_embedded_digest(embedded, digest)
            instructions = int(meta["instructions"])
            return RunArtifacts(
                name=spec.name,
                trace=trace,
                profile=InterleaveProfile.from_columns(
                    columns,
                    instructions=instructions,
                    name=str(embedded.get("profile", spec.name)),
                ),
                instructions=instructions,
                static_branches=int(meta["static_branches"]),
            )
        except Exception as exc:
            self.quarantine(spec, digest, f"{type(exc).__name__}: {exc}")
            return None

    def put(
        self, spec: JobSpec, digest: str, artifacts: RunArtifacts
    ) -> None:
        """Persist one job's artifacts under their content address.

        Both files are staged in a private temp directory and moved into
        place with ``os.replace`` — meta last, acting as the commit
        record — so readers never observe a torn entry.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        trace_path, meta_path = self.paths(spec, digest)
        stage = self.root / f".stage-{os.getpid()}-{self.stem(spec, digest)}"
        stage.mkdir(parents=True, exist_ok=True)
        try:
            save_trace(
                artifacts.trace, stage / trace_path.name,
                meta={
                    "digest": digest,
                    "benchmark": spec.name,
                    "profile": artifacts.profile.name,
                },
                columns=artifacts.profile.to_columns(),
            )
            (stage / meta_path.name).write_text(
                json.dumps(
                    {
                        "digest": digest,
                        "digest_version": DIGEST_VERSION,
                        "store_format": STORE_FORMAT,
                        "benchmark": spec.name,
                        "scale": spec.scale,
                        "trace_limit": spec.trace_limit,
                        "instructions": artifacts.instructions,
                        "static_branches": artifacts.static_branches,
                    }
                ),
                encoding="utf-8",
            )
            for final in (trace_path, meta_path):
                os.replace(stage / final.name, final)
        finally:
            for leftover in stage.glob("*"):
                leftover.unlink()
            stage.rmdir()


#: subdirectory of the cache root holding simulation checkpoints.
CHECKPOINT_SUBDIR = "checkpoints"


def _execute_job(
    payload: Tuple[JobSpec, Optional[str], bool, Optional[int]],
    progress: Optional[Callable[[str, int], None]] = None,
    speculative: bool = False,
) -> JobResult:
    """Run one job end to end (pool worker; must stay module-level).

    Digests (through the store's digest memo, which skips the build on a
    hit), then either takes the artifacts from the store or builds,
    simulates and stores.  A worker process only verifies a stored entry
    and returns no arrays — the parent loads them by digest — so the
    pickle pipe stays small; an in-process store hit returns the
    artifacts of its one full read.

    The simulation always runs through
    :func:`~repro.checkpoint.run_simulation`.  With a checkpoint cadence
    (``checkpoint_every`` events) and a store it is sliced: it resumes
    from the latest valid checkpoint for this job's stem, writes new
    ones as it goes, and clears them once the artifacts are safely in
    the store.  A retried/killed job therefore continues where the
    previous attempt stopped instead of restarting from instruction
    zero.  Without a cadence it runs as one slice.

    ``progress`` (in-process callers only; it cannot cross the pool's
    pickle pipe) is invoked with ``(benchmark, events)`` at job start and
    after every simulation slice — supervised shard workers refresh their
    heartbeat lease from it.  Independently of the caller's hook, a held
    store claim has its mtime refreshed on the same path (throttled by
    :data:`ArtifactStore.CLAIM_REFRESH_SECONDS`), so a slow-but-alive
    holder is never mistaken for a dead one by the mtime backstop.

    ``speculative`` marks a straggler re-execution: the job never waits
    on another writer's live claim, it simulates concurrently and relies
    on the store's idempotent atomic put — first writer wins, and the
    content address guarantees both writers carry identical bytes.

    An installed :class:`~repro.eval.faults.FaultPlan` is honoured here:
    crash/hang/flaky faults fire before the build, ``worker_kill`` fires
    from the simulation runner's slice loop, corruption faults right
    after the artifacts are stored.
    """
    spec, cache_root, in_worker, checkpoint_every = payload
    started = time.perf_counter()
    plan = faults.active_plan()
    if plan is not None:
        plan.on_job_start(spec.name, in_worker)
    if progress is not None:
        progress(spec.name, 0)
    built_here: List[BuiltWorkload] = []
    digest = compute_job_digest(spec, cache_root, on_build=built_here.append)
    store = ArtifactStore(Path(cache_root)) if cache_root else None
    checkpoints = None
    if checkpoint_every is not None and store is not None:
        checkpoints = CheckpointConfig(
            store=CheckpointStore(Path(cache_root) / CHECKPOINT_SUBDIR),
            stem=store.stem(spec, digest),
            every_events=checkpoint_every,
        )

    def store_hit(artifacts: Optional[RunArtifacts] = None) -> JobResult:
        if checkpoints is not None:
            # artifacts exist; drop stale state
            checkpoints.store.clear(checkpoints.stem)
        return JobResult(
            spec=spec,
            digest=digest,
            source="store",
            seconds=time.perf_counter() - started,
            artifacts=artifacts,
            quarantined=len(store.corrupt_events),
            quarantine_pruned=store.pruned_entries,
        )

    if store is not None:
        if in_worker:
            if store.verify(spec, digest):
                return store_hit()
        else:
            stored = store.load(spec, digest)
            if stored is not None:
                return store_hit(stored)
    claimed = store.try_claim(spec, digest) if store is not None else False
    if store is not None and not claimed and not speculative:
        # Another engine (or daemon worker) is simulating this exact
        # digest right now: wait for its atomic publish instead of
        # duplicating the simulation.  A stale claim (the writer died)
        # or an exhausted wait budget falls through to simulating here.
        # Speculative re-executions skip the wait on purpose — racing
        # the (possibly wedged) claim holder is their entire job.
        if store.wait_for_writer(spec, digest):
            return store_hit()
        claimed = store.try_claim(spec, digest)

    built = (
        built_here[0]
        if built_here
        else build_workload(get_benchmark(spec.name, scale=spec.scale))
    )
    last_refresh = [time.monotonic()]

    def _slice_progress(events: int) -> None:
        if claimed:
            now = time.monotonic()
            if now - last_refresh[0] >= store.CLAIM_REFRESH_SECONDS:
                last_refresh[0] = now
                try:
                    os.utime(store.claim_path(spec, digest))
                except OSError:
                    pass  # claim broken/raced away; put stays idempotent
        if progress is not None:
            progress(spec.name, events)

    try:
        # one pass: the bus fans each branch event to the profiler and
        # the chunked trace builder together (no capture-then-replay)
        profiler = InterleaveConsumer(label=spec.name)
        builder = TraceBuilder(label=spec.name)
        bus = BranchEventBus([profiler, builder], limit=spec.trace_limit)
        outcome = run_simulation(
            built,
            bus,
            config=checkpoints,
            fault_plan=plan,
            benchmark=spec.name,
            in_worker=in_worker,
            backend=spec.backend,
            stop_check=interrupt.drain_requested,
            progress=_slice_progress,
        )
        result = outcome.result
        checkpoints_written = outcome.checkpoints_written
        if outcome.interrupted:
            raise JobInterrupted(
                f"{spec.name} drained on SIGTERM after "
                f"{bus.stats.events} events "
                f"({checkpoints_written} checkpoint(s) written; "
                "resumable)",
                benchmark=spec.name,
                events=bus.stats.events,
                checkpoints_written=checkpoints_written,
            )
        checkpoint_quarantined = (
            len(checkpoints.store.corrupt_events) if checkpoints else 0
        )
        pipeline = bus.finish()
        trace = builder.result
        profile = profiler.result
        profile.instructions = result.instructions
        artifacts = RunArtifacts(
            name=spec.name,
            trace=trace,
            profile=profile,
            instructions=result.instructions,
            static_branches=built.static_conditional_branches,
        )
        if store is not None:
            store.put(spec, digest, artifacts)
            if checkpoints is not None:
                # the artifacts are the durable state now
                checkpoints.store.clear(checkpoints.stem)
            if plan is not None:
                trace_path, meta_path = store.paths(spec, digest)
                plan.on_artifacts_stored(spec.name, trace_path, meta_path)
            artifacts = None  # parent reloads from the store
    finally:
        if claimed:
            store.release_claim(spec, digest)
    return JobResult(
        spec=spec,
        digest=digest,
        source="simulated",
        seconds=time.perf_counter() - started,
        artifacts=artifacts,
        quarantined=(
            len(store.corrupt_events) if store is not None else 0
        )
        + checkpoint_quarantined,
        pipeline=pipeline,
        checkpoints_written=checkpoints_written,
        resumed=outcome.resumed_from_checkpoint,
        quarantine_pruned=store.pruned_entries if store is not None else 0,
    )


def _worker_entry(conn, target, payload) -> None:
    """Process entry point: run ``target(payload)``, ship the outcome.

    Every exception is serialised and sent back as ``("error", dict)``,
    so a *raising* job can never take down its parent; a job that kills
    its process (``os._exit``) or hangs is detected parent-side by
    :meth:`WorkerProcess.poll` and the caller's deadline.

    SIGTERM is routed to the drain flag, so a terminated worker (drain,
    deadline cancellation) checkpoints at the next slice boundary and
    reports a typed ``job_interrupted`` outcome instead of dying with
    work in flight; a worker that ignores it (a hang fault) is escalated
    to SIGKILL by :meth:`WorkerProcess.reap`.
    """
    interrupt.install_worker_handler()
    interrupt.set_pdeathsig()
    try:
        try:
            result = target(payload)
        except Exception as exc:  # crash isolation: report, don't die
            conn.send(("error", error_to_dict(exc)))
        else:
            conn.send(("ok", result))
    finally:
        conn.close()


#: seconds a draining scheduler waits for terminated workers to report
#: their checkpointed ``job_interrupted`` outcome before escalating to
#: SIGKILL (progress is already durable in the checkpoint either way).
DRAIN_KILL_GRACE = 10.0


class WorkerProcess:
    """One sacrificial daemon process running ``target(payload)``.

    The one spawn/poll/terminate lifecycle behind the engine's parallel
    scheduler, the analysis daemon and the shard supervisor.  *target*
    must be a module-level function; its return value comes back as the
    ``ok`` payload.  ``poll`` is non-blocking, so each caller decides how
    to wait (a sleep loop, ``await asyncio.sleep``).

    ``poll`` outcomes (None while still running):

    * ``("ok", result)`` — *target* returned *result*;
    * ``("error", payload)`` — *target* raised; *payload* is the typed
      error dict (``payload["code"] == "job_interrupted"`` marks a
      drained worker that checkpointed on the way down);
    * ``("crash", exitcode)`` — the process died without reporting.
    """

    def __init__(self, target: Callable, payload: object) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context()
        self.started = time.monotonic()
        self.receiver, sender = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_entry,
            args=(sender, target, payload),
            daemon=True,
        )
        self.process.start()
        sender.close()

    def poll(self) -> Optional[Tuple[str, object]]:
        """The worker's outcome if it has one, else None (non-blocking)."""
        if not self.receiver.poll():
            if self.process.is_alive():
                return None
            # The child may have reported and exited between the pipe
            # check and the liveness probe: drain before calling it a
            # crash.
            if not self.receiver.poll():
                return ("crash", self.process.exitcode)
        try:
            return self.receiver.recv()
        except EOFError:
            return ("crash", self.process.exitcode)

    def terminate(self) -> None:
        """SIGTERM the worker: it checkpoints and reports interrupted."""
        self.process.terminate()

    def kill(self) -> None:
        """SIGKILL the worker: no cleanup, no report (crash outcome)."""
        self.process.kill()

    def reap(self, grace: float = 5.0) -> None:
        """Close the pipe and join, escalating to SIGKILL on a hang."""
        self.receiver.close()
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=grace)


class WorkerHandle(WorkerProcess):
    """One attempt of one engine job in a :class:`WorkerProcess`.

    Adds the job's *spec* and an optional wall-clock deadline: past it,
    ``poll`` SIGTERMs the worker (it checkpoints if a cadence is
    configured) and returns ``("timeout", None)``; the caller should
    then :meth:`reap` it.
    """

    def __init__(
        self,
        spec: JobSpec,
        cache_root: Optional[str],
        checkpoint_every: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.spec = spec
        super().__init__(
            _execute_job, (spec, cache_root, True, checkpoint_every)
        )
        self.deadline = (
            self.started + timeout if timeout is not None else None
        )

    def poll(self) -> Optional[Tuple[str, object]]:
        outcome = super().poll()
        if (
            outcome is None
            and self.deadline is not None
            and time.monotonic() > self.deadline
        ):
            self.terminate()
            return ("timeout", None)
        return outcome


def worker_error(
    kind: str, payload: object, benchmark: str, attempts: int
) -> ReproError:
    """The typed error for a worker's ``crash`` or ``error`` outcome.

    ``crash`` and a raised job become :class:`JobFailed`; an ``error``
    whose code is ``job_interrupted`` (a drained worker that wrote its
    checkpoint) becomes :class:`JobInterrupted`, which callers must not
    retry.  Timeouts are the caller's own decision and are not mapped.
    """
    if kind == "crash":
        return JobFailed(
            f"worker for {benchmark} died "
            f"(exit code {payload}, attempt {attempts})",
            benchmark=benchmark,
            exit_code=payload,
            attempts=attempts,
        )
    if payload.get("code") == JobInterrupted.code:
        return JobInterrupted(
            payload.get("message", f"{benchmark} drained on SIGTERM"),
            benchmark=benchmark,
            attempts=attempts,
            events=payload.get("events"),
            checkpoints_written=payload.get("checkpoints_written"),
        )
    return JobFailed(
        f"{benchmark} failed: {payload.get('message', 'unknown error')}",
        benchmark=benchmark,
        attempts=attempts,
        cause=payload,
    )


@dataclass
class EngineStats:
    """Cache, timing and failure counters for one engine's lifetime."""

    store_hits: int = 0
    simulated: int = 0
    memo_hits: int = 0
    failed: int = 0
    retried: int = 0
    timeouts: int = 0
    quarantined: int = 0
    #: checkpoint/resume counters (schema v4).
    checkpoints_written: int = 0
    resumed_from_checkpoint: int = 0
    #: quarantine files age-pruned to keep the directory bounded.
    quarantine_pruned: int = 0
    #: predictor-bank replays of a stored trace.
    replayed_runs: int = 0
    #: distributed-run identity (schema v8): the ``K/N`` shard this
    #: engine owns and the selector expression that produced its names,
    #: both None for plain unsharded runs.
    shard: Optional[str] = None
    selection: Optional[str] = None
    #: aggregated per-consumer bus counters across every bus this engine
    #: ran (simulation jobs and bank replays alike).
    pipeline: PipelineStats = field(default_factory=PipelineStats)
    job_seconds: Dict[str, float] = field(default_factory=dict)
    job_source: Dict[str, str] = field(default_factory=dict)
    failures: List[Dict[str, object]] = field(default_factory=list)

    def record(self, result: JobResult) -> None:
        self.quarantined += result.quarantined
        self.quarantine_pruned += result.quarantine_pruned
        self.checkpoints_written += result.checkpoints_written
        if result.resumed:
            self.resumed_from_checkpoint += 1
        self.retried += max(0, result.attempts - 1)
        if result.pipeline is not None:
            self.pipeline.merge(result.pipeline)
        if result.error is not None:
            self.failed += 1
            if isinstance(result.error, JobTimeout):
                self.timeouts += 1
            self.failures.append(
                {"benchmark": result.spec.name, **result.error.to_dict()}
            )
        elif result.source == "store":
            self.store_hits += 1
        else:
            self.simulated += 1
        self.job_seconds[result.spec.name] = result.seconds
        self.job_source[result.spec.name] = (
            "failed" if result.error is not None else result.source
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (the CLI's --json envelope embeds this)."""
        return {
            "store_hits": self.store_hits,
            "simulated": self.simulated,
            "memo_hits": self.memo_hits,
            "failed": self.failed,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            "quarantine_pruned": self.quarantine_pruned,
            "replayed_runs": self.replayed_runs,
            "shard": self.shard,
            "selection": self.selection,
            "pipeline": self.pipeline.as_dict(),
            "jobs": [
                {
                    "benchmark": name,
                    "seconds": round(seconds, 4),
                    "source": self.job_source[name],
                }
                for name, seconds in sorted(self.job_seconds.items())
            ],
            "failures": list(self.failures),
        }

    def render(self) -> str:
        """Human-readable per-job timing + hit/miss/failure summary."""
        lines = ["-- engine --"]
        if self.shard is not None:
            selection = f" of {self.selection!r}" if self.selection else ""
            lines.append(f"  shard: {self.shard}{selection}")
        for name in sorted(self.job_seconds):
            lines.append(
                f"  {name:12s} {self.job_seconds[name]:8.2f}s  "
                f"{self.job_source[name]}"
            )
        lines.append(
            f"  cache: {self.store_hits} hit(s), "
            f"{self.simulated} simulated, {self.memo_hits} memoised"
        )
        lines.append(
            f"  faults: {self.failed} failed, {self.retried} retried, "
            f"{self.timeouts} timed out, {self.quarantined} quarantined"
        )
        lines.append(
            f"  resume: {self.checkpoints_written} checkpoint(s) written, "
            f"{self.resumed_from_checkpoint} resumed, "
            f"{self.quarantine_pruned} quarantine file(s) pruned"
        )
        for failure in self.failures:
            lines.append(
                f"    {failure.get('benchmark', '?')}: "
                f"{failure.get('code', '?')} — {failure.get('message', '')}"
            )
        return "\n".join(lines)


class ExecutionEngine:
    """Builds, simulates and profiles benchmark jobs, in parallel.

    Example::

        engine = ExecutionEngine(scale=1.0, cache_dir=".cache", jobs=4)
        results = engine.prefetch(["compress", "gcc", "li"])  # one pool pass
        engine.artifacts("gcc")  # memoised, free
        engine.failures          # {} unless something kept failing

    Args:
        scale: workload scale forwarded to the suite.
        cache_dir: optional root of the content-addressed artifact store.
        trace_limit: optional cap on captured events per run.
        jobs: worker processes for :meth:`prefetch`; 1 = sequential,
            in-process.
        timeout: per-attempt wall-clock budget in seconds for parallel
            jobs (None disables; sequential in-process runs cannot be
            pre-empted and ignore it).
        retries: extra attempts per failed job before it is recorded as
            a failure.
        retry_backoff: base delay between attempts, doubled per retry.
        checkpoint_every_events: write a simulation checkpoint whenever
            this many new branch events have accumulated, so retried,
            timed-out or killed jobs resume mid-run instead of
            restarting (requires ``cache_dir``; None disables).
        backend: simulation backend name or instance
            (:mod:`repro.sim.api`); folded into every job spec, digest
            and journal record this engine produces.
        shard: this engine's slice of a distributed run — a
            :class:`~repro.eval.shards.ShardSpec` or its ``K/N`` string
            form.  :meth:`prefetch` then simulates only the benchmarks
            the deterministic cost-balanced partition assigns this
            shard; the shard tag lands in journal records and
            :attr:`stats`, but never in job digests, so shard stores
            merge byte-identically into an unsharded run.
        selection: the selector expression the run's names came from
            (observability only: journal records, stats, envelope).
        progress: liveness callback invoked with ``(benchmark, events)``
            at each job start and after every checkpoint slice — the
            supervised shard worker's heartbeat hook.  In-process
            execution only (``jobs`` must be 1): a callable cannot
            cross the pool's pickle pipe.
        speculative: mark every job as a speculative straggler
            re-execution — never wait on another writer's live store
            claim, race it and rely on the idempotent atomic put
            (first writer wins, byte-identical by construction).
    """

    def __init__(
        self,
        scale: float = 1.0,
        cache_dir: Optional[Path] = None,
        trace_limit: Optional[int] = None,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.05,
        checkpoint_every_events: Optional[int] = None,
        backend: Optional[object] = None,
        shard: Optional[object] = None,
        selection: Optional[str] = None,
        progress: Optional[Callable[[str, int], None]] = None,
        speculative: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if checkpoint_every_events is not None:
            if checkpoint_every_events < 1:
                raise ValueError(
                    "checkpoint_every_events must be >= 1, got "
                    f"{checkpoint_every_events}"
                )
            if cache_dir is None:
                raise ValueError(
                    "checkpoint_every_events requires a cache_dir "
                    "(checkpoints live under the cache root)"
                )
        if progress is not None and jobs > 1:
            raise ValueError(
                "progress callbacks need in-process execution (jobs=1); "
                "they cannot cross the worker pool's pickle pipe"
            )
        self.scale = scale
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.trace_limit = trace_limit
        self.backend = get_backend(backend).name
        self.shard = (
            ShardSpec.parse(shard) if isinstance(shard, str) else shard
        )
        self.selection = selection
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.checkpoint_every_events = checkpoint_every_events
        self.progress = progress
        self.speculative = speculative
        self.store = (
            ArtifactStore(self.cache_dir)
            if self.cache_dir is not None
            else None
        )
        self.journal = (
            RunJournal(self.cache_dir)
            if self.cache_dir is not None
            else None
        )
        self.stats = EngineStats(
            shard=self.shard.tag if self.shard is not None else None,
            selection=selection,
        )
        #: benchmarks that exhausted their retries, name -> typed error.
        self.failures: Dict[str, ReproError] = {}
        self._memo: Dict[str, RunArtifacts] = {}
        self._digests: Dict[str, str] = {}
        #: set when a SIGTERM drain cut a prefetch pass short.
        self.interrupted = False

    # -- job bookkeeping ----------------------------------------------------

    def job(self, name: str) -> JobSpec:
        """The job spec this engine would run for *name*."""
        return JobSpec(
            name=name,
            scale=self.scale,
            trace_limit=self.trace_limit,
            backend=self.backend,
        )

    def digest(self, name: str) -> str:
        """Content digest of *name*'s artifacts (never simulates).

        Answered by the store's digest memo when it can be, else built.
        """
        cached = self._digests.get(name)
        if cached is None:
            cached = compute_job_digest(self.job(name), self._cache_root())
            self._digests[name] = cached
        return cached

    def cache_paths(self, name: str) -> Optional[Tuple[Path, Path]]:
        """(trace archive, meta) store paths for *name*; None without a store."""
        if self.store is None:
            return None
        return self.store.paths(self.job(name), self.digest(name))

    def _cache_root(self) -> Optional[str]:
        return str(self.cache_dir) if self.cache_dir else None

    # -- public artifact API ------------------------------------------------

    def artifacts(self, name: str) -> RunArtifacts:
        """Trace + profile for benchmark *name* (memoised).

        Raises:
            JobFailed: when the job keeps failing after its retries (the
                recorded failure is re-raised on repeated access).
        """
        cached = self._memo.get(name)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        known_failure = self.failures.get(name)
        if known_failure is not None:
            raise known_failure
        result = self._run_sequential_job(name)
        if result.error is not None:
            raise result.error
        return self._memo[name]

    def trace(self, name: str) -> BranchTrace:
        """The benchmark's branch trace."""
        return self.artifacts(name).trace

    def profile(self, name: str) -> InterleaveProfile:
        """The benchmark's interleave profile."""
        return self.artifacts(name).profile

    def prefetch(
        self, names: Sequence[str]
    ) -> Dict[str, RunArtifacts]:
        """Materialise artifacts for *names*, fanning out across the pool.

        Unmemoised jobs run concurrently when ``jobs > 1``; results are
        collected order-independently, so parallel and sequential runs
        observe identical artifacts (same digests, same contents).

        Jobs that fail — a raising benchmark, a crashed or hung worker, a
        corrupt store entry that will not resimulate — never abort the
        pass: they are retried up to ``retries`` times and then recorded
        in :attr:`failures`.  The returned mapping contains only the
        benchmarks that produced artifacts.

        Raises:
            SuiteInterrupted: when a SIGTERM drain stopped the pass
                (see :mod:`repro.eval.interrupt`); completed work is
                journaled, in-flight jobs checkpointed, and rerunning
                the same pass continues from here.
        """
        # Sharding is applied by the selection layer (shard_subset at
        # the experiment/CLI call sites), exactly once — re-partitioning
        # an already-filtered subset here would silently shrink it.
        wanted = list(dict.fromkeys(names))
        missing = [
            n for n in wanted
            if n not in self._memo and n not in self.failures
        ]
        if self.store is not None and self.jobs > 1 and len(missing) > 1:
            # Finished work loads in-process first (memoised digest, one
            # store read, never a build), so a warm rerun spawns no
            # worker for it.
            for name in missing:
                stored = self._stored(name)
                if stored is not None:
                    self._absorb(stored)
        pending = [n for n in missing if n not in self._memo]
        if self.jobs > 1 and len(pending) > 1:
            self._run_parallel(pending)
        else:
            for name in pending:
                if interrupt.drain_requested():
                    self.interrupted = True
                    break
                result = self._run_sequential_job(name)
                if isinstance(result.error, JobInterrupted):
                    self.interrupted = True
                    break
        if self.interrupted:
            completed = [n for n in wanted if n in self._memo]
            remaining = [n for n in wanted if n not in self._memo]
            raise SuiteInterrupted(
                f"suite drained on SIGTERM: {len(completed)}/"
                f"{len(wanted)} benchmark(s) completed; in-flight "
                "progress is checkpointed — rerun the same command to "
                "continue",
                completed=completed,
                remaining=remaining,
            )
        for name in wanted:
            if name in self._memo and name not in missing:
                self.stats.memo_hits += 1
        return {
            name: self._memo[name]
            for name in wanted
            if name in self._memo
        }

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop memoised artifacts and recorded failures.

        (All of them when *name* is None.)  Clearing a failure makes the
        next access retry the benchmark from scratch.
        """
        if name is None:
            self._memo.clear()
            self._digests.clear()
            self.failures.clear()
        else:
            self._memo.pop(name, None)
            self._digests.pop(name, None)
            self.failures.pop(name, None)

    # -- internals ----------------------------------------------------------

    def _backoff_seconds(self, attempt: int) -> float:
        """Exponential backoff before retry *attempt* (attempts are 1-based,
        so the first retry — attempt 2 — waits one base interval)."""
        return self.retry_backoff * (2 ** (attempt - 2))

    def _stored(self, name: str) -> Optional[JobResult]:
        """*name*'s job as a store hit, or None; never builds.

        The digest comes from the digest memo only.  An entry the load
        quarantines is counted in :attr:`stats` before the job runs.
        """
        spec = self.job(name)
        digest = DigestMemo(self.cache_dir).get(spec)
        if digest is None:
            return None
        store = self.store
        started = time.perf_counter()
        before, pruned = len(store.corrupt_events), store.pruned_entries
        artifacts = store.load(spec, digest)
        if artifacts is None:
            self.stats.quarantined += len(store.corrupt_events) - before
            self.stats.quarantine_pruned += store.pruned_entries - pruned
            return None
        return JobResult(
            spec, digest, "store", time.perf_counter() - started, artifacts
        )

    def _run_sequential_job(self, name: str) -> JobResult:
        """Run one job in-process with the retry policy, then absorb it."""
        spec = self.job(name)
        payload = (spec, self._cache_root(), False, self.checkpoint_every_events)
        started = time.perf_counter()
        attempt = 0
        while True:
            attempt += 1
            try:
                result = _execute_job(
                    payload,
                    progress=self.progress,
                    speculative=self.speculative,
                )
            except KeyError:
                raise  # unknown benchmark/kernel: caller error, not a fault
            except JobInterrupted as exc:
                # A drain is resumable progress, not a fault: no retry.
                result = JobResult(
                    spec=spec,
                    digest="",
                    source="failed",
                    seconds=time.perf_counter() - started,
                    error=exc,
                    attempts=attempt,
                )
            except Exception as exc:
                if attempt <= self.retries and not interrupt.drain_requested():
                    time.sleep(self._backoff_seconds(attempt + 1))
                    continue
                failure = exc if isinstance(exc, JobFailed) else JobFailed(
                    f"{name} failed after {attempt} attempt(s): {exc}",
                    benchmark=name,
                    attempts=attempt,
                    cause=error_to_dict(exc),
                )
                result = JobResult(
                    spec=spec,
                    digest="",
                    source="failed",
                    seconds=time.perf_counter() - started,
                    error=failure,
                    attempts=attempt,
                )
            else:
                result = dataclasses.replace(result, attempts=attempt)
            return self._absorb(result)

    def _run_parallel(self, missing: Sequence[str]) -> None:
        """Fan *missing* out over worker processes with fault handling.

        One daemon process (a :class:`WorkerHandle`) per attempt, at
        most ``jobs`` in flight; the scheduler polls for three
        completion modes — a result on the pipe, a dead process
        (crash), a blown deadline (hang) — and requeues failed attempts
        with backoff until retries run out.  Terminated/hung workers
        are killed, never joined indefinitely.

        A SIGTERM drain (:mod:`repro.eval.interrupt`) stops launches,
        clears the pending queue (those jobs never ran, so a rerun
        picks them up), forwards SIGTERM to every
        running worker — which writes a final checkpoint and reports
        ``job_interrupted`` — and records those outcomes without
        retrying.  A worker that has not wound down within
        :data:`DRAIN_KILL_GRACE` seconds is SIGKILLed; its progress is
        already durable in the checkpoint.
        """
        cache_root = self._cache_root()
        # (spec, attempt, not_before) — not_before implements backoff
        # without stalling the scheduler.
        pending: List[Tuple[JobSpec, int, float]] = [
            (self.job(n), 1, 0.0) for n in missing
        ]
        running: Dict[WorkerHandle, int] = {}
        first_launch: Dict[str, float] = {}
        drain_started: Optional[float] = None

        def finish(spec: JobSpec, attempt: int, error: ReproError) -> None:
            interrupted = (
                getattr(error, "code", None) == JobInterrupted.code
            )
            if (
                attempt <= self.retries
                and not interrupted
                and drain_started is None
            ):
                pending.append(
                    (
                        spec,
                        attempt + 1,
                        time.monotonic()
                        + self._backoff_seconds(attempt + 1),
                    )
                )
                return
            self._absorb(
                JobResult(
                    spec=spec,
                    digest="",
                    source="failed",
                    seconds=time.monotonic() - first_launch[spec.name],
                    error=error,
                    attempts=attempt,
                )
            )

        while pending or running:
            now = time.monotonic()
            if drain_started is None and interrupt.drain_requested():
                drain_started = now
                self.interrupted = True
                pending.clear()
                for handle in running:
                    handle.terminate()
            if (
                drain_started is not None
                and now - drain_started > DRAIN_KILL_GRACE
            ):
                for handle in running:
                    handle.kill()
            while drain_started is None and len(running) < self.jobs:
                index = next(
                    (
                        i
                        for i, (_, _, not_before) in enumerate(pending)
                        if not_before <= now
                    ),
                    None,
                )
                if index is None:
                    break
                spec, attempt, _ = pending.pop(index)
                first_launch.setdefault(spec.name, now)
                handle = WorkerHandle(
                    spec,
                    cache_root,
                    checkpoint_every=self.checkpoint_every_events,
                    timeout=self.timeout,
                )
                running[handle] = attempt

            progressed = False
            for handle in list(running):
                outcome = handle.poll()
                if outcome is None:
                    continue
                progressed = True
                attempt = running.pop(handle)
                spec = handle.spec
                handle.reap()
                kind, payload = outcome
                if kind == "ok":
                    self._absorb(
                        dataclasses.replace(payload, attempts=attempt)
                    )
                elif kind == "timeout":
                    finish(
                        spec,
                        attempt,
                        JobTimeout(
                            f"{spec.name} exceeded the {self.timeout:g}s "
                            f"wall-clock budget (attempt {attempt})",
                            benchmark=spec.name,
                            timeout_seconds=self.timeout,
                            attempts=attempt,
                        ),
                    )
                else:  # "crash" or "error"; job_interrupted is never retried
                    finish(
                        spec,
                        attempt,
                        worker_error(kind, payload, spec.name, attempt),
                    )
            if not progressed:
                time.sleep(_POLL_SECONDS)

    def _absorb(self, result: JobResult) -> JobResult:
        """Fold one job outcome into memo/failures, stats and the journal."""
        if result.error is not None:
            self.failures[result.spec.name] = result.error
            self.stats.record(result)
            self._journal_outcome(result)
            return result
        artifacts = result.artifacts
        if artifacts is None:
            if self.store is None:
                raise ReproError(
                    "job result carried no artifacts and no store is "
                    "configured",
                    benchmark=result.spec.name,
                )
            before = len(self.store.corrupt_events)
            before_pruned = self.store.pruned_entries
            try:
                artifacts, result = self._load_or_resimulate(result)
            except ArtifactCorrupt as exc:
                # persistent corruption (the resimulated entry would not
                # load back either) fails this benchmark, not the pass
                result = dataclasses.replace(
                    result,
                    source="failed",
                    error=exc,
                    quarantined=result.quarantined
                    + len(self.store.corrupt_events) - before,
                    quarantine_pruned=result.quarantine_pruned
                    + self.store.pruned_entries - before_pruned,
                )
                self.failures[result.spec.name] = exc
                self.stats.record(result)
                self._journal_outcome(result)
                return result
        self._memo[result.spec.name] = artifacts
        self._digests[result.spec.name] = result.digest
        self.stats.record(result)
        self._journal_outcome(result)
        return result

    def _journal_outcome(self, result: JobResult) -> None:
        """Append one finished job to the run journal (durable record).

        Journal writes never fail the job they describe.
        """
        if self.journal is None:
            return
        # Shard identity is a journal/stats annotation only — folding it
        # into job digests would make shard stores diverge from an
        # unsharded run and break merge-shards byte-identity.
        extra: Dict[str, object] = {}
        if self.shard is not None:
            extra["shard"] = self.shard.tag
        if self.selection is not None:
            extra["selection"] = self.selection
        try:
            if result.error is not None:
                self.journal.record_failed(
                    result.spec.name,
                    self.scale,
                    self.trace_limit,
                    error_to_dict(result.error),
                    backend=self.backend,
                    **extra,
                )
            else:
                # seconds feeds the learned shard cost model
                # (shards.measured_costs): only full simulations measure
                # the benchmark's real wall-clock, so store hits record
                # their (near-zero) load time under the same key but are
                # filtered out by source when costs are learned.
                self.journal.record_completed(
                    result.spec.name,
                    result.digest,
                    self.scale,
                    self.trace_limit,
                    source=result.source,
                    resumed=result.resumed,
                    backend=self.backend,
                    seconds=round(result.seconds, 4),
                    **extra,
                )
        except OSError:
            pass  # a full/readonly disk must not fail a finished job

    def _load_or_resimulate(
        self, result: JobResult
    ) -> Tuple[RunArtifacts, JobResult]:
        """Load a store-backed result, resimulating if the entry is bad.

        The worker verified (or just wrote) the entry, but the parent's
        full load can still discover damage in the event columns — or
        lose a race with an external writer.  One in-process rerun
        repairs it; only if the store drops the artifacts *again* is the
        situation hopeless enough for a typed error.

        Raises:
            ArtifactCorrupt: when the rerun's artifacts cannot be loaded
                back either.
        """
        store = self.store
        before = len(store.corrupt_events)
        before_pruned = store.pruned_entries
        artifacts = store.load(result.spec, result.digest)
        quarantined = len(store.corrupt_events) - before
        pruned = store.pruned_entries - before_pruned
        if artifacts is not None:
            return artifacts, dataclasses.replace(
                result,
                quarantined=result.quarantined + quarantined,
                quarantine_pruned=result.quarantine_pruned + pruned,
            )
        rerun = _execute_job(
            (
                result.spec,
                self._cache_root(),
                False,
                self.checkpoint_every_events,
            ),
            progress=self.progress,
            speculative=self.speculative,
        )
        artifacts = rerun.artifacts
        if artifacts is None:
            artifacts = store.load(rerun.spec, rerun.digest)
        if artifacts is None:
            raise ArtifactCorrupt(
                f"store lost artifacts for {result.spec.name} "
                f"({result.digest[:16]})",
                benchmark=result.spec.name,
                digest=result.digest[:16],
            )
        return artifacts, dataclasses.replace(
            result,
            source="resimulated",
            digest=rerun.digest,
            seconds=result.seconds + rerun.seconds,
            quarantined=result.quarantined + quarantined + rerun.quarantined,
            quarantine_pruned=result.quarantine_pruned
            + pruned
            + rerun.quarantine_pruned,
            checkpoints_written=result.checkpoints_written
            + rerun.checkpoints_written,
            resumed=result.resumed or rerun.resumed,
        )


def experiment_benchmarks(
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]],
    default_set: str,
) -> List[str]:
    """The benchmarks a table or figure analyses, already materialised.

    An explicit *benchmarks* list is used as given; otherwise the
    registry's *default_set*, restricted to the slice a sharded
    *engine* owns.  Every name is prefetched in one pass and the ones
    that failed are dropped.
    """
    if benchmarks:
        names = list(benchmarks)
    else:
        names = shard_subset(engine, members(default_set))
    engine.prefetch(names)
    return surviving_benchmarks(engine, names)


def shard_subset(engine: ExecutionEngine, names: Iterable[str]) -> List[str]:
    """Restrict *names* to the slice *engine*'s shard owns.

    Unsharded engines keep every name.  Experiment code calls this
    alongside :func:`surviving_benchmarks` so a sharded host analyses
    only the benchmarks it actually simulated, instead of lazily
    materialising its neighbours' slices in-process.
    """
    wanted = list(dict.fromkeys(names))
    shard = engine.shard
    if shard is None or shard.total == 1:
        return wanted
    return list(shard_names(wanted, shard, engine.scale))


def surviving_benchmarks(
    engine: ExecutionEngine, names: Iterable[str]
) -> List[str]:
    """*names* minus the benchmarks *engine* has recorded as failed.

    Experiment code calls this after :meth:`ExecutionEngine.prefetch` so
    tables and figures degrade to the benchmarks that produced artifacts
    instead of crashing on the first failed one.
    """
    return [name for name in names if name not in engine.failures]


__all__ = [
    "ArtifactStore",
    "CHECKPOINT_SUBDIR",
    "DIGEST_SUBDIR",
    "DIGEST_VERSION",
    "DigestMemo",
    "EngineStats",
    "ExecutionEngine",
    "JobResult",
    "JobSpec",
    "RunArtifacts",
    "STORE_FORMAT",
    "artifact_digest",
    "compute_job_digest",
    "digest_source_key",
    "digest_sources",
    "experiment_benchmarks",
    "shard_subset",
    "surviving_benchmarks",
]
