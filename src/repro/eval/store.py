"""The content-addressed artifact store: atomic writes, verified reads.

An entry holds everything the experiments need for one job, under the
job's content digest (:mod:`repro.eval.digest`).  Store writes are
atomic (tmp + ``os.replace``) and loads are verified against a sha256
of the archive's bytes kept in the entry's commit record: a corrupt
entry is quarantined under ``<root>/quarantine/`` and costs a
resimulation, never a crash.  A load inflates the profile; the trace
inflates from the same verified bytes only when something reads it.

Beside each entry the store keeps *prediction records*: the result of
replaying one predictor over the entry's trace, so that result is
computed once (:func:`replay_predictors`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..checkpoint import prune_directory
from ..errors import ArtifactCorrupt
from ..pipeline.bus import BranchEventBus, PipelineStats
from ..pipeline.consumers import PredictorConsumer
from ..predictors.base import BranchPredictor
from ..predictors.simulator import PredictionStats
from ..profiling.profile import PROFILE_COLUMNS, InterleaveProfile
from ..trace.events import BranchTrace
from ..trace.io import (
    TRACE_COLUMNS,
    TraceArchive,
    read_trace_meta,
    save_trace,
)
from .digest import DIGEST_VERSION, JobSpec, hash_sources

#: Bump when the on-disk layout of a store entry changes; an entry of any
#: other format reads as corrupt (quarantined, resimulated).
#: v2: the profile moved from ``.profile.json`` into the trace archive.
#: v3: the commit record holds the sha256 of the archive's bytes.
STORE_FORMAT = 3

#: subdirectory of the store root holding prediction records.
PREDICTIONS_DIR = "predictions"

#: Bump when the layout of a prediction record changes.
PREDICTION_FORMAT = 1

#: the code that decides a replay's result: the predictor kernels, the
#: bus and its predictor consumer, and the daemon's spec-string parser.
_PREDICTION_SOURCES = (
    "predictors", "pipeline/bus.py", "pipeline/consumers.py",
    "service/jobs.py",
)


@functools.lru_cache(maxsize=None)
def prediction_source_key() -> str:
    """sha256 over everything a stored replay result is a function of
    besides the trace and the predictor's identity (computed once per
    process).  Editing a predictor kernel misses every record."""
    root = Path(__file__).resolve().parent.parent
    files: List[Path] = []
    for name in _PREDICTION_SOURCES:
        path = root / name
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return hash_sources(f"p{PREDICTION_FORMAT}", files)


class RunArtifacts:
    """Everything the experiments need for one benchmark run.

    *trace* is the trace itself, or a zero-argument callable that
    inflates it: a stored entry's trace (:meth:`ArtifactStore.load`)
    inflates on the first read of :attr:`trace`, once, and the callable
    and the compressed bytes it holds are dropped after it has run.  If
    it raises, every read raises that error.
    """

    __slots__ = (
        "name", "profile", "instructions", "static_branches", "_trace",
        "_lock",
    )

    _trace: Union[BranchTrace, Callable[[], BranchTrace], Exception]

    def __init__(
        self,
        name: str,
        trace: Union[BranchTrace, Callable[[], BranchTrace]],
        profile: InterleaveProfile,
        instructions: int,
        static_branches: int,
    ) -> None:
        self.name = name
        self.profile = profile
        self.instructions = instructions
        self.static_branches = static_branches
        self._trace = trace
        self._lock = threading.Lock()

    @property
    def trace(self) -> BranchTrace:
        with self._lock:
            if isinstance(self._trace, Exception):
                raise self._trace  # a failed inflate fails every read
            if not isinstance(self._trace, BranchTrace):
                try:
                    self._trace = self._trace()
                except Exception as exc:
                    self._trace = exc
                    raise
            return self._trace

    def __reduce__(self):
        return RunArtifacts, (
            self.name, self.trace, self.profile, self.instructions,
            self.static_branches,
        )


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
    ``.meta.json`` sidecar is the commit record, holding the sha256 of
    the archive's bytes.

    The digest alone decides validity: a kernel edit changes the program
    image, hence the digest, hence the filename — stale artifacts simply
    stop being found.

    A replayed predictor's result is kept beside its entry, one small
    JSON record per (entry, predictor)::

        <root>/predictions/compress-s1-3f9a2c41d06b17e8.5be0c2a17d9e4f31.json

    (:meth:`prediction`, :meth:`put_prediction`).

    Robustness guarantees:

    * :meth:`put` stages both files in a temp directory and commits each
      with ``os.replace`` (meta last), so a crashed or killed writer can
      never leave a torn entry that looks complete;
    * :meth:`load` and :meth:`verify` treat *any* defect — truncated
      JSON, a bad zip member, a missing column, a digest mismatch, an
      entry of an older :data:`STORE_FORMAT`, and for :meth:`load` any
      archive byte that disagrees with the recorded sha256 — as an
      :class:`~repro.errors.ArtifactCorrupt` cache miss: the bad files
      are moved to ``<root>/quarantine/`` (for post-mortem) and the
      caller resimulates.  :meth:`load` inflates the trace columns only
      when the trace is read;
    * a prediction record embeds the entry's digest, the predictor's
      identity, :func:`prediction_source_key` and a sha256 of its body;
      a record that disagrees with any of them reads as a miss.
      Callers trust a record only once its entry passed :meth:`verify`
      or :meth:`load`, and :meth:`quarantine` moves the entry's records
      with it;
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
        stem = self.stem(spec, digest)
        # an entry of the previous store format also had a profile sidecar
        legacy = self.root / f"{stem}.profile.json"
        records = sorted((self.root / PREDICTIONS_DIR).glob(f"{stem}.*.json"))
        moved = []
        for path in (*self.paths(spec, digest), legacy, *records):
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

    # -- prediction records -------------------------------------------------

    def prediction_path(
        self, spec: JobSpec, digest: str, predictor: str
    ) -> Path:
        """The record of one predictor's replay over one entry."""
        key = hashlib.sha256(predictor.encode("utf-8")).hexdigest()
        return (
            self.root / PREDICTIONS_DIR
            / f"{self.stem(spec, digest)}.{key[: self.DIGEST_CHARS]}.json"
        )

    @staticmethod
    def _prediction_record(
        digest: str, predictor: str, branches: int, mispredictions: int
    ) -> Dict:
        body = {
            "format": PREDICTION_FORMAT,
            "digest": digest,
            "source": prediction_source_key(),
            "predictor": predictor,
            # replays count every event: no warmup
            "warmup": 0,
            "branches": branches,
            "mispredictions": mispredictions,
        }
        text = json.dumps(body, sort_keys=True).encode("utf-8")
        return {**body, "sha256": hashlib.sha256(text).hexdigest()}

    def prediction(
        self, spec: JobSpec, digest: str, predictor: str
    ) -> Optional[PredictionStats]:
        """*predictor*'s stored result over the entry, or None.

        A missing, unreadable, truncated, foreign or stale record (another
        digest, predictor or :func:`prediction_source_key`) is a miss.
        Trust it only once the entry itself passed :meth:`verify` or
        :meth:`load`.
        """
        try:
            record = json.loads(
                self.prediction_path(spec, digest, predictor).read_bytes()
            )
            branches = record["branches"]
            mispredictions = record["mispredictions"]
            if (
                type(branches) is int
                and type(mispredictions) is int
                and record == self._prediction_record(
                    digest, predictor, branches, mispredictions
                )
            ):
                return PredictionStats(
                    predictor=predictor,
                    trace=spec.name,
                    branches=branches,
                    mispredictions=mispredictions,
                )
        except (OSError, ValueError, KeyError, TypeError):
            pass  # unreadable, truncated or foreign: a miss
        return None

    def put_prediction(
        self,
        spec: JobSpec,
        digest: str,
        predictor: str,
        result: PredictionStats,
    ) -> None:
        """Record *predictor*'s result over the entry (tmp +
        ``os.replace``); a failed write only costs a later replay."""
        path = self.prediction_path(spec, digest, predictor)
        # the daemon serves store hits from several threads
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        record = self._prediction_record(
            digest, predictor, result.branches, result.mispredictions
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(record), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

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
        str(meta["archive_sha256"])
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

        Reads the archive file once and checks its bytes against the
        sha256 in the commit record; from those bytes it checks the
        member list and the embedded digest and inflates the profile.
        The trace inflates from the same bytes on the first read of
        :attr:`RunArtifacts.trace`.  Any corruption — unparseable JSON,
        a changed archive byte, a missing column, digest mismatches —
        quarantines the entry and reads as a cache miss; corruption is
        *reported* via :attr:`corrupt_events`, never raised.

        A trace that fails to inflate after its bytes verified (a writer
        bug, not disk damage) quarantines the entry and raises
        :class:`~repro.errors.ArtifactCorrupt` from that first read.
        """
        if not self.contains(spec, digest):
            return None
        trace_path, _ = self.paths(spec, digest)
        try:
            meta = self._read_meta(spec, digest)
            data = trace_path.read_bytes()
            if hashlib.sha256(data).hexdigest() != meta["archive_sha256"]:
                raise ValueError("archive bytes do not match their sha256")
            archive = TraceArchive(
                data, require=(*TRACE_COLUMNS, *PROFILE_COLUMNS)
            )
            _check_embedded_digest(archive.meta, digest)
            instructions = int(meta["instructions"])
            profile = InterleaveProfile.from_columns(
                archive.columns(PROFILE_COLUMNS),
                instructions=instructions,
                name=str(archive.meta.get("profile", spec.name)),
            )
        except Exception as exc:
            self.quarantine(spec, digest, f"{type(exc).__name__}: {exc}")
            return None

        def inflate() -> BranchTrace:
            try:
                return archive.trace()
            except Exception as exc:
                raise self.quarantine(
                    spec, digest,
                    f"verified trace failed to inflate: "
                    f"{type(exc).__name__}: {exc}",
                ) from exc
            finally:
                archive.close()

        return RunArtifacts(
            name=spec.name,
            trace=inflate,
            profile=profile,
            instructions=instructions,
            static_branches=int(meta["static_branches"]),
        )

    def put(
        self, spec: JobSpec, digest: str, artifacts: RunArtifacts
    ) -> None:
        """Persist one job's artifacts under their content address.

        Both files are staged in a private temp directory and moved into
        place with ``os.replace`` — meta last, acting as the commit
        record, which holds the sha256 of the staged archive's bytes —
        so readers never observe a torn entry.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        trace_path, meta_path = self.paths(spec, digest)
        stage = self.root / f".stage-{os.getpid()}-{self.stem(spec, digest)}"
        stage.mkdir(parents=True, exist_ok=True)
        try:
            staged = stage / trace_path.name
            save_trace(
                artifacts.trace, staged,
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
                        # the retired event cap: entries stay byte-identical
                        "trace_limit": None,
                        "instructions": artifacts.instructions,
                        "static_branches": artifacts.static_branches,
                        "archive_sha256": hashlib.sha256(
                            staged.read_bytes()
                        ).hexdigest(),
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


def replay_predictors(
    store: Optional[ArtifactStore],
    spec: JobSpec,
    digest: str,
    predictors: Mapping[str, Tuple[str, Callable[[], BranchPredictor]]],
    load_trace: Callable[[], Optional[BranchTrace]],
    fresh: bool = False,
) -> Optional[Tuple[Dict[str, PredictionStats], Optional[PipelineStats]]]:
    """Each predictor's result over the entry *digest*, replayed at most once.

    *predictors* maps a name to ``(identity, factory)``: the identity
    keys the record (it must name everything that decides the
    predictor's behaviour) and the factory builds a fresh predictor.
    Records answer first; the rest ride one bus replay over
    ``load_trace()`` and are recorded.  With *fresh* (an entry a worker
    has just written) every predictor replays and its record is
    rewritten.  The caller must have verified or loaded the entry.

    Returns ``(results by name, the replay's bus stats or None when
    nothing replayed)``, or None when ``load_trace()`` finds the entry
    gone.
    """
    results: Dict[str, PredictionStats] = {}
    if store is not None and not fresh:
        for name, (identity, _) in predictors.items():
            stored = store.prediction(spec, digest, identity)
            if stored is not None:
                results[name] = stored
    missing = [name for name in predictors if name not in results]
    stats = None
    if missing:
        trace = load_trace()
        if trace is None:
            return None
        bank = [
            PredictorConsumer(
                predictors[name][1](),
                label=spec.name,
                track_per_branch=False,
                name=f"predict:{name}",
            )
            for name in missing
        ]
        stats = BranchEventBus.replay(trace, bank)
        for name, consumer in zip(missing, bank):
            results[name] = consumer.result
            if store is not None:
                store.put_prediction(
                    spec, digest, predictors[name][0], consumer.result
                )
    return {name: results[name] for name in predictors}, stats
