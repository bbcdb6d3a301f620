"""Versioned, checksummed, crash-safe checkpoint files and block logs.

A job's mid-run state is split by how it changes.  Sealed trace blocks
never change once written, so they go to an append-only per-job log,
``<stem>.blocks``, exactly once.  Everything else — machine,
environment, the bus's staged partial chunk and counters, consumer
state — is rewritten whole by each checkpoint file, which is therefore
small and does not grow with the run.  A checkpoint file is a
self-describing container::

    RPROCKPT\\n                         magic (8 bytes + newline)
    {"version": 2, "seq": 3, ...}\\n    JSON header line
    <pickle payload>                   the snapshot object

The header carries the format version, the job stem, the sequence
number, provenance counters (events/instructions), the SHA-256 and
length of the payload and, for a simulation checkpoint, the block-log
prefix it depends on (``log_blocks``, ``log_bytes``, ``log_sha256``),
so a reader can reject a truncated, torn or bit-flipped file before
unpickling a single byte.  Each log record is the payload length
(8 bytes, little-endian), the payload's SHA-256 (32 bytes) and the
payload.

Robustness mirrors :class:`~repro.eval.store.ArtifactStore`:

* a checkpoint stages to a private temp file, fsyncs, then commits
  with one ``os.replace`` — a killed writer can never leave a torn
  checkpoint under the final name; the log is appended and fsynced
  *before* the checkpoint that names its new length is committed;
* reads verify magic, version, stem, length and checksum; *any* defect
  moves the file to ``<root>/quarantine/`` (bounded — old entries are
  pruned) and the loader falls back to the previous sequence number,
  then to a cold start;
* restoring re-reads only the log prefix the checkpoint names, checks
  its digest and every record's, and truncates whatever a killed
  writer appended past it; a log that fails the check is quarantined
  together with the job's checkpoints and the run cold-starts;
* retention keeps only the newest ``keep`` sequence numbers per job, so
  long runs cannot fill the disk with history.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import CheckpointCorrupt

#: Format magic; the trailing newline keeps the header greppable.
CHECKPOINT_MAGIC = b"RPROCKPT\n"

#: Bump on any backwards-incompatible change to the container or to the
#: snapshot payload layout.  Old-version files read as corrupt (they are
#: quarantined and the run cold-starts) rather than mis-restoring.
CHECKPOINT_VERSION = 2

#: Pickle protocol for payloads (stable, supports large numpy buffers).
_PICKLE_PROTOCOL = 4

#: Block-log record head: payload length, payload SHA-256.
_RECORD = struct.Struct("<Q32s")


def prune_directory(root: Path, keep: int) -> int:
    """Delete all but the newest *keep* regular files under *root*.

    Newness is (mtime, name); removal errors are ignored (another
    process may prune concurrently).  Returns the number of files
    removed.  Shared by the checkpoint and artifact quarantines so no
    quarantine directory grows without bound.
    """
    if keep < 0:
        raise ValueError(f"keep must be non-negative, got {keep}")
    root = Path(root)
    if not root.is_dir():
        return 0
    entries = [p for p in root.iterdir() if p.is_file()]
    entries.sort(key=lambda p: (p.stat().st_mtime, p.name), reverse=True)
    removed = 0
    for stale in entries[keep:]:
        try:
            stale.unlink()
            removed += 1
        except OSError:
            continue
    return removed


class BlockLog:
    """The append-only log of one job's sealed blocks, ``<stem>.blocks``.

    The log object is a cursor: ``blocks`` records and ``offset`` bytes
    written so far, plus a running SHA-256 of those bytes, so appending
    costs only the new records and :meth:`position` is free.  A
    checkpoint stores :meth:`position`; :meth:`restore` moves the cursor
    back to a stored position and returns the payloads before it.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.blocks = 0
        self.offset = 0
        self._digest = hashlib.sha256()

    def position(self) -> Dict[str, object]:
        """The cursor as checkpoint header fields."""
        return {
            "log_blocks": self.blocks,
            "log_bytes": self.offset,
            "log_sha256": self._digest.hexdigest(),
        }

    def append(self, payloads: Sequence[bytes]) -> None:
        """Write *payloads* at the cursor, durably, and advance it.

        Anything past the cursor (a tail a killed writer left behind)
        is overwritten or truncated away.
        """
        if not payloads:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "r+b" if self.path.exists() else "wb"
        with open(self.path, mode) as fh:
            fh.seek(self.offset)
            for payload in payloads:
                head = _RECORD.pack(
                    len(payload), hashlib.sha256(payload).digest()
                )
                fh.write(head)
                fh.write(payload)
                self._digest.update(head)
                self._digest.update(payload)
                self.offset += len(head) + len(payload)
            fh.truncate()
            fh.flush()
            os.fsync(fh.fileno())
        self.blocks += len(payloads)

    def restore(self, position: Mapping[str, object]) -> List[memoryview]:
        """The payloads of the prefix *position* names, verified.

        Checks the prefix's length and SHA-256 and every record's own
        checksum, truncates the log to the prefix and leaves the cursor
        at its end.  Raises ``ValueError`` (or ``OSError``/``KeyError``)
        on any defect, without moving the cursor.
        """
        blocks = int(position["log_blocks"])
        offset = int(position["log_bytes"])
        digest = hashlib.sha256()
        payloads: List[memoryview] = []
        if offset:
            with open(self.path, "rb") as fh:
                prefix = memoryview(fh.read(offset))
            if len(prefix) != offset:
                raise ValueError(
                    f"block log holds {len(prefix)} bytes, checkpoint "
                    f"needs {offset}"
                )
            digest.update(prefix)
            if digest.hexdigest() != position["log_sha256"]:
                raise ValueError("block log prefix checksum mismatch")
            at = 0
            while at < offset:
                length, sha = _RECORD.unpack_from(prefix, at)
                at += _RECORD.size
                payload = prefix[at:at + length]
                at += length
                if hashlib.sha256(payload).digest() != sha:
                    raise ValueError(
                        f"block {len(payloads)} checksum mismatch"
                    )
                payloads.append(payload)
        if len(payloads) != blocks:
            raise ValueError(
                f"block log prefix holds {len(payloads)} blocks, "
                f"checkpoint names {blocks}"
            )
        if self.path.exists():
            os.truncate(self.path, offset)
        self.blocks, self.offset, self._digest = blocks, offset, digest
        return payloads

    def reset(self) -> None:
        """Drop the log: a cold start rewrites it from block zero."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        self.blocks, self.offset = 0, 0
        self._digest = hashlib.sha256()


class CheckpointStore:
    """Sequence-numbered checkpoint files for simulation jobs.

    Files are named ``<stem>.<seq:08d>.ckpt`` under one root directory;
    *stem* is the owning job's artifact stem (benchmark tag + content
    digest), so checkpoints invalidate with the same discipline as
    artifacts: a kernel edit changes the digest and orphans old
    checkpoints instead of resuming from the wrong program.
    """

    SUFFIX = ".ckpt"

    #: suffix of the per-job append-only block log.
    LOG_SUFFIX = ".blocks"

    #: checkpoints kept per job (the newest one plus a fallback).
    KEEP = 2

    #: subdirectory corrupt checkpoints are moved to.
    QUARANTINE_DIR = "quarantine"

    #: bound on quarantined checkpoint files kept for post-mortem.
    QUARANTINE_KEEP = 16

    def __init__(self, root: Path, keep: int = KEEP) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.root = Path(root)
        self.keep = keep
        #: corruption events observed by this store instance.
        self.corrupt_events: List[CheckpointCorrupt] = []

    def path(self, stem: str, seq: int) -> Path:
        return self.root / f"{stem}.{seq:08d}{self.SUFFIX}"

    def log(self, stem: str) -> BlockLog:
        """A cursor at the start of *stem*'s block log."""
        return BlockLog(self.root / f"{stem}{self.LOG_SUFFIX}")

    def sequences(self, stem: str) -> List[int]:
        """Existing sequence numbers for *stem*, ascending."""
        prefix = f"{stem}."
        found = []
        if not self.root.is_dir():
            return found
        for path in self.root.glob(f"{stem}.*{self.SUFFIX}"):
            tail = path.name[len(prefix):-len(self.SUFFIX)]
            if tail.isdigit():
                found.append(int(tail))
        return sorted(found)

    # -- writing -------------------------------------------------------------

    def put(
        self,
        stem: str,
        seq: int,
        payload: object,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Serialise and commit one checkpoint atomically.

        The payload is pickled immediately (snapshot views over live
        state are therefore safe to pass), checksummed into the header,
        staged to a temp file, fsynced, and moved into place with
        ``os.replace``.  Older sequence numbers beyond the retention
        window are pruned after the commit.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path(stem, seq)
        blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        header = {
            "version": CHECKPOINT_VERSION,
            "stem": stem,
            "seq": seq,
            "payload_bytes": len(blob),
            "payload_sha256": hashlib.sha256(blob).hexdigest(),
            **(meta or {}),
        }
        stage = self.root / f".stage-{os.getpid()}-{final.name}"
        with open(stage, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(json.dumps(header).encode("utf-8"))
            fh.write(b"\n")
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(stage, final)
        self._prune(stem)
        return final

    def _prune(self, stem: str) -> None:
        for seq in self.sequences(stem)[: -self.keep]:
            try:
                self.path(stem, seq).unlink()
            except OSError:
                continue

    # -- reading -------------------------------------------------------------

    def _read_verified(
        self, stem: str, seq: int
    ) -> Tuple[Dict[str, object], object]:
        """(header, payload) for one file; raises on any defect."""
        raw = self.path(stem, seq).read_bytes()
        if not raw.startswith(CHECKPOINT_MAGIC):
            raise ValueError("bad checkpoint magic")
        newline = raw.find(b"\n", len(CHECKPOINT_MAGIC))
        if newline < 0:
            raise ValueError("truncated checkpoint header")
        header = json.loads(raw[len(CHECKPOINT_MAGIC):newline])
        if int(header["version"]) != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {header['version']} "
                f"!= {CHECKPOINT_VERSION}"
            )
        if header["stem"] != stem:
            raise ValueError("checkpoint stem does not match its filename")
        blob = raw[newline + 1:]
        if len(blob) != int(header["payload_bytes"]):
            raise ValueError(
                f"payload is {len(blob)} bytes, header promises "
                f"{header['payload_bytes']} (truncated write?)"
            )
        if hashlib.sha256(blob).hexdigest() != header["payload_sha256"]:
            raise ValueError("payload checksum mismatch")
        return header, pickle.loads(blob)

    def quarantine(self, stem: str, seq: int, reason: str) -> None:
        """Move one bad checkpoint aside and record the event."""
        path = self.path(stem, seq)
        self._quarantine([path], path.name, stem, seq, reason)

    def quarantine_job(self, stem: str, reason: str) -> None:
        """Move *stem*'s block log and every checkpoint aside.

        For state that does not restore as a whole (a log that fails
        its checksums, a payload that does not fit the bus): no older
        checkpoint is trusted, and the run cold-starts.
        """
        paths = [self.path(stem, seq) for seq in self.sequences(stem)]
        self._quarantine(
            [self.log(stem).path, *paths], f"state of {stem}", stem, None,
            reason,
        )

    def _quarantine(
        self,
        paths: List[Path],
        what: str,
        stem: str,
        seq: Optional[int],
        reason: str,
    ) -> None:
        quarantine_root = self.root / self.QUARANTINE_DIR
        moved = []
        for path in paths:
            if not path.exists():
                continue
            quarantine_root.mkdir(parents=True, exist_ok=True)
            target = quarantine_root / path.name
            os.replace(path, target)
            moved.append(str(target))
        if moved:
            prune_directory(quarantine_root, self.QUARANTINE_KEEP)
        self.corrupt_events.append(
            CheckpointCorrupt(
                f"corrupt checkpoint {what}: {reason}",
                stem=stem,
                seq=seq,
                quarantined=moved,
            )
        )

    def load_latest(
        self, stem: str
    ) -> Optional[Tuple[Dict[str, object], object]]:
        """The newest checkpoint for *stem* that verifies, or None.

        Tries sequence numbers newest-first; each corrupt file is
        quarantined and the previous one is tried, so a torn final
        checkpoint degrades to the one before it, and a job whose every
        checkpoint is damaged degrades to a cold start — corruption is
        *reported* via :attr:`corrupt_events`, never raised.
        """
        for seq in reversed(self.sequences(stem)):
            try:
                return self._read_verified(stem, seq)
            except Exception as exc:
                self.quarantine(stem, seq, f"{type(exc).__name__}: {exc}")
        return None

    def clear(self, stem: str) -> None:
        """Drop every checkpoint and the block log for *stem* (the job
        completed)."""
        paths = [self.path(stem, seq) for seq in self.sequences(stem)]
        for path in [*paths, self.log(stem).path]:
            try:
                path.unlink()
            except OSError:
                continue


__all__ = [
    "BlockLog",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "prune_directory",
]
