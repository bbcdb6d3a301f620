"""The append-only suite run journal.

``<cache>/journal.jsonl`` records one line per finished engine job —
benchmark name, run parameters, the content digest of the stored
artifacts, and outcome — flushed and fsynced per record, so the history
survives the *driver* process dying, not just a worker.

The engine only ever writes it.  It is a log, not an artifact index:
finished work — for a rerun, a restarted shard, the supervisor's and
``merge-shards``' censuses — is what the digest memo and the content-
addressed store hold for the current sources, never a digest the
journal recorded.  Its readers are the shard supervisor's learned cost
model (:func:`~repro.eval.shards.measured_costs`), ``merge-shards``
(which unions shard journals) and the analysis service's recovery.

Every reader goes through :meth:`RunJournal.read`, which skips damage —
a torn trailing line, garbage mid-file, records written by a newer
format version — with a warning naming the journal path and line.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Format version stamped (as ``"v"``) into every record this writer
#: appends.  Records without the field read as version 0 (pre-v7
#: journals); records from a *newer* writer are never returned by
#: :meth:`RunJournal.read`, so a downgraded repro never silently
#: misreads them.
JOURNAL_VERSION = 1

#: How many characters of an offending line a warning quotes.
_SNIPPET_CHARS = 120


def _snippet(line: str) -> str:
    line = line.rstrip("\n")
    if len(line) > _SNIPPET_CHARS:
        return line[:_SNIPPET_CHARS] + "..."
    return line


class RunJournal:
    """Append-only, fsynced JSONL record of per-benchmark completion."""

    FILENAME = "journal.jsonl"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.path = self.root / self.FILENAME

    # -- writing -------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record durably (flush + fsync before returning).

        A writer that died mid-line leaves a torn tail with no newline;
        appending straight after it would fuse the new record into the
        garbage line and lose *both*.  The tail is checked and terminated
        first, so one torn line never costs more than itself.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        record.setdefault("v", JOURNAL_VERSION)
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a+b") as fh:
            fh.seek(0, os.SEEK_END)
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(line.encode("utf-8") + b"\n")
            fh.flush()
            os.fsync(fh.fileno())

    def record_completed(
        self,
        benchmark: str,
        digest: str,
        scale: float,
        **extra: Any,
    ) -> None:
        self.append(
            {
                "status": "completed",
                "benchmark": benchmark,
                "digest": digest,
                "scale": scale,
                "ts": round(time.time(), 3),
                **extra,
            }
        )

    def record_failed(
        self,
        benchmark: str,
        scale: float,
        error: Dict[str, Any],
        **extra: Any,
    ) -> None:
        self.append(
            {
                "status": "failed",
                "benchmark": benchmark,
                "scale": scale,
                "error": error,
                "ts": round(time.time(), 3),
                **extra,
            }
        )

    # -- reading -------------------------------------------------------------

    def read(self) -> Tuple[List[Dict[str, Any]], List[str]]:
        """``(records, warnings)``: every usable record, in append order.

        Damage is skipped, never raised, with one warning per skipped
        line naming the journal path and line number:

        * a torn final line — the signature of a writer that died
          mid-append (the record it was describing is not on record);
        * an unparsable or non-object line anywhere else (manual edits,
          a torn line a later append sealed);
        * a record stamped with a format version newer than this
          build's :data:`JOURNAL_VERSION` (written by a newer repro),
          which is never returned.

        An unreadable journal reads as empty, with one warning.  Every
        consumer can thus make progress over a partial journal without
        silently under-counting what it dropped.
        """
        if not self.path.exists():
            return [], []
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            return [], [f"{self.path}: unreadable journal skipped: {exc}"]
        records: List[Dict[str, Any]] = []
        warnings: List[str] = []
        lines = raw.split("\n")
        torn_tail = bool(lines and lines[-1] != "")
        if lines and lines[-1] == "":
            lines.pop()
        last_index = len(lines) - 1
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            where = f"{self.path}:{index + 1}"
            try:
                record = json.loads(line)
            except ValueError:
                if index == last_index and torn_tail:
                    warnings.append(
                        f"{where}: torn tail {_snippet(line)!r} — the "
                        "writer died mid-append; the record is skipped"
                    )
                else:
                    warnings.append(
                        f"{where}: unparsable record {_snippet(line)!r} "
                        "skipped"
                    )
                continue
            if not isinstance(record, dict):
                warnings.append(
                    f"{where}: non-object record {_snippet(line)!r} skipped"
                )
                continue
            version = record.get("v", 0)
            if not isinstance(version, int) or version > JOURNAL_VERSION:
                warnings.append(
                    f"{where}: record with format version {version!r} "
                    f"(> supported {JOURNAL_VERSION}) skipped"
                )
                continue
            records.append(record)
        return records, warnings


__all__ = ["JOURNAL_VERSION", "RunJournal"]
