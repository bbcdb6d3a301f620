"""The append-only suite run journal.

``<cache>/journal.jsonl`` records one line per finished engine job —
benchmark name, run parameters, the content digest of the stored
artifacts, and outcome — flushed and fsynced per record, so the history
survives the *driver* process dying, not just a worker.

``repro experiment --resume`` replays the journal before scheduling
work: a benchmark whose latest record (for the same scale/trace-limit
parameters) is ``completed`` is loaded straight from the artifact store
by its recorded digest and never re-simulated.  The journal is advisory
provenance, not a second artifact index: if the recorded artifacts
turn out to be missing or corrupt, the engine falls back to the normal
simulate-or-cache path for that benchmark.

Every consumer reads through :meth:`RunJournal.read`.  A torn trailing
line (the driver died mid-append) is always a warning naming the line.
Structural damage (garbage mid-file, records written by a newer format
version) is skipped with a warning by a tolerant read; a strict read —
a resume run that must *trust* the journal — raises a typed
:class:`~repro.errors.JournalInvalid` that names the journal path, the
line number and the offending record.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import JournalInvalid

#: Format version stamped (as ``"v"``) into every record this writer
#: appends.  Records without the field read as version 0 (pre-v7
#: journals); records from a *newer* writer are never returned by
#: :meth:`RunJournal.read`, so a downgraded repro never silently
#: misreads them.
JOURNAL_VERSION = 1

#: How many characters of an offending line an error message quotes.
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
        trace_limit: Optional[int],
        **extra: Any,
    ) -> None:
        self.append(
            {
                "status": "completed",
                "benchmark": benchmark,
                "digest": digest,
                "scale": scale,
                "trace_limit": trace_limit,
                "ts": round(time.time(), 3),
                **extra,
            }
        )

    def record_failed(
        self,
        benchmark: str,
        scale: float,
        trace_limit: Optional[int],
        error: Dict[str, Any],
        **extra: Any,
    ) -> None:
        self.append(
            {
                "status": "failed",
                "benchmark": benchmark,
                "scale": scale,
                "trace_limit": trace_limit,
                "error": error,
                "ts": round(time.time(), 3),
                **extra,
            }
        )

    # -- reading -------------------------------------------------------------

    def read(self, strict: bool) -> Tuple[List[Dict[str, Any]], List[str]]:
        """``(records, warnings)``: every usable record, in append order.

        A single unparsable *final* line is the signature of a writer
        that died mid-append.  It is always tolerated (the record it was
        describing is simply not on record) and reported as a warning
        naming the journal path and line number.  Every other kind of
        damage depends on *strict*:

        * an unreadable journal file,
        * an unparsable or non-object line anywhere *before* the tail
          (manual edits, interleaved writers without the append lock),
        * a record stamped with a format version newer than this
          build's :data:`JOURNAL_VERSION` (written by a newer repro).

        Strict reads (a ``--resume`` run staking correctness on the
        journal) raise.  Tolerant reads (completion lookups, cost
        models, shard merges, service recovery, supervised workers
        sharing one journal) skip the damage with a warning naming the
        path and line, so a consumer can make progress over a partial
        journal without silently under-counting what it dropped.  A
        record from a newer writer is never returned either way.

        Raises:
            JournalInvalid: (strict only) naming ``self.path``, the
                1-based line number and a snippet of the offending
                record.
        """
        if not self.path.exists():
            return [], []
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            if strict:
                raise JournalInvalid(
                    f"run journal {self.path} is unreadable: {exc}",
                    path=str(self.path),
                ) from exc
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
            number = index + 1
            try:
                record = json.loads(line)
            except ValueError:
                if index == last_index and torn_tail:
                    warnings.append(
                        f"{self.path}:{number}: torn tail "
                        f"{_snippet(line)!r} — the writer died "
                        "mid-append; the record is skipped"
                    )
                elif strict:
                    raise self._invalid(
                        f"run journal {self.path} has an unparsable record "
                        f"at line {number}: {_snippet(line)!r} — delete the "
                        "line or rerun without --resume",
                        number,
                        line,
                    )
                else:
                    warnings.append(
                        f"{self.path}:{number}: unparsable record "
                        f"{_snippet(line)!r} skipped"
                    )
                continue
            if not isinstance(record, dict):
                if strict:
                    raise self._invalid(
                        f"run journal {self.path} has a non-object record "
                        f"at line {number}: {_snippet(line)!r}",
                        number,
                        line,
                    )
                warnings.append(
                    f"{self.path}:{number}: non-object record "
                    f"{_snippet(line)!r} skipped"
                )
                continue
            version = record.get("v", 0)
            if not isinstance(version, int) or version > JOURNAL_VERSION:
                if strict:
                    raise self._invalid(
                        f"run journal {self.path} record at line {number} "
                        f"has format version {version!r}, but this build "
                        f"supports <= {JOURNAL_VERSION} — it was written by "
                        "a newer repro; upgrade, or move the journal aside",
                        number,
                        line,
                        version=version,
                        supported=JOURNAL_VERSION,
                    )
                warnings.append(
                    f"{self.path}:{number}: record with format version "
                    f"{version!r} (> supported {JOURNAL_VERSION}) skipped"
                )
                continue
            records.append(record)
        return records, warnings

    def _invalid(
        self, message: str, number: int, line: str, **extra: Any
    ) -> JournalInvalid:
        return JournalInvalid(
            message,
            path=str(self.path),
            line=number,
            record=_snippet(line),
            **extra,
        )

    def completed(
        self,
        scale: float,
        trace_limit: Optional[int],
        backend: str = "interp",
    ) -> Dict[str, str]:
        """benchmark -> artifact digest for finished work at these params.

        The *latest* record per benchmark at these parameters wins, so a
        later ``failed`` entry invalidates an earlier completion.
        Records at other scales/limits/backends are ignored entirely
        (they speak about different artifacts); records predating the
        backend field count as interpreter runs.
        """
        latest: Dict[str, Optional[str]] = {}
        records, _ = self.read(strict=False)
        for record in records:
            benchmark = record.get("benchmark")
            if not isinstance(benchmark, str):
                continue
            if (
                record.get("scale") != scale
                or record.get("trace_limit") != trace_limit
                or record.get("backend", "interp") != backend
            ):
                continue
            if record.get("status") == "completed" and isinstance(
                record.get("digest"), str
            ):
                latest[benchmark] = record["digest"]
            else:
                latest[benchmark] = None
        return {b: d for b, d in latest.items() if d is not None}


__all__ = ["JOURNAL_VERSION", "RunJournal"]
