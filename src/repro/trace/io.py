"""Trace persistence.

Two formats:

* **binary** (``.npz``) — the columnar arrays, compact and fast; the format
  used by the experiment harness's trace cache.
* **ndjson** (``.ndjson``) — one JSON object per event, self-describing and
  diff-able; used for small fixture traces and interoperability.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .events import BranchTrace

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_trace(
    trace: BranchTrace,
    path: PathLike,
    meta: Optional[Dict[str, object]] = None,
    columns: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Write *trace* to an ``.npz`` file.

    Args:
        trace: the trace to persist.
        path: destination path.
        meta: optional JSON-serialisable provenance metadata (the artifact
            store stamps the content digest here); readable without
            decompressing the event columns via :func:`read_trace_meta`.
        columns: optional extra named arrays kept in the same archive
            (the artifact store keeps the interleave profile here); read
            back with :func:`read_trace_archive`.
    """
    extras = dict(columns or {})
    if meta is not None:
        extras["meta"] = np.array([json.dumps(meta)])
    np.savez_compressed(
        Path(path),
        version=np.array([_FORMAT_VERSION]),
        name=np.array([trace.name]),
        pcs=trace.pcs,
        targets=trace.targets,
        taken=trace.taken,
        timestamps=trace.timestamps,
        **extras,
    )


#: the members :func:`save_trace` writes for the trace itself.
TRACE_COLUMNS = ("version", "name", "pcs", "targets", "taken", "timestamps")


class TraceArchive:
    """An open :func:`save_trace` archive, read from its path or its bytes.

    Opening reads the member list and the two header members (format
    version and provenance metadata, :attr:`meta`); the event columns
    and any extra columns inflate only when :meth:`trace` or
    :meth:`columns` asks for them, each member checked against its zip
    CRC.

    Raises:
        ValueError: on a format-version mismatch.
        KeyError: when a member named in *require* is missing.
    """

    def __init__(
        self, source: Union[PathLike, bytes], require: Sequence[str] = ()
    ) -> None:
        self._archive = np.load(
            io.BytesIO(source) if isinstance(source, bytes) else Path(source),
            allow_pickle=False,
        )
        try:
            for key in require:
                if key not in self._archive.files:
                    raise KeyError(key)
            version = int(self._archive["version"][0])
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported trace format version {version}")
            self.meta: Dict[str, object] = (
                json.loads(str(self._archive["meta"][0]))
                if "meta" in self._archive.files
                else {}
            )
        except BaseException:
            self.close()
            raise

    def columns(self, keys: Sequence[str]) -> Dict[str, np.ndarray]:
        """The extra columns named *keys*."""
        return {key: self._archive[key] for key in keys}

    def trace(self) -> BranchTrace:
        """The trace, inflated from the event columns."""
        archive = self._archive
        return BranchTrace(
            archive["pcs"],
            archive["targets"],
            archive["taken"],
            archive["timestamps"],
            name=str(archive["name"][0]),
        )

    def close(self) -> None:
        self._archive.close()

    def __enter__(self) -> "TraceArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace_meta(
    path: PathLike, require: Sequence[str] = ()
) -> Dict[str, object]:
    """Provenance metadata stored with :func:`save_trace` (may be empty).

    Reads the archive's member list and its two small header members;
    the event columns stay compressed on disk.

    Raises:
        ValueError: on a format-version mismatch.
        KeyError: when a column named in *require* is missing.
    """
    with TraceArchive(path, require) as archive:
        return archive.meta


def read_trace_archive(
    path: PathLike, columns: Sequence[str] = ()
) -> Tuple[BranchTrace, Dict[str, np.ndarray], Dict[str, object]]:
    """One full read of a :func:`save_trace` archive.

    Returns the trace, the extra *columns* asked for and the provenance
    metadata.  Every member read is checked against its zip CRC.

    Raises:
        ValueError: on a format-version mismatch.
        KeyError: when a column named in *columns* is missing.
    """
    with TraceArchive(path, columns) as archive:
        return archive.trace(), archive.columns(columns), archive.meta


def load_trace(path: PathLike) -> BranchTrace:
    """Read a trace previously written by :func:`save_trace`.

    Raises:
        ValueError: on a format-version mismatch.
    """
    return read_trace_archive(path)[0]


def save_trace_ndjson(trace: BranchTrace, path: PathLike) -> None:
    """Write *trace* as newline-delimited JSON events."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        header = {"format": "branch-trace", "version": _FORMAT_VERSION,
                  "name": trace.name, "events": len(trace)}
        fh.write(json.dumps(header) + "\n")
        for event in trace:
            fh.write(
                json.dumps(
                    {
                        "pc": event.pc,
                        "target": event.target,
                        "taken": event.taken,
                        "ts": event.timestamp,
                    }
                )
                + "\n"
            )


def load_trace_ndjson(path: PathLike) -> BranchTrace:
    """Read a trace written by :func:`save_trace_ndjson`.

    Raises:
        ValueError: if the header is missing or malformed.
    """
    pcs, targets, taken, timestamps = [], [], [], []
    name = "<ndjson>"
    with open(Path(path), encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError("empty trace file")
        header = json.loads(header_line)
        if header.get("format") != "branch-trace":
            raise ValueError("not a branch-trace ndjson file")
        name = header.get("name", name)
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            pcs.append(obj["pc"])
            targets.append(obj["target"])
            taken.append(obj["taken"])
            timestamps.append(obj["ts"])
    return BranchTrace(
        np.array(pcs, dtype=np.uint64),
        np.array(targets, dtype=np.uint64),
        np.array(taken, dtype=bool),
        np.array(timestamps, dtype=np.uint64),
        name=name,
    )
