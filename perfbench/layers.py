"""Per-layer attribution: self time, counts and residual from merged spans.

A span's *self time* is its duration minus the part its child spans (same
process and thread, linked by parent id) cover.  ``residual_s`` is the
part of the measured wall-clock windows that no layer's self time covers,
across all processes: for one sequential process it is exactly
``wall - sum(self time)``, and for concurrent processes it is the time
during which nothing attributed was running anywhere.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]

#: span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "workloads.build": "workloads.build_s",
    "engine.digest": "engine.digest_s",
    "engine.store.verify": "engine.store.verify_s",
    "engine.store.load": "engine.store.load_s",
    "engine.store.put": "engine.store.put_s",
    "engine.store.claim_wait": "engine.store.claim_wait_s",
    "sim.run": "sim.run_s",
    "pipeline.interleave": "pipeline.interleave_s",
    "pipeline.trace_builder": "pipeline.trace_builder_s",
    "checkpoint.save": "checkpoint.save_s",
    "checkpoint.journal_append": "checkpoint.journal_s",
    "analysis.working_sets": "analysis.working_sets_s",
    "allocation.sizing": "allocation.sizing_s",
    "predictors.replay": "predictors.replay_s",
    "service.accept": "service.accept_s",
    "supervisor.lease_write": "supervisor.lease_s",
    "shards.partition": "shards.partition_s",
    "shards.merge": "shards.merge_s",
    "proc.import": "proc.import_s",
}

#: span name -> per-layer call-count metric.
COUNT_METRICS = {
    "checkpoint.save": "checkpoint.writes",
    "checkpoint.journal_append": "checkpoint.journal_appends",
    "supervisor.lease_write": "supervisor.lease_writes",
    "engine.worker": "engine.workers",
    "pipeline.interleave": "pipeline.chunk_flushes",
}

#: spans that only group others (request ids, parents); never attributed.
CONTAINERS = {"engine.job"}


def load_spans(directory: Path) -> List[list]:
    spans: List[list] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _subtract(outer: Interval, holes: Iterable[Interval]) -> List[Interval]:
    """*outer* minus the union of *holes*, as disjoint intervals."""
    start, end = outer
    pieces: List[Interval] = []
    cursor = start
    for h_start, h_end in sorted(holes):
        h_start, h_end = max(h_start, start), min(h_end, end)
        if h_end <= cursor:
            continue
        if h_start > cursor:
            pieces.append((cursor, h_start))
        cursor = max(cursor, h_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def _union_length(intervals: Iterable[Interval], window: Interval) -> float:
    total, cursor = 0.0, window[0]
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, window[1])
        if end > start:
            total += end - start
            cursor = end
    return total


def _length(intervals: Sequence[Interval]) -> float:
    return sum(end - start for start, end in intervals)


def self_intervals(spans: Sequence[list]) -> Dict[str, List[Interval]]:
    """Span id -> the intervals of its own (not its children's) time.

    ``engine.worker`` (a daemon-side WorkerHandle's life) is special: its
    child is the forked worker's ``engine.job`` span in another process,
    so its self time is the worker's life outside that job — process
    spawn, pipe transfer and the daemon noticing the outcome.
    """
    children: Dict[str, List[Interval]] = defaultdict(list)
    jobs_by_pid: Dict[int, List[Interval]] = defaultdict(list)
    for name, start, end, _sid, parent, pid, _rid, _attrs in spans:
        if parent:
            children[parent].append((start, end))
        if name == "engine.job":
            jobs_by_pid[pid].append((start, end))
    out: Dict[str, List[Interval]] = {}
    for name, start, end, sid, _parent, _pid, _rid, attrs in spans:
        holes = list(children.get(sid, ()))
        if name == "engine.worker":
            holes += jobs_by_pid.get(attrs.get("child_pid"), [])
        out[sid] = _subtract((start, end), holes)
    return out


def attribute(
    spans: Sequence[list], windows: Sequence[Interval]
) -> Dict[str, float]:
    """Per-layer self times, span counts, spawn time and residual."""
    pieces = self_intervals(spans)
    metrics: Dict[str, float] = defaultdict(float)
    attributed: List[Interval] = []
    for name, start, end, sid, _parent, _pid, _rid, attrs in spans:
        if name in CONTAINERS:
            continue
        attributed.extend(pieces[sid])
        if name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[name]] += _length(pieces[sid])
        if name in COUNT_METRICS:
            metrics[COUNT_METRICS[name]] += 1
        if name == "engine.worker" and attrs.get("job_seconds") is not None:
            metrics["engine.spawn_s"] += (end - start) - attrs["job_seconds"]
        if name == "sim.run":
            metrics["sim.events"] += attrs.get("events", 0)
            metrics["sim.instructions"] += attrs.get("instructions", 0)
        if name == "predictors.replay":
            metrics["predictors.events_replayed"] += attrs.get("events", 0)
    jobs = [s for s in spans if s[0] == "engine.job"]
    hits = sum(1 for s in jobs if s[7].get("source") == "store")
    metrics["engine.jobs"] = len(jobs)
    metrics["engine.store.hits"] = hits
    metrics["engine.store.hit_ratio"] = hits / len(jobs) if jobs else 0.0
    wall = sum(end - start for start, end in windows)
    covered = sum(_union_length(attributed, window) for window in windows)
    metrics["residual_s"] = wall - covered
    metrics["residual_share"] = (wall - covered) / wall if wall else 0.0
    return dict(metrics)
