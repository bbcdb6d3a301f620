"""In-memory span recorder and the wrappers that time the program's layers.

Every layer is timed from outside: :func:`install` wraps public entry
points of the ``repro`` package and rebinds each wrapper wherever a
caller looks the name up (``repro.eval.engine.build_workload`` as well as
``repro.workloads.build.build_workload``).  Spans stay in memory; each
process writes its own ``spans-<pid>.jsonl`` into the trace directory
when it exits (``atexit`` for the main process, the end of
``multiprocessing``'s child bootstrap for forked workers).

A span is ``[name, start, end, id, parent, pid, rid, attrs]``: monotonic
seconds (``CLOCK_MONOTONIC`` is system-wide on Linux, so spans from
different processes share one time axis), the span that was open in the
same thread when it started, and a request id inherited from the parent
(set from the ``JobSpec`` tag at job entry points).
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: environment variable naming the directory each process writes to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
#: parent's ``time.monotonic()`` just before it launched this process.
LAUNCH_ENV = "PERFBENCH_LAUNCH"


class Recorder:
    """Spans of one process; reset in every forked child."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.spans: List[list] = []
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.pid = os.getpid()

    def reset_after_fork(self) -> None:
        self.spans = []
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.pid = os.getpid()

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        rid: str = "",
        attrs: Optional[Dict[str, Any]] = None,
        parent: str = "",
    ) -> None:
        span_id = f"{self.pid}.{next(self.ids)}"
        self.spans.append(
            [name, start, end, span_id, parent, self.pid, rid, attrs or {}]
        )

    def flush(self) -> None:
        if not self.spans or os.getpid() != self.pid:
            return
        path = self.directory / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


RECORDER: Optional[Recorder] = None


def span(
    name: str,
    rid_of: Optional[Callable[..., str]] = None,
    attrs_of: Optional[Callable[..., Dict[str, Any]]] = None,
) -> Callable[[Callable], Callable]:
    """Decorator factory: time every call of the wrapped function as *name*.

    ``rid_of(*args, **kwargs)`` names the request the call serves;
    ``attrs_of(result, *args, **kwargs)`` adds counts to the span.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = RECORDER
            stack = rec.stack()
            parent_id, parent_rid = stack[-1] if stack else ("", "")
            rid = parent_rid
            if rid_of is not None:
                try:
                    rid = rid_of(*args, **kwargs) or parent_rid
                except Exception:
                    rid = parent_rid
            span_id = f"{rec.pid}.{next(rec.ids)}"
            stack.append((span_id, rid))
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                attrs = attrs_of(result, *args, **kwargs) if attrs_of else {}
                rec.spans.append(
                    [name, start, end, span_id, parent_id, rec.pid, rid, attrs]
                )

        return wrapper

    return decorate


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to *original* at *replacement*."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _wrap_function(module, attr: str, name: str, **kw) -> None:
    original = getattr(module, attr)
    _rebind(original, span(name, **kw)(original))


def _wrap_method(cls, attr: str, name: str, **kw) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(span(name, **kw)(raw.__func__)))
    else:
        setattr(cls, attr, span(name, **kw)(raw))


def _spec_tag(spec, *args, **kwargs) -> str:
    return spec.tag()


def _method_spec_tag(self, spec, *args, **kwargs) -> str:
    return spec.tag()


def _job_tag(payload, *args, **kwargs) -> str:
    return payload[0].tag()


def _replayed(result, cls, trace, *args, **kwargs) -> Dict[str, Any]:
    return {"events": len(trace)}


def _sim_counts(result, built, bus=None, **kwargs) -> Dict[str, Any]:
    """Instructions retired and branch events the bus saw in one run."""
    run = getattr(result, "result", result)  # SimulationOutcome wraps it
    bus = kwargs.get("branch_hook", bus)
    stats = getattr(bus, "stats", None)
    return {
        "instructions": int(getattr(run, "instructions", 0) or 0),
        "events": int(getattr(stats, "events", 0) or 0),
    }


def _job_source(result, *args, **kwargs) -> Dict[str, Any]:
    return {"source": getattr(result, "source", "failed")}


def _current_parent() -> str:
    stack = RECORDER.stack()
    return stack[-1][0] if stack else ""


def _beat_wrapper(original: Callable) -> Callable:
    """Lease beats are throttled: only calls that rewrote the file count."""

    @functools.wraps(original)
    def beat(self, *args, **kwargs):
        before = self._last
        start = time.monotonic()
        try:
            return original(self, *args, **kwargs)
        finally:
            if self._last != before and not self.stalled:
                RECORDER.add(
                    "supervisor.lease_write",
                    start,
                    time.monotonic(),
                    attrs={"slot": self.slot},
                    parent=_current_parent(),
                )

    return beat


def _worker_handle_wrappers(cls) -> None:
    """``engine.worker``: a WorkerHandle's life from spawn to outcome.

    ``engine.spawn_s`` is that interval minus the ``JobResult.seconds``
    the worker reports; the rest is the worker's own job time.
    """
    init, poll = cls.__init__, cls.poll

    @functools.wraps(init)
    def __init__(self, spec, *args, **kwargs):
        self._perfbench_start = time.monotonic()
        init(self, spec, *args, **kwargs)

    @functools.wraps(poll)
    def poll_(self):
        outcome = poll(self)
        if outcome is not None and not getattr(self, "_perfbench_done", False):
            self._perfbench_done = True
            kind, payload = outcome
            seconds = getattr(payload, "seconds", None) if kind == "ok" else None
            RECORDER.add(
                "engine.worker",
                self._perfbench_start,
                time.monotonic(),
                rid=self.spec.tag(),
                attrs={
                    "outcome": kind,
                    "child_pid": self.process.pid,
                    "job_seconds": seconds,
                },
            )
        return outcome

    cls.__init__ = __init__
    cls.poll = poll_


def _flush_after_child(original: Callable) -> Callable:
    @functools.wraps(original)
    def _bootstrap(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            if RECORDER is not None:
                RECORDER.flush()

    return _bootstrap


def install(directory: Path) -> Recorder:
    """Install the recorder and every layer wrapper in this process."""
    global RECORDER
    import multiprocessing.process

    from repro.allocation import sizing
    from repro.analysis import metrics
    from repro.checkpoint import runner as ckpt_runner
    from repro.checkpoint.journal import RunJournal
    from repro.checkpoint.store import CheckpointStore
    from repro.eval import engine, shards, supervisor
    from repro.pipeline.bus import BranchEventBus
    from repro.pipeline.consumers import InterleaveConsumer, TraceBuilder
    from repro.workloads import build

    RECORDER = Recorder(Path(directory))
    os.register_at_fork(after_in_child=RECORDER.reset_after_fork)
    atexit.register(RECORDER.flush)
    process_cls = multiprocessing.process.BaseProcess
    process_cls._bootstrap = _flush_after_child(process_cls._bootstrap)

    _wrap_function(build, "build_workload", "workloads.build")
    _wrap_function(build, "run_workload", "sim.run", attrs_of=_sim_counts)
    _wrap_function(
        ckpt_runner, "run_simulation", "sim.run", attrs_of=_sim_counts
    )
    _wrap_function(engine, "artifact_digest", "engine.digest")
    _wrap_function(
        engine, "compute_job_digest", "engine.digest", rid_of=_spec_tag
    )
    _wrap_function(
        engine, "_execute_job", "engine.job", rid_of=_job_tag,
        attrs_of=_job_source,
    )
    store = engine.ArtifactStore
    _wrap_method(store, "verify", "engine.store.verify", rid_of=_method_spec_tag)
    _wrap_method(store, "load", "engine.store.load", rid_of=_method_spec_tag)
    _wrap_method(store, "put", "engine.store.put", rid_of=_method_spec_tag)
    _wrap_method(store, "try_claim", "engine.store.claim_wait")
    _wrap_method(store, "wait_for_writer", "engine.store.claim_wait")
    _worker_handle_wrappers(engine.WorkerHandle)
    _wrap_method(InterleaveConsumer, "on_chunk", "pipeline.interleave")
    _wrap_method(TraceBuilder, "on_chunk", "pipeline.trace_builder")
    _wrap_method(CheckpointStore, "put", "checkpoint.save")
    _wrap_method(RunJournal, "append", "checkpoint.journal_append")
    _wrap_function(metrics, "working_set_metrics", "analysis.working_sets")
    _wrap_function(sizing, "required_bht_size", "allocation.sizing")
    _wrap_method(
        BranchEventBus, "replay", "predictors.replay", attrs_of=_replayed
    )
    _wrap_function(shards, "partition_selection", "shards.partition")
    _wrap_function(shards, "merge_shards", "shards.merge")
    lease = supervisor.LeaseWriter
    lease.beat = _beat_wrapper(lease.beat)
    return RECORDER


def span_cost(directory: Path, calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one recorded span adds to a process: wrapper plus its flush.

    Median over *repeats* batches of a wrapped no-op against the bare
    no-op, with the batch's spans written out as a process would at exit.
    """
    global RECORDER
    saved, RECORDER = RECORDER, Recorder(Path(directory))
    try:
        def noop():
            return None

        wrapped = span("calibration")(noop)
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            RECORDER.flush()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        (Path(directory) / f"spans-{os.getpid()}.jsonl").unlink()
        costs.sort()
        return costs[len(costs) // 2]
    finally:
        RECORDER = saved


def record_import(launched: Optional[float]) -> None:
    """``proc.import``: interpreter start + ``import repro`` (bootstrap only)."""
    if RECORDER is not None and launched is not None:
        RECORDER.add("proc.import", launched, time.monotonic())
