"""Open-loop load generator for the analysis daemon (``repro loadgen``).

Open-loop means arrivals are scheduled on a fixed clock — request *i*
is sent at ``i / rate`` seconds after start — regardless of how fast the
service answers.  That is the honest way to measure a service under
load: a closed loop (send, wait, send) self-throttles exactly when the
server slows down, hiding the queueing behaviour the admission
controller exists to manage.

Each request is one short-lived unix-socket connection: submit, stream
frames until the terminal one, record the outcome and latency.  After
the run, one ``stats`` query collects the server-side counters
(cache-hit ratio, shed counts, per-tenant fairness) into the report.

Client-side fault modes reuse :class:`repro.eval.faults.FaultPlan`
(installed via ``REPRO_FAULTS`` or passed directly):

* ``slow_client`` — every Nth request trickles its submit frame in two
  writes separated by a pause, exercising the daemon's partial-frame
  reads;
* ``conn_drop`` — every Nth request disconnects right after its
  ``accepted`` frame; the job must still complete server-side (the
  report marks it ``dropped``, and the artifact lands in the store).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..eval import faults
from .wire import encode_frame, read_frame

#: Frame types that end one request's stream.
TERMINAL_TYPES = (
    "completed",
    "failed",
    "cancelled",
    "interrupted",
    "rejected",
)


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run."""

    socket_path: str
    rate: float = 10.0
    jobs: int = 20
    benchmarks: Tuple[str, ...] = ("plot",)
    tenants: Tuple[str, ...] = ("tenant-0",)
    scale: float = 0.05
    backend: str = "interp"
    predictors: Tuple[str, ...] = ()
    deadline_s: Optional[float] = None
    #: per-request budget for the response stream (client-side guard so
    #: a wedged daemon cannot hang the generator forever).
    response_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not self.benchmarks:
            raise ValueError("loadgen needs at least one benchmark")
        from ..workloads.registry import resolve_benchmark

        for name in self.benchmarks:
            resolve_benchmark(name)  # UnknownBenchmark before any traffic
        if not self.tenants:
            raise ValueError("loadgen needs at least one tenant")


@dataclass
class RequestOutcome:
    """What happened to one open-loop request."""

    index: int
    benchmark: str
    tenant: str
    outcome: str = "pending"
    error_code: str = ""
    latency_s: float = 0.0
    frames: List[Dict[str, Any]] = field(default_factory=list)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


async def _one_request(
    config: LoadgenConfig,
    index: int,
    plan: Optional[faults.FaultPlan],
) -> RequestOutcome:
    benchmark = config.benchmarks[index % len(config.benchmarks)]
    tenant = config.tenants[index % len(config.tenants)]
    record = RequestOutcome(index=index, benchmark=benchmark, tenant=tenant)
    frame: Dict[str, Any] = {
        "op": "submit",
        "id": f"lg-{index}",
        "tenant": tenant,
        "benchmark": benchmark,
        "scale": config.scale,
        "backend": config.backend,
    }
    if config.predictors:
        frame["predictors"] = list(config.predictors)
    if config.deadline_s is not None:
        frame["deadline_s"] = config.deadline_s
    started = time.monotonic()
    try:
        reader, writer = await asyncio.open_unix_connection(
            config.socket_path
        )
    except OSError as exc:
        record.outcome = "connect_error"
        record.error_code = type(exc).__name__
        return record
    try:
        payload = encode_frame(frame)
        delay = plan.client_delay(index) if plan is not None else 0.0
        if delay > 0.0:
            split = max(1, len(payload) // 2)
            writer.write(payload[:split])
            await writer.drain()
            await asyncio.sleep(delay)
            writer.write(payload[split:])
        else:
            writer.write(payload)
        await writer.drain()
        drop = plan is not None and plan.drops_connection(index)
        deadline = started + config.response_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                record.outcome = "client_timeout"
                break
            reply = await asyncio.wait_for(
                read_frame(reader), timeout=remaining
            )
            if reply is None:
                record.outcome = "disconnected"
                break
            record.frames.append(reply)
            kind = reply.get("type")
            if kind == "accepted" and drop:
                record.outcome = "dropped"
                break
            if kind in TERMINAL_TYPES:
                record.outcome = kind
                if kind == "rejected":
                    record.error_code = str(
                        (reply.get("error") or {}).get("code", "")
                    )
                break
    except (OSError, asyncio.TimeoutError, ValueError) as exc:
        record.outcome = "client_error"
        record.error_code = type(exc).__name__
    finally:
        record.latency_s = time.monotonic() - started
        try:
            writer.close()
        except Exception:
            pass
    return record


async def _query_stats(socket_path: str) -> Optional[Dict[str, Any]]:
    try:
        reader, writer = await asyncio.open_unix_connection(socket_path)
    except OSError:
        return None
    try:
        writer.write(encode_frame({"op": "stats"}))
        await writer.drain()
        return await asyncio.wait_for(read_frame(reader), timeout=10.0)
    except (OSError, asyncio.TimeoutError, ValueError):
        return None
    finally:
        try:
            writer.close()
        except Exception:
            pass


async def _run(
    config: LoadgenConfig, plan: Optional[faults.FaultPlan]
) -> Dict[str, Any]:
    started = time.monotonic()

    async def scheduled(index: int) -> RequestOutcome:
        due = started + index / config.rate
        pause = due - time.monotonic()
        if pause > 0:
            await asyncio.sleep(pause)
        return await _one_request(config, index, plan)

    records = await asyncio.gather(
        *(scheduled(index) for index in range(config.jobs))
    )
    duration = time.monotonic() - started
    stats = await _query_stats(config.socket_path)
    return summarize(list(records), duration, stats, config)


def summarize(
    records: List[RequestOutcome],
    duration_s: float,
    service_stats: Optional[Dict[str, Any]],
    config: LoadgenConfig,
) -> Dict[str, Any]:
    """The loadgen report (``repro loadgen --json`` results)."""
    by_outcome: Dict[str, int] = {}
    for record in records:
        by_outcome[record.outcome] = by_outcome.get(record.outcome, 0) + 1
    rejected_overloaded = sum(
        1
        for r in records
        if r.outcome == "rejected" and r.error_code == "service_overloaded"
    )
    rejected_quota = sum(
        1
        for r in records
        if r.outcome == "rejected" and r.error_code == "quota_exceeded"
    )
    latencies = sorted(
        r.latency_s for r in records if r.outcome == "completed"
    )
    jobs = dict(service_stats.get("jobs", {})) if service_stats else {}
    report: Dict[str, Any] = {
        "jobs": len(records),
        "rate_hz": config.rate,
        "duration_s": round(duration_s, 6),
        "completed": by_outcome.get("completed", 0),
        "failed": by_outcome.get("failed", 0),
        "cancelled": by_outcome.get("cancelled", 0),
        "interrupted": by_outcome.get("interrupted", 0),
        "dropped": by_outcome.get("dropped", 0),
        "rejected": by_outcome.get("rejected", 0),
        "rejected_overloaded": rejected_overloaded,
        "rejected_quota": rejected_quota,
        "client_errors": (
            by_outcome.get("client_error", 0)
            + by_outcome.get("connect_error", 0)
            + by_outcome.get("client_timeout", 0)
            + by_outcome.get("disconnected", 0)
        ),
        "jobs_per_sec": (
            round(by_outcome.get("completed", 0) / duration_s, 6)
            if duration_s > 0
            else 0.0
        ),
        "latency_p50_s": round(_percentile(latencies, 0.50), 6),
        "latency_p99_s": round(_percentile(latencies, 0.99), 6),
        "shed_rate": (
            round(rejected_overloaded / len(records), 6) if records else 0.0
        ),
        "cache_hit_ratio": (
            service_stats.get("cache_hit_ratio", 0.0)
            if service_stats
            else 0.0
        ),
        "outcomes": dict(sorted(by_outcome.items())),
    }
    if service_stats is not None:
        report["service"] = {
            "jobs": jobs,
            "admission": service_stats.get("admission", {}),
            "tenants": service_stats.get("tenants", {}),
        }
    return report


def run_loadgen(
    config: LoadgenConfig,
    plan: Optional[faults.FaultPlan] = None,
) -> Dict[str, Any]:
    """Drive one open-loop run against a live daemon; returns the report.

    *plan* defaults to the ``REPRO_FAULTS`` environment plan, so the
    same installation mechanism drives worker faults (daemon-side) and
    client faults (here).
    """
    if plan is None:
        plan = faults.active_plan()
    return asyncio.run(_run(config, plan))


__all__ = [
    "LoadgenConfig",
    "RequestOutcome",
    "TERMINAL_TYPES",
    "run_loadgen",
    "summarize",
]
