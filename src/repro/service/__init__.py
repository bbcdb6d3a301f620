"""Analysis-as-a-service: the daemon, its clients, and its guardrails.

The ROADMAP's north star is a production-scale system serving heavy
traffic; this package is the serving layer over the evaluation engine:

* :mod:`repro.service.app` — the asyncio daemon (``repro serve``):
  unix-socket NDJSON API, digest-keyed in-flight dedupe, bounded worker
  pool, SIGTERM drain, journal-driven crash recovery;
* :mod:`repro.service.admission` — bounded admission queue with typed
  load shedding;
* :mod:`repro.service.quotas` — per-tenant token buckets and fairness
  accounting;
* :mod:`repro.service.jobs` — job records, the crash-safe service
  journal, predictor wire specs;
* :mod:`repro.service.wire` — the NDJSON frame protocol;
* :mod:`repro.service.loadgen` — the open-loop load generator
  (``repro loadgen``) and its report shape.

See ``docs/SERVICE.md`` for the API, the failure model and the recovery
guarantees.
"""

from .admission import AdmissionController
from .app import AnalysisService, ServiceConfig, serve
from .jobs import ServiceJob, ServiceJournal, build_predictor
from .loadgen import LoadgenConfig, run_loadgen, summarize
from .quotas import QuotaManager, TokenBucket
from .wire import (
    MAX_FRAME_BYTES,
    WireError,
    decode_frame,
    encode_frame,
    read_frame,
    rejection,
    response,
)

__all__ = [
    "AdmissionController",
    "AnalysisService",
    "LoadgenConfig",
    "MAX_FRAME_BYTES",
    "QuotaManager",
    "ServiceConfig",
    "ServiceJob",
    "ServiceJournal",
    "TokenBucket",
    "WireError",
    "build_predictor",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "rejection",
    "response",
    "run_loadgen",
    "serve",
    "summarize",
]
