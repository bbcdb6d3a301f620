"""Versioned machine-readable output schema for the CLI.

Every ``python -m repro`` subcommand that supports ``--json`` emits one
envelope::

    {
      "schema_version": 1,
      "command": "experiment",
      "params": {...},     # the parsed arguments that shaped the run
      "results": {...}     # command-specific payload
    }

``schema_version`` is bumped on any backwards-incompatible change to the
envelope or to a command's ``results`` payload, so scripts can pin what
they parse.  Replaces the ad-hoc prints as the only stable programmatic
surface of the CLI.

Version history:

* **1** — initial envelope (``run``/``profile``/``allocate``/
  ``experiment``).
* **2** — fault tolerance: ``experiment`` results gain a ``failures``
  array (one ``{benchmark, error, code, message, ...}`` object per
  benchmark that exhausted its retries) and the embedded ``engine``
  stats gain ``failed``/``retried``/``timeouts``/``quarantined``
  counters; the new ``faults`` command emits the same envelope shape.
* **3** — streaming pipeline observability: the embedded ``engine``
  stats gain ``fused_runs``/``replayed_runs`` counters and a
  ``pipeline`` object (``events``, ``delivered``, ``chunk_flushes``,
  ``truncated``, and per-consumer ``consumers`` entries with
  ``chunks``/``events``/``seconds``/``events_per_second``); the new
  ``--version`` flag reports ``{"version": ..., "schema_version": ...}``.
* **4** — checkpoint/resume: the embedded ``engine`` stats gain
  ``checkpoints_written``/``resumed_from_checkpoint`` (simulations that
  restored a mid-run checkpoint instead of cold-starting), a
  journal-skip counter (benchmarks satisfied from the run journal by
  ``experiment --resume``; gone in v11) and ``quarantine_pruned``
  (quarantine files age-pruned to keep the directory bounded)
  counters; ``experiment`` params gain ``resume``/``checkpoint_every``.
* **5** — static verification: ``lint`` gains ``--json`` and emits the
  envelope (``results`` = ``{reports: [{name, ok, clean, errors,
  warnings, diagnostics: [{severity, code, message, address}]}],
  failed, waived}``); the new ``verify-static`` command emits
  ``results`` = ``{rows: [...], suite: {executions, hits, hit_rate}}``
  where each row carries the dynamic-weighted heuristic hit rate, a
  per-heuristic breakdown, and predicted-vs-measured working-set and
  conflict-edge scores (see
  :mod:`repro.eval.static_compare.VerifyStaticRow`).
* **6** — pluggable simulation backends: ``run``/``profile``/
  ``experiment`` accept ``--backend {interp,superblock}`` and their
  ``params`` gain a ``backend`` field (the resolved backend name; the
  engine folds the same name into artifact digests and journal
  records, so artifacts from different backends never alias).
* **7** — analysis-as-a-service: the new ``serve`` daemon speaks a
  newline-delimited JSON wire protocol whose every response frame
  carries ``schema_version`` (see :mod:`repro.service.wire`: ``submit``
  streams ``accepted`` → ``completed``/``failed``/``cancelled``/
  ``interrupted`` events; rejections are typed —
  ``service_overloaded``/``quota_exceeded`` — never connection drops);
  the new ``loadgen`` command emits a report envelope (``submitted``/
  ``completed``/``shed``/``quota_rejected`` counts, ``jobs_per_second``,
  ``latency`` p50/p99, ``cache_hit_ratio``, ``shed_rate``); run-journal
  records gain a ``v`` format-version field (older records read as v0;
  newer-than-supported journals failed ``experiment --resume`` with a
  typed error naming the offending record, until v11); the
  engine's failure payloads may now carry the ``job_cancelled``/
  ``job_interrupted``/``suite_interrupted`` codes (SIGTERM drain and
  deadline cancellation).
* **8** — benchmark-set registry + distributed sharding: selection-aware
  commands (``run``/``experiment``/``faults``/``loadgen``) accept
  ``--set EXPR`` selector expressions and their ``params`` gain
  ``selection`` (the resolved expression, or None) and ``shard`` (the
  ``K/N`` descriptor, or None); the embedded ``engine`` stats carry the
  same ``shard``/``selection`` fields; ``list`` emits the envelope
  (``results`` = ``{benchmarks, kernels, sets: [{name, members, count,
  default_scale, default_trace_limit, description}]}``); the new
  ``merge-shards`` command emits ``results`` =
  ``{destination, sources, artifacts_copied, artifacts_identical,
  journal_records, benchmarks}``; journal records of sharded runs gain
  ``shard``/``selection`` fields (ignored by older readers); selection
  errors (unknown benchmark/set, malformed shard) exit 2 with the typed
  ``unknown_benchmark``/``unknown_set``/``invalid_selection`` codes and
  a near-miss ``suggestion``.
* **9** — crash-safe shard supervisor: the new ``supervise`` command
  (also reachable as ``experiment --workers N`` until v13) emits
  ``results`` = ``{completed, remaining, failed, lost, interrupted, exhausted,
  seconds, supervisor, merge, shard_events}`` where ``supervisor``
  carries the recovery counters (``workers``, ``restarts``,
  ``reassigned_benchmarks``, ``speculative_runs``/``wins``/``losses``,
  ``lease_expiries``, ``shards_lost``, ``cost_model``) and
  ``shard_events`` lists one typed ``shard_lost`` record per recovered
  worker death; the embedded ``engine`` stats gain a ``cost_model``
  field (``"measured"`` when journal wall-clock medians drove the LPT
  partition, ``"fuel"`` for the static estimate, null unsharded);
  journal ``completed`` records gain ``seconds`` (the learned cost
  model's input); ``merge-shards`` results gain ``journal_skipped``
  and ``warnings`` (damaged journal lines tolerated during a
  partial-shard merge); new failure codes ``shard_lost``/
  ``shard_restarts_exhausted``.
* **10** — one job path through the engine: the embedded ``engine``
  stats drop ``fused_runs`` (the fused profile-and-predict path it
  counted is gone; every job simulates, stores and is replayed).
  Every other key is unchanged.
* **11** — a rerun is a store hit: ``experiment --resume`` is gone, so
  ``experiment`` params drop ``resume`` and the embedded ``engine``
  stats drop the journal-skip counter (finished work now counts as
  ``store_hits``); the ``journal_invalid`` failure code is gone with
  the strict journal read that raised it.  Every other key is
  unchanged.
* **12** — the embedded ``engine`` stats drop ``cost_model``: it was
  null in every CLI envelope, and a shard worker's engine stats never
  leave the worker.  The ``supervise`` report's ``supervisor.cost_model``
  is unchanged, and so is every other key.
* **13** — one supervised path: ``experiment --workers`` is gone
  (``supervise`` is the supervised run), so ``experiment`` params drop
  ``workers`` and its results drop ``supervisor``; ``list`` results'
  ``sets[]`` entries drop ``default_trace_limit``, a set option no set
  declared and no command read.  ``verify-static`` params' ``scale`` is
  now the selected set's declared scale when no ``--scale`` is given
  (0.05 for ``--set smoke``), as for ``experiment``, ``faults`` and
  ``supervise``.  Every other key is unchanged.
* **14** — every run captures its full trace: the event-capture limit
  is gone, so the embedded ``engine`` stats' ``pipeline`` object and the
  ``serve`` daemon's ``pipeline`` frames drop ``truncated``, and a
  ``submit`` frame whose ``trace_limit`` is present and not null is
  rejected with a typed error.  Every other key is unchanged.
* **15** — every typed failure of ``experiment`` emits the envelope
  (exit 1): its results' ``degraded`` object is renamed ``error`` and is
  now present for any error code (``claims_not_met``,
  ``suite_interrupted``, ...), not only ``suite_degraded``.
  ``verify-static`` emits the same ``{error, failures, engine}`` results
  when every benchmark failed, and its params' ``benchmarks`` is the
  resolved list (the whole ``all`` set when no selection is given)
  instead of ``[]``; its results gain ``note``, the "shard owns no
  benchmarks" message or null.  Every other key is unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Dict

#: Bump on backwards-incompatible envelope/payload changes.
SCHEMA_VERSION = 15


def envelope(
    command: str, params: Dict[str, Any], results: Any
) -> Dict[str, Any]:
    """Wrap a command's results in the versioned envelope."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "results": results,
    }


def dump(document: Dict[str, Any]) -> str:
    """Render an envelope as stable, human-inspectable JSON."""
    return json.dumps(document, indent=2, sort_keys=False)


__all__ = ["SCHEMA_VERSION", "dump", "envelope"]
