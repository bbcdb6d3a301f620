"""Distributed suite sharding: partition a selection, merge shard stores.

A suite run scales out by splitting one resolved benchmark selection
(:func:`repro.workloads.registry.resolve_selection`) across N engine
processes — on one host or many — and unioning their stores afterwards:

1. every host runs the *same* selector with ``--shard K/N``; the
   partition is a pure function of (selection, N, scale), so the hosts
   agree on who owns what without coordinating;
2. each host's engine simulates only its shard, journaling results with
   the shard tag, into a shared artifact store or a private one;
3. :func:`merge_shards` (``repro merge-shards``) unions private stores
   into one suite store, byte-verifying any artifact two shards both
   produced (same content-addressed name, differing bytes is a
   :class:`~repro.errors.ShardConflict`, never silently resolved).

Because the store is content-addressed and job tags do **not** include
the shard (sharding decides *where* a job runs, not *what* it computes),
a merged N-shard run is byte-identical to an unsharded run of the same
selection — the acceptance property ``tests/test_shards.py`` pins down.

The partition balances estimated cost, not benchmark count: the suite's
per-benchmark fuel budgets (:func:`repro.workloads.registry.estimated_cost`)
feed an LPT (longest-processing-time) greedy assignment, with a stable
content hash of the benchmark name breaking cost ties so reordering the
input never changes the result.

Fuel is a *static* estimate, and data-dependent work makes it a poor
proxy (the straggler lesson of the branch-avoiding-graph-algorithms
line of work, applied at the systems layer).  When a coordinating
process owns the partition — the :mod:`repro.eval.supervisor` — it
feeds :func:`partition_selection` *measured* per-benchmark wall-clock
medians learned from the run journal (:func:`measured_costs`), falling
back to fuel for never-run benchmarks.  Manual cross-host ``--shard
K/N`` runs stay on pure fuel: independent hosts with divergent local
journals must agree on the partition without coordinating.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SelectionError, ShardConflict
from ..workloads.registry import estimated_cost

__all__ = [
    "MergeReport",
    "ShardSpec",
    "measured_costs",
    "merge_shards",
    "partition_selection",
    "shard_names",
]

#: artifact suffixes a store entry is made of; ``.meta.json`` commits the
#: entry, so merges copy it last (same ordering the store's atomic put
#: uses).
_ARTIFACT_SUFFIXES = (".trace.npz", ".meta.json")

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity in an N-way partitioned run.

    Attributes:
        index: 1-based shard number (the K in ``K/N``).
        total: shard count (the N in ``K/N``).
    """

    index: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise SelectionError(
                f"shard count must be >= 1, got {self.total}",
                shard=f"{self.index}/{self.total}",
            )
        if not 1 <= self.index <= self.total:
            raise SelectionError(
                f"shard index must be in 1..{self.total}, got {self.index}",
                shard=f"{self.index}/{self.total}",
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``K/N`` (e.g. ``1/2``).

        Raises:
            SelectionError: malformed text or out-of-range K/N.
        """
        match = _SHARD_RE.match(text.strip())
        if match is None:
            raise SelectionError(
                f"shard must look like K/N (e.g. 1/2), got {text!r}",
                shard=text,
            )
        return cls(index=int(match.group(1)), total=int(match.group(2)))

    @property
    def tag(self) -> str:
        """The canonical ``K/N`` form (journal records, envelopes)."""
        return f"{self.index}/{self.total}"

    def __str__(self) -> str:
        return self.tag


def _stable_rank(name: str) -> str:
    """Order-stable tiebreak: content hash of the benchmark name."""
    return hashlib.sha256(name.encode("utf-8")).hexdigest()


def measured_costs(
    journal,
    scale: float,
    backend: str = "interp",
    recent: int = 5,
) -> Dict[str, float]:
    """benchmark -> median measured wall-clock seconds from *journal*.

    The learned half of the shard cost model: each benchmark's cost is
    the median over its most *recent* completed-simulation records at
    exactly these run parameters (scale, backend — costs
    at other parameters describe different work).  Store/journal hits
    are excluded: only a full simulation measures the benchmark's real
    wall-clock.  Benchmarks with no usable record are simply absent —
    :func:`partition_selection` falls back to fuel for them.

    *journal* is a :class:`~repro.checkpoint.journal.RunJournal`, read
    tolerantly.
    """
    samples: Dict[str, List[float]] = {}
    records, _ = journal.read()
    for record in records:
        if record.get("status") != "completed":
            continue
        if (
            record.get("scale") != scale
            or record.get("backend", "interp") != backend
            or record.get("source") not in ("simulated", "resimulated")
        ):
            continue
        benchmark = record.get("benchmark")
        seconds = record.get("seconds")
        if not isinstance(benchmark, str):
            continue
        if not isinstance(seconds, (int, float)) or seconds <= 0:
            continue
        samples.setdefault(benchmark, []).append(float(seconds))
    costs: Dict[str, float] = {}
    for benchmark, values in samples.items():
        window = sorted(values[-recent:])
        mid = len(window) // 2
        if len(window) % 2:
            costs[benchmark] = window[mid]
        else:
            costs[benchmark] = (window[mid - 1] + window[mid]) / 2.0
    return costs


def _blended_costs(
    unique_names: Sequence[str],
    scale: float,
    costs: Optional[Mapping[str, float]],
) -> Dict[str, float]:
    """Per-name LPT weights: measured seconds, fuel-backed fallback.

    Measured wall-clock and fuel are different units, so mixing them
    raw would let one dominate by magnitude alone.  Fuel-only names are
    converted to pseudo-seconds through the median seconds-per-fuel
    ratio of the measured ones, keeping the two populations comparable;
    with nothing measured the weights are pure fuel.
    """
    fuel = {n: float(estimated_cost(n, scale)) for n in unique_names}
    if not costs:
        return fuel
    measured = {
        n: float(costs[n])
        for n in unique_names
        if isinstance(costs.get(n), (int, float)) and costs[n] > 0
    }
    if not measured:
        return fuel
    ratios = sorted(
        measured[n] / fuel[n] for n in measured if fuel[n] > 0
    )
    ratio = ratios[len(ratios) // 2] if ratios else 1.0
    return {
        n: measured.get(n, fuel[n] * ratio) for n in unique_names
    }


def partition_selection(
    names: Sequence[str],
    total: int,
    scale: float = 1.0,
    costs: Optional[Mapping[str, float]] = None,
) -> List[Tuple[str, ...]]:
    """Partition *names* into *total* cost-balanced shards.

    LPT greedy: benchmarks are assigned most-expensive-first to the
    least-loaded shard.  The result is a pure function of the name *set*,
    *total*, *scale* and *costs* — input order never matters, so
    independent hosts resolve the same partition without coordinating
    (which is also why cross-host ``--shard K/N`` runs must all pass the
    same *costs*, i.e. in practice none).  Each shard's names come back
    in the order they appear in *names*.

    Args:
        names: the resolved selection.
        total: shard count.
        scale: workload scale (fuel estimates scale with it).
        costs: optional measured per-benchmark wall-clock
            (:func:`measured_costs`); names it covers are weighted by
            measurement, the rest by a fuel-backed fallback in the same
            unit (see :func:`_blended_costs`).

    Raises:
        SelectionError: non-positive *total*.
        UnknownBenchmark: a name the registry does not know.
    """
    if total < 1:
        raise SelectionError(f"shard count must be >= 1, got {total}")
    order = {name: position for position, name in enumerate(names)}
    unique = list(dict.fromkeys(names))
    weight = _blended_costs(unique, scale, costs)
    by_cost = sorted(
        unique, key=lambda n: (-weight[n], _stable_rank(n))
    )
    loads = [0.0] * total
    bins: List[List[str]] = [[] for _ in range(total)]
    for name in by_cost:
        target = min(range(total), key=lambda i: (loads[i], i))
        loads[target] += weight[name]
        bins[target].append(name)
    return [
        tuple(sorted(bin_names, key=order.__getitem__)) for bin_names in bins
    ]


def shard_names(
    names: Sequence[str],
    shard: Optional[ShardSpec],
    scale: float = 1.0,
) -> Tuple[str, ...]:
    """The subset of *names* that *shard* owns (all of them when None)."""
    if shard is None or shard.total == 1:
        return tuple(names)
    return partition_selection(names, shard.total, scale)[shard.index - 1]


@dataclass
class MergeReport:
    """What one :func:`merge_shards` pass did.

    Attributes:
        destination: the merged store root.
        sources: shard store roots that were merged in.
        artifacts_copied: files newly copied into the destination.
        artifacts_identical: files already present, byte-verified equal.
        journal_records: per-source journal records appended.
        journal_skipped: damaged journal lines skipped across all
            sources (torn tails from shards that died mid-append,
            mid-file garbage) — each one is named in ``warnings``.
        warnings: human-readable ``path:line: ...`` messages for every
            tolerated journal defect.
        benchmarks: the benchmarks with a committed entry in the
            destination (the ``benchmark`` field of every ``.meta.json``
            that parses).
    """

    destination: str
    sources: List[str] = field(default_factory=list)
    artifacts_copied: int = 0
    artifacts_identical: int = 0
    journal_records: Dict[str, int] = field(default_factory=dict)
    journal_skipped: int = 0
    warnings: List[str] = field(default_factory=list)
    benchmarks: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "destination": self.destination,
            "sources": list(self.sources),
            "artifacts_copied": self.artifacts_copied,
            "artifacts_identical": self.artifacts_identical,
            "journal_records": dict(self.journal_records),
            "journal_skipped": self.journal_skipped,
            "warnings": list(self.warnings),
            "benchmarks": list(self.benchmarks),
        }


def _artifact_files(root: Path) -> List[Path]:
    """Store entry files in *root*, metas last within stable name order.

    Only top-level artifact files count: ``quarantine/``, ``checkpoints/``,
    ``service/``, ``digests/``, ``.stage-*`` staging droppings and
    advisory ``*.claim`` files are shard-local operational state, not
    suite results.
    """
    files = [
        p
        for p in sorted(root.iterdir())
        if p.is_file() and p.name.endswith(_ARTIFACT_SUFFIXES)
    ]
    return sorted(files, key=lambda p: (p.name.endswith(".meta.json"), p.name))


def merge_shards(
    sources: Sequence[Path],
    destination: Path,
) -> MergeReport:
    """Union shard artifact stores + journals into *destination*.

    Idempotent and conflict-checked: an artifact already present in the
    destination (or produced by several shards — overlap is legal, the
    store is content-addressed) is byte-compared, never overwritten.  A
    source that *is* the destination (shared-store deployment) copies
    nothing; its journal is only read for damage warnings.  The census
    (:attr:`MergeReport.benchmarks`) lists the destination's committed
    entries, never the journal's records.

    Partial shards merge, they do not abort: a source journal with a
    torn tail (the shard died mid-append) or mid-file garbage has the
    damaged lines skipped with a warning naming ``path:line`` (see
    :meth:`RunJournal.read`) and :attr:`MergeReport.journal_skipped`
    counts them.  The dead
    shard's *completed* records still merge; only the torn ones are
    lost, and they were never durable to begin with.

    Raises:
        ShardConflict: same artifact filename, differing bytes — one
            shard host ran divergent code or suffered corruption; the
            merge stops without papering over it.
        SelectionError: no sources given.
    """
    from ..checkpoint.journal import RunJournal

    if not sources:
        raise SelectionError("merge-shards needs at least one source store")
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    report = MergeReport(destination=str(destination))
    merged_journal = RunJournal(destination)
    for source in sources:
        source = Path(source)
        report.sources.append(str(source))
        if not source.is_dir():
            raise SelectionError(
                f"shard store {source} does not exist", source=str(source)
            )
        same_store = source.resolve() == destination.resolve()
        if not same_store:
            for path in _artifact_files(source):
                target = destination / path.name
                if target.exists():
                    if (
                        path.read_bytes() != target.read_bytes()
                    ):  # pragma: no branch
                        raise ShardConflict(
                            f"artifact {path.name} differs between "
                            f"{source} and {destination}",
                            artifact=path.name,
                            source=str(source),
                            destination=str(destination),
                        )
                    report.artifacts_identical += 1
                    continue
                stage = destination / f".stage-merge-{path.name}"
                shutil.copyfile(path, stage)
                stage.replace(target)
                report.artifacts_copied += 1
        shard_journal = RunJournal(source)
        records, journal_warnings = shard_journal.read()
        report.warnings.extend(journal_warnings)
        report.journal_skipped += len(journal_warnings)
        if not same_store:
            for record in records:
                merged_journal.append(dict(record))
        report.journal_records[str(source)] = len(records)
    report.benchmarks = _stored_benchmarks(destination)
    return report


def _stored_benchmarks(root: Path) -> List[str]:
    """Benchmarks named by *root*'s committed ``.meta.json`` files.

    The meta is an entry's commit record (written last); one that does
    not parse or names no benchmark is not counted.
    """
    names = set()
    for meta in root.glob("[!.]*.meta.json"):
        try:
            name = json.loads(meta.read_text(encoding="utf-8"))["benchmark"]
        except (OSError, ValueError, KeyError, TypeError):
            continue
        if isinstance(name, str) and name:
            names.add(name)
    return sorted(names)
