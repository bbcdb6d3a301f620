"""Experiment registry: one entry per paper table/figure plus ablations.

Gives the examples and the CLI a uniform way to enumerate and run
everything DESIGN.md's per-experiment index lists.  Every entry declares
the benchmarks it consumes, so :func:`run_experiment` can warm the
:class:`~repro.eval.engine.ExecutionEngine` with one parallel
:meth:`~repro.eval.engine.ExecutionEngine.prefetch` pass before the
(cheap, sequential) analysis code touches individual artifacts.  Nothing
here constructs engines of its own: the caller passes one in.

Failure semantics: a benchmark whose job kept failing (see the engine's
retry/timeout policy) is dropped from the experiment rather than aborting
it — the output is computed over the surviving set and annotated with a
per-benchmark failure report.  Only when *every* benchmark an experiment
needs has failed does :func:`run_experiment` raise
:class:`~repro.errors.SuiteDegraded` (the CLI turns that into a nonzero
exit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError, SuiteDegraded
from ..workloads.registry import members
from . import ablations, figures, tables
from .engine import ExecutionEngine, shard_subset

#: Curated experiment-specific benchmark lists (not registry sets: each
#: is a hand-picked subset sized for one ablation's runtime budget).
_THRESHOLD_BENCHMARKS = ("compress", "gcc", "python")
_PREDICTOR_BENCHMARKS = ("compress", "gcc", "li", "chess")
_HASH_BENCHMARKS = ("gcc", "python", "chess", "gs")
_GROUP_BENCHMARKS = ("compress", "gcc", "tex")
_PAIR_BENCHMARKS = ("perl_a", "perl_b", "ss_a", "ss_b")
_ALIGNMENT_BENCHMARKS = ("gcc", "tex")
_CLIQUE_BENCHMARKS = ("compress", "pgp", "plot", "chess")


@dataclass(frozen=True)
class Experiment:
    """A runnable experiment: produces printable text from an engine.

    Attributes:
        id: registry key (the CLI's ``experiment <id>`` argument).
        paper_artifact: which paper table/figure/section this regenerates.
        description: one-line summary.
        run: the entry point; takes the engine plus the benchmark
            subset to cover (the surviving set after failures are
            dropped) and returns rendered text.
        benchmarks: every benchmark the experiment consumes — prefetched
            in one parallel pass before ``run`` is called.
    """

    id: str
    paper_artifact: str
    description: str
    run: Callable[[ExecutionEngine, Sequence[str]], str]
    benchmarks: Tuple[str, ...] = ()


def _table1(engine: ExecutionEngine, benchmarks: Sequence[str]) -> str:
    return tables.format_table1(tables.run_table1(engine, benchmarks))


def _table2(engine: ExecutionEngine, benchmarks: Sequence[str]) -> str:
    return tables.format_table2(tables.run_table2(engine, benchmarks))


def _table3(engine: ExecutionEngine, benchmarks: Sequence[str]) -> str:
    rows = tables.run_table3(engine, benchmarks)
    return tables.format_sizing_table(
        rows, "Table 3", "(working sets only)"
    )


def _table4(engine: ExecutionEngine, benchmarks: Sequence[str]) -> str:
    rows = tables.run_table4(engine, benchmarks)
    return tables.format_sizing_table(
        rows, "Table 4", "with branch classification"
    )


def _figure3(engine: ExecutionEngine, benchmarks: Sequence[str]) -> str:
    rows = figures.run_figure3(engine, benchmarks)
    return figures.format_figure(
        rows, "Figure 3", "allocation without classification"
    )


def _figure4(engine: ExecutionEngine, benchmarks: Sequence[str]) -> str:
    rows = figures.run_figure4(engine, benchmarks)
    return figures.format_figure(
        rows, "Figure 4", "allocation with classification"
    )


def _ablation_threshold(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    rows = ablations.run_threshold_ablation(engine, list(benchmarks))
    return ablations.format_threshold_ablation(rows)


def _ablation_inputs(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    # pairs survive only whole: both the _a and _b variant must have run
    survivors = set(benchmarks)
    pairs = [
        base
        for base in dict.fromkeys(
            name.rsplit("_", 1)[0] for name in _PAIR_BENCHMARKS
        )
        if f"{base}_a" in survivors and f"{base}_b" in survivors
    ]
    if not pairs:
        raise SuiteDegraded(
            "no complete benchmark input pair survived",
            experiment="ablation_inputs",
        )
    rows = ablations.run_input_sensitivity(engine, pairs=pairs)
    return ablations.format_input_sensitivity(rows)


def _ablation_predictors(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    results = ablations.run_predictor_family(engine, list(benchmarks))
    return ablations.format_predictor_family(results)


def _ablation_hash(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    rows = ablations.run_hash_baseline(engine, list(benchmarks))
    return ablations.format_hash_baseline(rows)


def _ablation_groups(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    from .group_allocation import format_group_ablation, run_group_ablation

    rows = run_group_ablation(engine, list(benchmarks))
    return format_group_ablation(rows)


def _ablation_alignment(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    rows = ablations.run_alignment_ablation(engine, list(benchmarks))
    return ablations.format_alignment_ablation(rows)


def _ablation_history(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    rows = ablations.run_history_sweep(engine, list(benchmarks))
    return ablations.format_history_sweep(rows)


def _static_compare(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    from .static_compare import format_static_compare, run_static_compare

    return format_static_compare(run_static_compare(engine, benchmarks))


def _ablation_cliques(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    rows = ablations.run_clique_definition_ablation(
        engine, list(benchmarks)
    )
    return ablations.format_clique_definition(rows)


def _verify_static(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    from .static_compare import format_verify_static, run_verify_static

    return format_verify_static(run_verify_static(engine, benchmarks))


def _static_compare_benchmarks() -> Tuple[str, ...]:
    from .static_compare import DEFAULT_BENCHMARKS

    return tuple(DEFAULT_BENCHMARKS)


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in [
        Experiment("table1", "Table 1",
                   "benchmarks, input sets, % dynamic branches analyzed",
                   _table1, members("table2")),
        Experiment("table2", "Table 2",
                   "working-set counts and sizes", _table2,
                   members("table2")),
        Experiment("table3", "Table 3",
                   "BHT size required by branch allocation", _table3,
                   members("table34")),
        Experiment("table4", "Table 4",
                   "BHT size required with branch classification", _table4,
                   members("table34")),
        Experiment("figure3", "Figure 3",
                   "misprediction: allocation without classification",
                   _figure3, members("figures")),
        Experiment("figure4", "Figure 4",
                   "misprediction: allocation with classification",
                   _figure4, members("figures")),
        Experiment("ablation_threshold", "§4.2",
                   "edge-threshold sensitivity", _ablation_threshold,
                   _THRESHOLD_BENCHMARKS),
        Experiment("ablation_inputs", "§5.2",
                   "profile input sensitivity + cumulative merge",
                   _ablation_inputs, _PAIR_BENCHMARKS),
        Experiment("ablation_predictors", "context",
                   "predictor family comparison", _ablation_predictors,
                   _PREDICTOR_BENCHMARKS),
        Experiment("ablation_hash", "context",
                   "indexing-scheme conflict cost", _ablation_hash,
                   _HASH_BENCHMARKS),
        Experiment("ablation_groups", "§6 extension",
                   "group-level allocation (bias / history-pattern groups)",
                   _ablation_groups, _GROUP_BENCHMARKS),
        Experiment("ablation_alignment", "§5 alternative",
                   "branch alignment (no ISA change) vs branch allocation",
                   _ablation_alignment, _ALIGNMENT_BENCHMARKS),
        Experiment("ablation_cliques", "§4.1 note",
                   "working-set definition: partition vs maximal cliques",
                   _ablation_cliques, _CLIQUE_BENCHMARKS),
        Experiment("ablation_history", "context",
                   "PAg history-length sweep with/without allocation",
                   _ablation_history, _ALIGNMENT_BENCHMARKS),
        Experiment("static_compare", "§5 extension",
                   "static-estimated vs profiled allocation quality",
                   _static_compare, _static_compare_benchmarks()),
        Experiment("verify_static", "§4/§5 verification",
                   "static heuristics and graph estimates vs profiles",
                   _verify_static, members("all")),
    ]
}


def format_failure_report(failures: Mapping[str, ReproError]) -> str:
    """Render the per-benchmark failure annotation appended to outputs."""
    lines = [f"-- degraded: {len(failures)} benchmark(s) failed --"]
    for name in sorted(failures):
        error = failures[name]
        code = getattr(error, "code", type(error).__name__)
        lines.append(f"  {name}: {code} — {error}")
    return "\n".join(lines)


def _relevant_failures(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> Dict[str, ReproError]:
    failures = engine.failures
    return {name: failures[name] for name in benchmarks if name in failures}


def run_experiment(
    experiment_id: str,
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]] = None,
) -> str:
    """Run one experiment by id (prefetching its benchmarks in parallel).

    Benchmarks whose jobs keep failing are dropped: the experiment runs
    on the surviving set and its output gains a failure report.  A
    sharded engine covers only its deterministic slice of the
    experiment's list; shards that own none of it return a short note
    instead of failing (their neighbours have it covered).

    Args:
        experiment_id: registry key (``repro list`` enumerates them).
        engine: the engine that materialises the artifacts.
        benchmarks: override the experiment's declared benchmark list
            (the CLI's ``--set`` resolves a selector expression to this).

    Raises:
        KeyError: for unknown experiment ids.
        SuiteDegraded: when every benchmark the experiment needs failed.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}"
        )
    experiment = EXPERIMENTS[experiment_id]
    wanted = list(
        benchmarks if benchmarks is not None else experiment.benchmarks
    )
    local = shard_subset(engine, wanted)
    if wanted and not local:
        return (
            f"(shard {engine.shard} owns no benchmarks of {experiment_id}; "
            "nothing to do on this host)"
        )
    survivors = list(engine.prefetch(local))
    failed = _relevant_failures(engine, local)
    if local and not survivors:
        raise SuiteDegraded(
            f"every benchmark of {experiment_id} failed "
            f"({', '.join(sorted(failed))})",
            experiment=experiment_id,
            failures=[
                {"benchmark": name, **error.to_dict()}
                for name, error in sorted(failed.items())
            ],
        )
    output = experiment.run(engine, survivors)
    if failed:
        output = f"{output}\n\n{format_failure_report(failed)}"
    return output


def run_all_experiments(engine: ExecutionEngine) -> List[str]:
    """Run every registered experiment, returning rendered blocks.

    The union of every experiment's benchmark list is prefetched first,
    so the engine simulates the whole suite in one parallel
    pass and each experiment then runs against warm artifacts.  An
    experiment whose entire benchmark set failed renders as a failure
    block; only when *no* benchmark in the union survived does the sweep
    raise :class:`~repro.errors.SuiteDegraded`.
    """
    # union of each experiment's local slice, so a sharded sweep warms
    # exactly the benchmarks the per-experiment runs will consume
    every = [
        name
        for exp in EXPERIMENTS.values()
        for name in shard_subset(engine, exp.benchmarks)
    ]
    if not engine.prefetch(every):
        raise SuiteDegraded(
            "every benchmark in the suite failed",
            failures=[
                {"benchmark": name, **error.to_dict()}
                for name, error in sorted(
                    _relevant_failures(engine, every).items()
                )
            ],
        )
    blocks = []
    for exp in EXPERIMENTS.values():
        try:
            body = run_experiment(exp.id, engine)
        except SuiteDegraded:
            body = format_failure_report(
                _relevant_failures(engine, exp.benchmarks)
            )
        blocks.append(f"== {exp.paper_artifact} ({exp.id}) ==\n{body}")
    return blocks
