"""Experiment registry: one entry per paper table/figure plus ablations.

Gives the examples and the CLI a uniform way to enumerate and run
everything DESIGN.md's per-experiment index lists.  Nothing here
constructs engines of its own: the caller passes one in.

Which benchmarks an experiment analyses is decided once, by
:func:`select_benchmarks`: the entry's declared list or the caller's
override, cut to this host's shard, prefetched in one parallel pass,
less the benchmarks whose jobs kept failing.  The runners (``run_table2``,
``run_figure3``, the ablations, ...) analyse exactly the names they are
given and never pick a default set, shard or prefetch.

Failure semantics: a benchmark whose job kept failing (see the engine's
retry/timeout policy) is dropped from the experiment rather than aborting
it — the output is computed over the surviving set and annotated with a
per-benchmark failure report.  Only when *every* benchmark an experiment
needs has failed does :func:`select_benchmarks` raise
:class:`~repro.errors.SuiteDegraded` (the CLI turns that into a nonzero
exit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from ..errors import ClaimsNotMet, ReproError, SuiteDegraded
from ..workloads.registry import members
from . import ablations, claims, figures, tables
from .engine import ExecutionEngine
from .shards import shard_names


@dataclass(frozen=True)
class Experiment:
    """A runnable experiment: produces printable text from an engine.

    Attributes:
        id: registry key (the CLI's ``experiment <id>`` argument).
        paper_artifact: which paper table/figure/section this regenerates.
        description: one-line summary.
        run: the entry point; takes the engine plus the benchmarks
            :func:`select_benchmarks` chose, and returns rendered text.
        benchmarks: the experiment's declared list: a registry set, or a
            hand-picked subset sized for one ablation's runtime budget.
        group: names the unit a benchmark is analysed in (e.g. its input
            variant pair); a shard owns whole units.  None: each
            benchmark is its own unit.
    """

    id: str
    paper_artifact: str
    description: str
    run: Callable[[ExecutionEngine, Sequence[str]], str]
    benchmarks: Tuple[str, ...] = ()
    group: Optional[Callable[[str], str]] = None


def _rendered(run: Callable, render: Callable, *title: str) -> Callable:
    """An experiment body: *run*'s rows over the chosen names, rendered."""
    return lambda engine, benchmarks: render(run(engine, benchmarks), *title)


def _claims(engine: ExecutionEngine, benchmarks: Sequence[str]) -> str:
    # each run covers its own set's share of the names chosen for claims
    runs = {"table2": tables.run_table2, "table3": tables.run_table3,
            "table4": tables.run_table4, "figure3": figures.run_figure3,
            "figure4": figures.run_figure4}
    return claims.render_verdicts(claims.judge({
        key: run(engine, [name for name in members(claims.ROW_SETS[key])
                          if name in benchmarks])
        for key, run in runs.items()}))


def _variant_base(name: str) -> str:
    """The benchmark an input variant belongs to (``perl_a`` -> ``perl``)."""
    return name.rsplit("_", 1)[0]


def _ablation_inputs(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    # pairs survive only whole: both the _a and _b variant must have run
    survivors = set(benchmarks)
    pairs = [
        base
        for base in dict.fromkeys(map(_variant_base, benchmarks))
        if f"{base}_a" in survivors and f"{base}_b" in survivors
    ]
    if not pairs:
        raise SuiteDegraded(
            "no complete benchmark input pair survived",
            experiment="ablation_inputs",
        )
    rows = ablations.run_input_sensitivity(engine, pairs=pairs)
    return ablations.format_input_sensitivity(rows)


def _ablation_groups(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    from .group_allocation import format_group_ablation, run_group_ablation

    return format_group_ablation(run_group_ablation(engine, benchmarks))


def _static_compare(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    from .static_compare import format_static_compare, run_static_compare

    return format_static_compare(run_static_compare(engine, benchmarks))


def _verify_static(
    engine: ExecutionEngine, benchmarks: Sequence[str]
) -> str:
    from .static_compare import format_verify_static, run_verify_static

    return format_verify_static(run_verify_static(engine, benchmarks))


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in [
        Experiment("table1", "Table 1",
                   "benchmarks, input sets, % dynamic branches analyzed",
                   _rendered(tables.run_table1, tables.format_table1),
                   members("table2")),
        Experiment("table2", "Table 2",
                   "working-set counts and sizes",
                   _rendered(tables.run_table2, tables.format_table2),
                   members("table2")),
        Experiment("table3", "Table 3",
                   "BHT size required by branch allocation",
                   _rendered(tables.run_table3, tables.format_sizing_table,
                             "Table 3", "(working sets only)"),
                   members("table34")),
        Experiment("table4", "Table 4",
                   "BHT size required with branch classification",
                   _rendered(tables.run_table4, tables.format_sizing_table,
                             "Table 4", "with branch classification"),
                   members("table34")),
        Experiment("figure3", "Figure 3",
                   "misprediction: allocation without classification",
                   _rendered(figures.run_figure3, figures.format_figure,
                             "Figure 3", "allocation without classification"),
                   members("figures")),
        Experiment("figure4", "Figure 4",
                   "misprediction: allocation with classification",
                   _rendered(figures.run_figure4, figures.format_figure,
                             "Figure 4", "allocation with classification"),
                   members("figures")),
        Experiment("claims", "Tables 2-4, Figures 3-4",
                   "the paper's claims, judged at scale 1.0 (exit 1 if "
                   "any fails)", _claims, members("all")),
        Experiment("ablation_threshold", "§4.2",
                   "edge-threshold sensitivity",
                   _rendered(ablations.run_threshold_ablation,
                             ablations.format_threshold_ablation),
                   ("compress", "gcc", "python")),
        Experiment("ablation_inputs", "§5.2",
                   "profile input sensitivity + cumulative merge",
                   _ablation_inputs, members("variants"), _variant_base),
        Experiment("ablation_predictors", "context",
                   "predictor family comparison",
                   _rendered(ablations.run_predictor_family,
                             ablations.format_predictor_family),
                   ("compress", "gcc", "li", "chess")),
        Experiment("ablation_hash", "context",
                   "indexing-scheme conflict cost",
                   _rendered(ablations.run_hash_baseline,
                             ablations.format_hash_baseline),
                   ("gcc", "python", "chess", "gs")),
        Experiment("ablation_groups", "§6 extension",
                   "group-level allocation (bias / history-pattern groups)",
                   _ablation_groups, ("compress", "gcc", "tex")),
        Experiment("ablation_alignment", "§5 alternative",
                   "branch alignment (no ISA change) vs branch allocation",
                   _rendered(ablations.run_alignment_ablation,
                             ablations.format_alignment_ablation),
                   ("gcc", "tex")),
        Experiment("ablation_cliques", "§4.1 note",
                   "working-set definition: partition vs maximal cliques",
                   _rendered(ablations.run_clique_definition_ablation,
                             ablations.format_clique_definition),
                   ("compress", "pgp", "plot", "chess")),
        Experiment("ablation_history", "context",
                   "PAg history-length sweep with/without allocation",
                   _rendered(ablations.run_history_sweep,
                             ablations.format_history_sweep),
                   ("gcc", "tex")),
        Experiment("static_compare", "§5 extension",
                   "static-estimated vs profiled allocation quality",
                   _static_compare, ("compress", "gcc", "ijpeg", "li",
                                     "chess", "python", "tex")),
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


@dataclass(frozen=True)
class Survivors:
    """What is left of a benchmark list on this host.

    Attributes:
        names: the shard's slice of the list that materialised, in list
            order.
        failures: the slice's benchmarks whose jobs kept failing.
        note: set instead when the shard owns none of a non-empty list.
    """

    names: List[str]
    failures: Dict[str, ReproError]
    note: str = ""


def select_benchmarks(
    engine: ExecutionEngine,
    label: str,
    names: Sequence[str],
    group: Optional[Callable[[str], str]] = None,
    **context: Any,
) -> Survivors:
    """Decide which of *names* this host analyses, and materialise them.

    *names* is an experiment's declared list or the caller's override
    (an empty list analyses nothing).  The engine's shard keeps the
    slice of *names* it owns (whole *group* units, each placed by its
    first member); that slice is prefetched in one parallel pass and
    the benchmarks whose jobs kept failing are dropped.  A shard that
    owns none of a non-empty list gets a note instead: its neighbours
    have it covered.

    Raises:
        SuiteDegraded: when every benchmark of the slice failed;
            *context* (e.g. ``experiment=...``) joins the error's.
    """
    wanted = list(dict.fromkeys(names))
    unit = group or (lambda name: name)
    leaders: Dict[str, str] = {}
    for name in wanted:
        leaders.setdefault(unit(name), name)
    owned = set(shard_names(list(leaders.values()), engine.shard, engine.scale))
    local = [name for name in wanted if leaders[unit(name)] in owned]
    if wanted and not local:
        return Survivors([], {}, (
            f"(shard {engine.shard} owns no benchmarks of {label}; "
            "nothing to do on this host)"
        ))
    survivors = list(engine.prefetch(local))
    failed = _relevant_failures(engine, local)
    if local and not survivors:
        raise SuiteDegraded(
            f"every benchmark of {label} failed "
            f"({', '.join(sorted(failed))})",
            failures=[
                {"benchmark": name, **error.to_dict()}
                for name, error in sorted(failed.items())
            ],
            **context,
        )
    return Survivors(survivors, failed)


def run_experiment(
    experiment_id: str,
    engine: ExecutionEngine,
    benchmarks: Optional[Sequence[str]] = None,
) -> str:
    """Run one experiment by id over the names :func:`select_benchmarks`
    chooses.

    Benchmarks whose jobs keep failing are dropped: the experiment runs
    on the surviving set and its output gains a failure report.  A
    sharded engine covers only its slice of the experiment's list;
    shards that own none of it return a short note instead of failing.

    Args:
        experiment_id: registry key (``repro list`` enumerates them).
        engine: the engine that materialises the artifacts.
        benchmarks: override the experiment's declared benchmark list
            (the CLI's ``--set`` resolves a selector expression to this);
            ``[]`` analyses nothing.

    Raises:
        KeyError: for unknown experiment ids.
        SuiteDegraded: when every benchmark the experiment needs failed.
        ClaimsNotMet: from ``claims``: a failed claim or benchmark, a scale
            other than 1.0.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}"
        )
    if experiment_id == "claims" and engine.scale != 1.0:  # before simulating
        raise ClaimsNotMet(f"the paper's claims are judged at scale 1.0, not "
                           f"{engine.scale}", scale=engine.scale)
    experiment = EXPERIMENTS[experiment_id]
    chosen = select_benchmarks(
        engine, experiment_id,
        experiment.benchmarks if benchmarks is None else benchmarks,
        experiment.group,
        experiment=experiment_id,
    )
    if chosen.note:
        return chosen.note
    output = experiment.run(engine, chosen.names)
    if chosen.failures:
        output = f"{output}\n\n{format_failure_report(chosen.failures)}"
    return output


def run_all_experiments(engine: ExecutionEngine) -> List[str]:
    """Run every registered experiment, returning rendered blocks.

    The union of every experiment's benchmark list is selected first, so
    the engine simulates the whole suite in one parallel pass and each
    experiment then runs against warm artifacts (on a sharded engine each
    experiment still covers its own list's slice, as ``experiment <id>
    --shard K/N`` does).
    An experiment whose entire benchmark set failed renders as a failure
    block, failed paper claims as their verdicts; only when *no*
    benchmark in the union survived does the sweep raise
    :class:`SuiteDegraded`.
    """
    suite = [name for exp in EXPERIMENTS.values() for name in exp.benchmarks]
    select_benchmarks(engine, "the suite", suite)
    blocks = []
    for exp in EXPERIMENTS.values():
        try:
            body = run_experiment(exp.id, engine)
        except SuiteDegraded:
            body = format_failure_report(
                _relevant_failures(engine, exp.benchmarks)
            )
        except ClaimsNotMet as exc:
            body = str(exc)
        blocks.append(f"== {exp.paper_artifact} ({exp.id}) ==\n{body}")
    return blocks
