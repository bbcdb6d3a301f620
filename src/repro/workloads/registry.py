"""Declarative benchmark-set registry and selector algebra.

The single source of truth for *which benchmarks a run covers*.  Every
CLI path, experiment and service endpoint resolves its benchmark
selection here instead of re-implementing comma-splitting or importing
hard-coded tuples: :func:`members` names a set's benchmarks.

Named sets (SPEC2017 ``benchmark_sets.py`` style)::

    paper6    the six SPECint95 analogs (Table 1, top half)
    unix      the UNIX application analogs (Table 1, bottom half)
    table2    the Table 2 row order (paper §4.2)
    table34   the Table 3/4 row order (paper §5, with input variants)
    figures   the benchmarks plotted in Figures 3 and 4
    variants  the _a/_b input-set variant pairs (§5.2)
    smoke     a three-benchmark quick set (default scale 0.05)
    all       every registered selection name, suite order

Selector grammar — an expression of terms combined left to right:

* ``+`` (or ``,``) unions the next term in;
* ``-`` removes the next term;
* a term is a set name, a benchmark name, or a glob over benchmark
  names (``perl_*``, ``ss_?``).

``unix+paper6-gcc`` is every UNIX analog plus the SPECint95 analogs
minus gcc; ``all-variants`` is the suite without the input-variant
pairs.  Resolution is deterministic and, for union-only expressions,
order-independent: members are always emitted in canonical suite order,
deduplicated.  Unknown names raise the typed
:class:`~repro.errors.UnknownBenchmark` / :class:`~repro.errors.UnknownSet`
errors carrying a near-miss ``suggestion``, which the CLI renders as an
exit-2 diagnostic.

Per-set metadata (``default_scale``) gives
callers a sensible run configuration when the user did not pick one,
and :func:`estimated_cost` exposes the suite's fuel budgets so the
shard partitioner (:mod:`repro.eval.shards`) can balance work across
hosts.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SelectionError, UnknownBenchmark, UnknownSet

__all__ = [
    "BenchmarkSet",
    "Selection",
    "benchmark_sets",
    "estimated_cost",
    "known_benchmarks",
    "members",
    "resolve_benchmark",
    "resolve_selection",
]


@dataclass(frozen=True)
class BenchmarkSet:
    """One named, ordered benchmark collection.

    Attributes:
        name: registry key (the selector term).
        members: benchmark names in presentation order; alias names
            (``perl``, ``ss``) are kept as-is, exactly like the legacy
            tuples, so artifact tags and table row labels are unchanged.
        description: one-line summary for ``repro list``.
        default_scale: the scale a run of this set uses when the caller
            does not pick one.
    """

    name: str
    members: Tuple[str, ...]
    description: str
    default_scale: float = 1.0


@dataclass(frozen=True)
class Selection:
    """A resolved benchmark selection.

    Attributes:
        expression: the selector text that produced this selection.
        names: resolved benchmark names in canonical suite order.
        sets: registry sets the expression referenced, in reference
            order (empty for pure name/glob selections).
        default_scale: the referenced sets' agreed default scale, or
            None when no set was referenced / the sets disagree.
    """

    expression: str
    names: Tuple[str, ...]
    sets: Tuple[str, ...] = ()
    default_scale: Optional[float] = None


#: Order used by Table 2 (paper §4.2).
_TABLE2 = (
    "compress", "gcc", "ijpeg", "li", "m88ksim", "perl",
    "chess", "pgp", "plot", "python", "ss",
)

#: Order used by Tables 3 and 4 (paper §5).
_TABLE34 = (
    "chess", "compress", "gcc", "gs", "li", "m88ksim",
    "perl_a", "perl_b", "pgp", "plot", "python", "ss_a", "ss_b", "tex",
)

#: Benchmarks plotted in Figures 3 and 4.
_FIGURES = (
    "compress", "gcc", "ijpeg", "li", "m88ksim", "perl",
    "chess", "gs", "pgp", "plot", "python", "ss", "tex",
)

#: Union in first-seen order.
_ALL = tuple(dict.fromkeys(_TABLE2 + _TABLE34 + _FIGURES))


@lru_cache(maxsize=1)
def benchmark_sets() -> Dict[str, BenchmarkSet]:
    """The registry: set name -> :class:`BenchmarkSet`, insertion order.

    Built lazily (and validated against the suite) on first use; the
    mapping is cached, so treat it as read-only.
    """
    sets = {
        s.name: s
        for s in (
            BenchmarkSet(
                "paper6",
                ("compress", "gcc", "ijpeg", "li", "m88ksim", "perl"),
                "the six SPECint95 analogs (Table 1, top half)",
            ),
            BenchmarkSet(
                "unix",
                ("chess", "gs", "pgp", "plot", "python", "ss", "tex"),
                "the UNIX application analogs (Table 1, bottom half)",
            ),
            BenchmarkSet(
                "table2", _TABLE2, "Table 2 row order (paper §4.2)"
            ),
            BenchmarkSet(
                "table34",
                _TABLE34,
                "Table 3/4 row order (paper §5, input variants split)",
            ),
            BenchmarkSet(
                "figures", _FIGURES, "benchmarks plotted in Figures 3/4"
            ),
            BenchmarkSet(
                "variants",
                ("perl_a", "perl_b", "ss_a", "ss_b"),
                "the _a/_b input-set variant pairs (§5.2)",
            ),
            BenchmarkSet(
                "smoke",
                ("plot", "pgp", "compress"),
                "three quick analogs for demos and fault injection",
                default_scale=0.05,
            ),
            BenchmarkSet(
                "all", _ALL, "every registered selection name, suite order"
            ),
        )
    }
    known = set(known_benchmarks())
    for s in sets.values():
        stray = [m for m in s.members if m not in known]
        if stray:  # registry definition bug: fail loudly at first use
            raise SelectionError(
                f"benchmark set {s.name!r} names unknown benchmarks: "
                f"{stray}",
                set=s.name,
                unknown=stray,
            )
    return sets


@lru_cache(maxsize=1)
def known_benchmarks() -> Tuple[str, ...]:
    """Every resolvable benchmark name, in canonical suite order.

    Alias names (``perl``/``ss`` for the ``_a`` variants) are included:
    they are distinct *selection* names even though they build the same
    workload, exactly as the legacy tuples treated them.
    """
    from .suite import _ALIASES, benchmark_suite

    names = list(benchmark_suite(1.0)) + sorted(_ALIASES)
    # canonical order: the historical ALL order first, stragglers after
    rank = {name: index for index, name in enumerate(_ALL)}
    return tuple(
        sorted(dict.fromkeys(names), key=lambda n: (rank.get(n, len(rank)), n))
    )


def members(set_name: str) -> Tuple[str, ...]:
    """The member tuple of one registered set.

    Raises:
        UnknownSet: for unregistered set names (with a near-miss
            suggestion in the message and context).
    """
    sets = benchmark_sets()
    if set_name not in sets:
        raise UnknownSet(
            _unknown_message("benchmark set", set_name, sorted(sets)),
            set=set_name,
            suggestion=_closest(set_name, sets),
        )
    return sets[set_name].members


def resolve_benchmark(name: str) -> str:
    """Validate one benchmark name, returning it unchanged.

    The single-benchmark counterpart of :func:`resolve_selection`: CLI
    paths that take one positional benchmark route through here so an
    unknown name produces the same typed exit-2 diagnostic (with a
    near-miss suggestion) as a bad selector expression.

    Raises:
        UnknownBenchmark: for unregistered names.
    """
    if name in known_benchmarks():
        return name
    raise UnknownBenchmark(
        _unknown_message("benchmark", name, list(known_benchmarks())),
        benchmark=name,
        suggestion=_closest(name, known_benchmarks()),
    )


#: term separators: ``+`` and ``,`` union, ``-`` differences.
_TOKEN = re.compile(r"([+,\-])")

#: characters that mark a term as a glob pattern.
_GLOB_CHARS = frozenset("*?[")


def resolve_selection(
    selector: Union[str, Sequence[str]],
) -> Selection:
    """Resolve a selector expression to a concrete benchmark selection.

    *selector* is either one expression string (``"unix+paper6-gcc"``,
    ``"table2"``, ``"perl_*"``, ``"plot,pgp"``) or a sequence of terms
    that are unioned (the ``--benchmarks a b c`` CLI form).  Members are
    returned in canonical suite order, deduplicated, so union-only
    expressions resolve order-independently.

    Raises:
        UnknownBenchmark: a term (or glob) matched no benchmark.
        UnknownSet: a term looked like a set name but is not registered.
        SelectionError: a malformed expression, or one that resolves to
            no benchmarks at all.
    """
    if not isinstance(selector, str):
        selector = "+".join(selector)
    expression = selector.strip()
    if not expression:
        raise SelectionError("empty benchmark selector", selector=selector)
    included: set = set()
    referenced_sets: List[str] = []
    op = "+"
    for token in _TOKEN.split(expression):
        token = token.strip()
        if not token:
            continue
        if token in "+,-":
            op = "+" if token in "+," else "-"
            continue
        names = _resolve_term(token, referenced_sets)
        if op == "+":
            included.update(names)
        else:
            included.difference_update(names)
    if not included:
        raise SelectionError(
            f"selector {expression!r} resolves to no benchmarks",
            selector=expression,
        )
    rank = {name: index for index, name in enumerate(known_benchmarks())}
    ordered = tuple(sorted(included, key=rank.__getitem__))
    scale = _agreed(referenced_sets, "default_scale")
    return Selection(
        expression=expression,
        names=ordered,
        sets=tuple(dict.fromkeys(referenced_sets)),
        default_scale=scale,
    )


def estimated_cost(name: str, scale: float = 1.0) -> int:
    """Estimated simulation cost of one benchmark, in fuel units.

    The suite's per-benchmark fuel budget is proportional to the work a
    full run performs, which makes it an honest static cost model for
    balancing shards (:mod:`repro.eval.shards`) without profiling first.

    Raises:
        UnknownBenchmark: for unregistered names.
    """
    from .suite import get_benchmark

    return get_benchmark(resolve_benchmark(name), scale=scale).fuel


# -- internals --------------------------------------------------------------


def _resolve_term(term: str, referenced_sets: List[str]) -> List[str]:
    """One selector term -> benchmark names (set, glob or plain name)."""
    sets = benchmark_sets()
    if term in sets:
        referenced_sets.append(term)
        return list(sets[term].members)
    if _GLOB_CHARS.intersection(term):
        matched = [
            name for name in known_benchmarks() if fnmatchcase(name, term)
        ]
        if not matched:
            raise UnknownBenchmark(
                f"glob {term!r} matches no registered benchmark",
                benchmark=term,
            )
        return matched
    if term in known_benchmarks():
        return [term]
    # Unknown term: decide which typed error by what it is closest to.
    close_set = _closest(term, sets)
    close_name = _closest(term, known_benchmarks())
    if close_set and not close_name:
        raise UnknownSet(
            _unknown_message("benchmark set", term, sorted(sets)),
            set=term,
            suggestion=close_set,
        )
    raise UnknownBenchmark(
        _unknown_message(
            "benchmark", term, list(known_benchmarks()) + sorted(sets)
        ),
        benchmark=term,
        suggestion=close_name or close_set,
    )


def _closest(term: str, candidates: Iterable[str]) -> Optional[str]:
    matches = difflib.get_close_matches(term, list(candidates), n=1)
    return matches[0] if matches else None


def _unknown_message(kind: str, term: str, candidates: List[str]) -> str:
    closest = _closest(term, candidates)
    hint = f" (did you mean {closest!r}?)" if closest else ""
    return f"unknown {kind} {term!r}{hint}"


def _agreed(set_names: Sequence[str], attribute: str):
    """The sets' shared default for *attribute*, or None on disagreement."""
    values = {
        getattr(benchmark_sets()[name], attribute)
        for name in dict.fromkeys(set_names)
    }
    if len(values) == 1:
        return values.pop()
    return None
