"""Benchmark-set registry and selector algebra (repro.workloads.registry).

Property tests pin down the registry's contract: selector resolution is
deterministic and (for union-only expressions) order-independent, every
set member resolves, and unknown names produce the typed exit-2 errors
with a near-miss suggestion.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SelectionError, UnknownBenchmark, UnknownSet
from repro.workloads.registry import (
    benchmark_sets,
    estimated_cost,
    known_benchmarks,
    members,
    resolve_benchmark,
    resolve_selection,
)

SET_NAMES = sorted(benchmark_sets())

names_or_sets = st.lists(
    st.sampled_from(list(known_benchmarks()) + SET_NAMES),
    min_size=1,
    max_size=6,
)


# -- registry shape ----------------------------------------------------------


def test_every_set_member_is_a_known_benchmark():
    known = set(known_benchmarks())
    for s in benchmark_sets().values():
        assert set(s.members) <= known
        assert len(s.members) == len(set(s.members))  # no duplicates


def test_all_set_is_the_union_in_canonical_order():
    assert members("all") == known_benchmarks()


def test_paper_sets_partition_table1():
    joined = set(members("paper6")) | set(members("unix"))
    assert not set(members("paper6")) & set(members("unix"))
    assert "compress" in joined and "tex" in joined


def test_smoke_set_declares_a_fast_scale():
    assert benchmark_sets()["smoke"].default_scale == pytest.approx(0.05)


def test_estimated_cost_is_positive_and_scales():
    for name in members("smoke"):
        assert estimated_cost(name, 0.05) > 0
        assert estimated_cost(name, 1.0) >= estimated_cost(name, 0.05)


# -- selector algebra --------------------------------------------------------


def test_set_algebra_difference():
    selection = resolve_selection("unix+paper6-gcc")
    assert "gcc" not in selection.names
    assert set(selection.names) == (
        set(members("unix")) | set(members("paper6"))
    ) - {"gcc"}


def test_all_minus_variants():
    selection = resolve_selection("all-variants")
    assert set(selection.names) == set(members("all")) - set(
        members("variants")
    )


def test_comma_is_union():
    assert resolve_selection("plot,pgp").names == resolve_selection(
        "pgp+plot"
    ).names


def test_glob_terms():
    assert resolve_selection("perl_*").names == ("perl_a", "perl_b")
    assert resolve_selection("ss_?").names == ("ss_a", "ss_b")


def test_sequence_form_unions():
    cli_form = resolve_selection(["plot", "pgp", "unix"])
    assert cli_form.names == resolve_selection("plot+pgp+unix").names


def test_difference_applies_left_to_right():
    # removing then re-adding keeps the benchmark
    assert "gcc" in resolve_selection("paper6-gcc+gcc").names
    assert "gcc" not in resolve_selection("paper6+gcc-gcc").names


def test_selection_carries_set_defaults():
    selection = resolve_selection("smoke")
    assert selection.default_scale == pytest.approx(0.05)
    assert selection.sets == ("smoke",)
    # disagreeing sets -> no agreed default
    assert resolve_selection("smoke+unix").default_scale is None
    # pure name selections reference no set
    assert resolve_selection("plot").sets == ()


@settings(max_examples=60, deadline=None)
@given(terms=names_or_sets)
def test_union_resolution_is_deterministic_and_order_independent(terms):
    forward = resolve_selection(terms)
    backward = resolve_selection(list(reversed(terms)))
    again = resolve_selection(terms)
    assert forward.names == backward.names == again.names
    # canonical order: a subsequence of known_benchmarks()
    rank = {n: i for i, n in enumerate(known_benchmarks())}
    positions = [rank[n] for n in forward.names]
    assert positions == sorted(positions)
    assert len(set(forward.names)) == len(forward.names)


@settings(max_examples=60, deadline=None)
@given(terms=names_or_sets)
def test_resolution_matches_naive_set_union(terms):
    expected = set()
    for term in terms:
        expected |= set(
            members(term) if term in benchmark_sets() else (term,)
        )
    assert set(resolve_selection(terms).names) == expected


# -- typed errors ------------------------------------------------------------


def test_unknown_benchmark_suggests_near_miss():
    with pytest.raises(UnknownBenchmark) as excinfo:
        resolve_selection("compresss")
    assert excinfo.value.context["suggestion"] == "compress"
    assert excinfo.value.code == "unknown_benchmark"


def test_unknown_set_suggests_near_miss():
    with pytest.raises(UnknownSet) as excinfo:
        members("tabl2")
    assert excinfo.value.context["suggestion"] == "table2"
    with pytest.raises(UnknownSet):
        resolve_selection("unixx")


def test_glob_matching_nothing_is_typed():
    with pytest.raises(UnknownBenchmark):
        resolve_selection("doom_*")


def test_empty_selection_is_typed():
    with pytest.raises(SelectionError):
        resolve_selection("")
    with pytest.raises(SelectionError):
        resolve_selection("plot-plot")


def test_resolve_benchmark_accepts_aliases_rejects_unknown():
    assert resolve_benchmark("perl") == "perl"
    assert resolve_benchmark("ss_b") == "ss_b"
    with pytest.raises(UnknownBenchmark):
        resolve_benchmark("doom")
