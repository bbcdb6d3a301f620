"""Benchmark-suite structure tests (cheap: specs only, few builds)."""

import pytest

from repro.workloads.build import build_workload
from repro.workloads.registry import members
from repro.workloads.suite import (
    benchmark_names,
    benchmark_suite,
    get_benchmark,
)


def test_suite_contains_all_paper_benchmarks():
    suite = benchmark_suite()
    assert set(suite) == {
        "compress", "gcc", "ijpeg", "li", "m88ksim", "perl_a", "perl_b",
        "chess", "gs", "pgp", "plot", "python", "ss_a", "ss_b", "tex",
    }


def test_table_orders_match_paper():
    table2, table34 = members("table2"), members("table34")
    assert table2[0] == "compress"
    assert table2[1] == "gcc"
    assert len(table2) == 11
    assert len(table34) == 14
    assert "perl_a" in table34 and "perl_b" in table34
    assert len(members("figures")) == 13
    assert set(members("all")) >= set(table2)


def test_aliases_resolve_to_a_variant():
    assert get_benchmark("perl").name == "perl_a"
    assert get_benchmark("ss").name == "ss_a"
    assert get_benchmark("gcc").name == "gcc"


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        get_benchmark("doom")


def test_scale_validation():
    with pytest.raises(ValueError):
        benchmark_suite(scale=0)


def test_scale_changes_iterations_not_structure():
    full = benchmark_suite(1.0)["compress"]
    small = benchmark_suite(0.1)["compress"]
    assert len(full.phases) == len(small.phases)
    assert full.phases[0].calls == small.phases[0].calls
    assert small.phases[0].iterations < full.phases[0].iterations


def test_variants_differ_in_inputs_and_weights():
    suite = benchmark_suite()
    perl_a, perl_b = suite["perl_a"], suite["perl_b"]
    assert perl_a.input != perl_b.input
    assert perl_a.random_seed != perl_b.random_seed
    ss_a, ss_b = suite["ss_a"], suite["ss_b"]
    assert ss_a.phases[0].iterations != ss_b.phases[0].iterations


def test_every_spec_has_description_and_fuel():
    for name, spec in benchmark_suite().items():
        assert spec.description, name
        assert spec.fuel >= 300_000, name
        assert spec.rounds >= 2, name


def test_benchmark_names_variants_toggle():
    with_variants = benchmark_names(include_variants=True)
    without = benchmark_names(include_variants=False)
    assert "perl_a" in with_variants
    assert "perl" in without and "perl_a" not in without


def test_gcc_has_largest_static_branch_population():
    counts = {}
    for name in ("compress", "gcc"):
        built = build_workload(get_benchmark(name, scale=0.1))
        counts[name] = built.static_conditional_branches
    assert counts["gcc"] > counts["compress"] > 50
