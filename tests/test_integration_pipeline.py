"""End-to-end integration: workload -> trace -> profile -> working sets ->
allocation -> predictor, checking the paper's qualitative claims hold on
both the synthetic generator and a real simulated benchmark analog."""

import pytest

from conftest import TEST_THRESHOLD
from repro.allocation.allocator import BranchAllocator
from repro.allocation.classified import ClassifiedBranchAllocator
from repro.allocation.conflict_cost import conventional_cost
from repro.allocation.sizing import required_bht_size
from repro.analysis.conflict_graph import build_conflict_graph
from repro.analysis.working_sets import is_clique, partition_working_sets
from repro.predictors.simulator import simulate_predictor
from repro.predictors.twolevel import InterferenceFreePAg, PAgPredictor
from repro.profiling.interleave import profile_trace
from repro.trace.synthetic import make_phased_workload


def test_full_pipeline_on_synthetic_workload():
    """Ground-truth phases -> recovered working sets -> allocation that
    beats conventional indexing on conflict cost and prediction."""
    workload = make_phased_workload(
        n_phases=12, branches_per_phase=24, iterations=120, seed=21,
        text_span=1 << 20,
    )
    trace = workload.generate(seed=22)
    profile = profile_trace(trace)

    # working sets match the generator's phases
    graph = build_conflict_graph(profile, threshold=50)
    partition = partition_working_sets(graph)
    truth = {
        frozenset(s) for s in workload.ground_truth_working_sets()
    }
    recovered = {frozenset(s) for s in partition.as_pc_sets()}
    assert recovered == truth

    # allocation: far fewer entries than 1024 beat the conventional table
    allocator = BranchAllocator(profile, threshold=50)
    baseline = conventional_cost(allocator.graph, 1024)
    sizing = required_bht_size(allocator, baseline)
    assert sizing.required_size <= 2 * 24

    # prediction: allocated 1024-entry table >= conventional, ~ infinite
    conventional = simulate_predictor(
        PAgPredictor.conventional(1024, 10), trace, track_per_branch=False
    ).misprediction_rate
    allocated = simulate_predictor(
        PAgPredictor.allocated(allocator.allocate(1024).index_map(), 10),
        trace,
        track_per_branch=False,
    ).misprediction_rate
    infinite = simulate_predictor(
        InterferenceFreePAg(10), trace, track_per_branch=False
    ).misprediction_rate
    assert allocated <= conventional + 1e-9
    assert abs(allocated - infinite) < 0.01


def test_full_pipeline_on_simulated_benchmark(engine):
    """The same chain on an actually-simulated assembly workload."""
    artifacts = engine.artifacts("tex")
    profile = artifacts.profile

    graph = build_conflict_graph(profile, threshold=TEST_THRESHOLD)
    partition = partition_working_sets(graph)
    # every working set is a clique and covers all profiled branches
    covered = set()
    for ws in partition.sets:
        assert is_clique(graph, list(ws.members))
        covered |= ws.members
    assert covered == set(graph.nodes())

    # sets are small relative to the static population (paper's Table 2
    # observation)
    assert partition.largest_size < profile.static_branch_count

    allocator = BranchAllocator(profile, threshold=TEST_THRESHOLD)
    baseline = conventional_cost(allocator.graph, 1024)
    sizing = required_bht_size(allocator, baseline)
    assert sizing.required_size < 1024

    classified = ClassifiedBranchAllocator(
        profile, threshold=TEST_THRESHOLD
    )
    sizing4 = required_bht_size(classified, baseline, min_size=3)
    assert sizing4.required_size <= sizing.required_size + 2

    trace = artifacts.trace
    conventional = simulate_predictor(
        PAgPredictor.conventional(1024, 12), trace, track_per_branch=False
    ).misprediction_rate
    allocated = simulate_predictor(
        PAgPredictor.allocated(allocator.allocate(1024).index_map(), 12),
        trace,
        track_per_branch=False,
    ).misprediction_rate
    infinite = simulate_predictor(
        InterferenceFreePAg(12), trace, track_per_branch=False
    ).misprediction_rate
    assert allocated <= conventional + 0.002
    assert abs(allocated - infinite) < 0.01


def test_profile_merging_covers_both_inputs(engine):
    """§5.2: merged profiles cover what either input exercises."""
    from repro.profiling.merge import coverage_against, merge_profiles

    profile_a = engine.profile("ss_a")
    profile_b = engine.profile("ss_b")
    merged = merge_profiles([profile_a, profile_b])
    assert coverage_against(merged, profile_a) == 1.0
    assert coverage_against(merged, profile_b) == 1.0
    # a single-input profile may not fully cover the other input
    assert coverage_against(profile_a, profile_b) <= 1.0


def test_trace_cache_reuse_matches_fresh_run(engine, tmp_path):
    """Disk-cached artifacts reproduce in-memory results exactly."""
    from repro.eval.engine import ExecutionEngine

    cached = ExecutionEngine(
        scale=engine.scale, cache_dir=tmp_path
    )
    first = cached.artifacts("plot")
    again = ExecutionEngine(scale=engine.scale, cache_dir=tmp_path)
    second = again.artifacts("plot")
    assert first.profile.pairs == second.profile.pairs
    assert len(first.trace) == len(second.trace)
