"""Cross-suite invariants: properties that must hold for every benchmark
analog, checked at test scale on the session engine."""

import pytest

from conftest import TEST_THRESHOLD
from repro.allocation.allocator import BranchAllocator
from repro.allocation.classified import (
    NOT_TAKEN_ENTRY,
    TAKEN_ENTRY,
    ClassifiedBranchAllocator,
)
from repro.allocation.conflict_cost import conflict_cost, conventional_cost
from repro.analysis.classification import BiasClass, classify_profile
from repro.analysis.conflict_graph import build_conflict_graph
from repro.analysis.working_sets import partition_working_sets
from repro.static_analysis import estimate_conflict_graph, lint_program
from repro.workloads.build import build_workload
from repro.workloads.suite import get_benchmark

# a representative cross-section: big/small, text/binary, search/numeric
BENCHMARKS = ["compress", "gcc", "chess", "pgp", "ss_a"]


@pytest.fixture(scope="module", params=BENCHMARKS)
def artifacts(request, engine):
    return engine.artifacts(request.param)


@pytest.fixture(scope="module")
def built(artifacts, engine):
    return build_workload(get_benchmark(artifacts.name, scale=engine.scale))


def test_profile_accounts_for_every_trace_event(artifacts):
    profile, trace = artifacts.profile, artifacts.trace
    assert profile.dynamic_branch_count == len(trace)
    taken_total = sum(s.taken for s in profile.branches.values())
    assert taken_total == int(trace.taken.sum())


def test_pair_counts_bounded_by_executions(artifacts):
    """Each re-execution of either branch adds at most one to the pair, so
    count(a,b) < executions(a) + executions(b)."""
    profile = artifacts.profile
    for (a, b), count in profile.pairs.items():
        bound = (
            profile.branches[a].executions + profile.branches[b].executions
        )
        assert 0 < count < bound, (hex(a), hex(b))


def test_timestamps_strictly_increase(artifacts):
    import numpy as np

    timestamps = artifacts.trace.timestamps.astype(np.int64)
    assert (np.diff(timestamps) > 0).all()


def test_working_sets_partition_the_graph(artifacts):
    graph = build_conflict_graph(
        artifacts.profile, threshold=TEST_THRESHOLD
    )
    partition = partition_working_sets(graph)
    covered = set()
    for ws in partition.sets:
        assert not (covered & ws.members)
        covered |= ws.members
    assert covered == set(graph.nodes())
    # execution weights in the partition account for every profiled
    # execution of graph nodes
    total_weight = sum(ws.execution_weight for ws in partition.sets)
    assert total_weight == sum(
        graph.node_weight(pc) for pc in graph.nodes()
    )


@pytest.mark.parametrize("bht_size", [64, 256, 1024])
def test_allocation_never_loses_to_conventional(artifacts, bht_size):
    allocator = BranchAllocator(
        artifacts.profile, threshold=TEST_THRESHOLD
    )
    allocated = allocator.allocate(bht_size)
    conventional = conventional_cost(allocator.graph, bht_size)
    assert allocated.cost <= conventional
    # the reported cost is reproducible from the assignment
    assert allocated.cost == conflict_cost(
        allocator.graph, allocated.assignment
    )
    assert all(
        0 <= entry < bht_size for entry in allocated.assignment.values()
    )


def test_classified_allocation_reserves_entries(artifacts):
    profile = artifacts.profile
    allocator = ClassifiedBranchAllocator(
        profile, threshold=TEST_THRESHOLD
    )
    result = allocator.allocate(64)
    classes = classify_profile(profile)
    for pc, entry in result.assignment.items():
        bias = classes.get(pc, BiasClass.MIXED)
        if bias is BiasClass.TAKEN_BIASED:
            assert entry == TAKEN_ENTRY
        elif bias is BiasClass.NOT_TAKEN_BIASED:
            assert entry == NOT_TAKEN_ENTRY
        else:
            assert entry >= 2


def test_every_benchmark_lints_clean(built):
    """Static verifier invariant: no analog ships with unreachable code,
    branches into data, fallthrough off text, or undefined-register reads."""
    report = lint_program(built.program)
    assert report.clean, report.render()


def test_static_graph_covers_every_profiled_branch(artifacts, built):
    """Every branch the simulator actually executed is a node of the
    static estimate (the static CFG misses nothing the trace visits)."""
    static_graph = estimate_conflict_graph(
        built.program, threshold=TEST_THRESHOLD
    )
    static_nodes = set(static_graph.nodes())
    profiled = set(artifacts.profile.branches)
    assert profiled <= static_nodes
    # and the estimate stays within the program's static branches
    assert static_nodes == set(
        built.program.static_conditional_branches()
    )


def test_rerun_is_bit_identical(engine, artifacts):
    """Re-simulating the same benchmark reproduces the trace exactly."""
    import numpy as np

    from repro.eval.engine import ExecutionEngine

    fresh = ExecutionEngine(scale=engine.scale)
    again = fresh.artifacts(artifacts.name)
    assert np.array_equal(again.trace.pcs, artifacts.trace.pcs)
    assert np.array_equal(again.trace.taken, artifacts.trace.taken)
    assert again.profile.pairs == artifacts.profile.pairs
