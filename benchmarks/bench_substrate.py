"""Micro-benchmarks of the substrate's hot paths.

These time the components every experiment leans on: the functional
simulator's dispatch loop, the vectorized interleave analysis, the
greedy clique cover, the colouring allocator, and the PAg trace simulator.
Unlike the table/figure benches these use multiple rounds — they are cheap
and their timing is the point.
"""

import pytest

from repro.allocation.coloring import color_graph
from repro.analysis.conflict_graph import build_conflict_graph
from repro.analysis.working_sets import partition_working_sets
from repro.asm.assembler import assemble
from repro.predictors.simulator import simulate_predictor
from repro.predictors.twolevel import PAgPredictor
from repro.profiling.interleave import profile_trace
from repro.sim.machine import Simulator
from repro.trace.synthetic import make_phased_workload

_LOOP = """
main:
    li t0, 0
    li t2, 100000
loop:
    addi t0, t0, 1
    andi t1, t0, 7
    bnez t1, skip
    addi t3, t3, 1
skip:
    blt t0, t2, loop
    halt
"""


@pytest.fixture(scope="module")
def synthetic_trace():
    workload = make_phased_workload(
        n_phases=10, branches_per_phase=20, iterations=100, seed=5,
        text_span=1 << 20,
    )
    return workload.generate(seed=6)


@pytest.fixture(scope="module")
def synthetic_profile(synthetic_trace):
    return profile_trace(synthetic_trace)


def test_simulator_throughput(benchmark):
    program = assemble(_LOOP)

    def run():
        simulator = Simulator(program)
        return simulator.run(max_instructions=600_000,
                             allow_truncation=False)

    result = benchmark(run)
    assert result.halted


def test_interleave_analysis_throughput(benchmark, synthetic_trace):
    profile = benchmark(lambda: profile_trace(synthetic_trace))
    assert profile.static_branch_count == 200


def test_clique_cover_throughput(benchmark, synthetic_profile):
    graph = build_conflict_graph(synthetic_profile, threshold=50)

    partition = benchmark(lambda: partition_working_sets(graph))
    assert partition.count == 10


def test_coloring_throughput(benchmark, synthetic_profile):
    graph = build_conflict_graph(synthetic_profile, threshold=50)

    result = benchmark(lambda: color_graph(graph, colors=64))
    assert result.cost == 0


def test_pag_simulation_throughput(benchmark, synthetic_trace):
    def run():
        predictor = PAgPredictor.conventional(1024, 12)
        return simulate_predictor(
            predictor, synthetic_trace, track_per_branch=False
        )

    stats = benchmark(run)
    assert stats.branches == len(synthetic_trace)
