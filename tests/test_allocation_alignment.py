"""Branch alignment transform tests."""

import pytest

from repro.allocation.alignment import align_workload
from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import TraceBuilder
from repro.predictors.simulator import simulate_predictor
from repro.predictors.twolevel import PAgPredictor
from repro.profiling.interleave import profile_trace
from repro.workloads.build import (
    InputSpec,
    KernelCall,
    PhaseSpec,
    WorkloadSpec,
    build_workload,
    run_workload,
)

THRESHOLD = 5


def _trace(built, name):
    """Simulate *built* and capture its branch trace on the event bus."""
    builder = TraceBuilder(name)
    bus = BranchEventBus([builder])
    run_workload(built, branch_hook=bus)
    bus.finish()
    return builder.result


@pytest.fixture(scope="module")
def spec():
    return WorkloadSpec(
        name="align-test",
        phases=(
            PhaseSpec(
                (
                    KernelCall("rle", 0, (60,)),
                    KernelCall("crc", 0, (25,)),
                    KernelCall("fsm", 0, (40,)),
                    KernelCall("sieve", 0, (120,)),
                ),
                iterations=25,
            ),
            PhaseSpec(
                (
                    KernelCall("rle", 1, (40,)),
                    KernelCall("crc", 1, (20,)),
                ),
                iterations=25,
            ),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=1024, seed=9),
        fuel=2_000_000,
    )


@pytest.fixture(scope="module")
def profiled(spec):
    built = build_workload(spec)
    trace = _trace(built, spec.name)
    return built, trace, profile_trace(trace)


def test_kernel_extents_cover_all_instances(profiled):
    built, _, _ = profiled
    extents = built.kernel_extents()
    assert set(extents) == {
        ("rle", 0), ("rle", 1), ("crc", 0), ("crc", 1),
        ("fsm", 0), ("sieve", 0),
    }
    # extents are disjoint and ordered
    spans = sorted(extents.values())
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        assert s1 < e1 <= s2
    # every instance's entry symbol sits at its extent start
    for (kernel, instance), (start, _) in extents.items():
        suffix = "" if instance == 0 else f"_{instance}"
        assert built.program.symbols[f"{kernel}{suffix}"] == start


def test_explicit_pads_control_layout(spec):
    packed = build_workload(spec, explicit_pads={})
    padded = build_workload(spec, explicit_pads={("rle", 0): 100})
    assert len(padded.program) == len(packed.program) + 100


def test_alignment_reduces_or_matches_conflict_cost(spec, profiled):
    _, _, profile = profiled
    result = align_workload(
        spec, profile, bht_size=64, threshold=THRESHOLD
    )
    assert result.aligned_cost <= result.original_cost
    assert result.aligned_cost >= result.intra_unit_cost


def test_aligned_program_behaves_identically(spec, profiled):
    built, _, profile = profiled
    result = align_workload(
        spec, profile, bht_size=64, threshold=THRESHOLD
    )
    original_output = run_workload(built).output
    aligned_output = run_workload(result.aligned).output
    assert original_output == aligned_output


def test_alignment_helps_conventional_predictor(spec, profiled):
    """With a deliberately small BHT the aligned layout mispredicts no
    more than the scattered one under identical conventional hardware."""
    _, trace, profile = profiled
    result = align_workload(
        spec, profile, bht_size=64, threshold=THRESHOLD
    )
    aligned_trace = _trace(result.aligned, "aligned")

    def mispredict(t):
        return simulate_predictor(
            PAgPredictor.conventional(64, 10), t, track_per_branch=False
        ).misprediction_rate

    assert mispredict(aligned_trace) <= mispredict(trace) + 0.01


def test_alignment_validation(spec, profiled):
    _, _, profile = profiled
    with pytest.raises(ValueError):
        align_workload(spec, profile, bht_size=0)
    with pytest.raises(ValueError):
        align_workload(spec, profile, residue_stride=0)


def test_pads_place_units_at_chosen_residues(spec, profiled):
    _, _, profile = profiled
    bht_size = 64
    result = align_workload(
        spec, profile, bht_size=bht_size, threshold=THRESHOLD
    )
    extents = result.aligned.kernel_extents()
    # at least one unit needed a nonzero pad for its residue
    assert any(pad > 0 for pad in result.pads.values())
    # recompute the aligned cost from the actual program layout: it must
    # match the transform's prediction
    from repro.analysis.conflict_graph import build_conflict_graph
    from repro.allocation.conflict_cost import conventional_cost

    # relocate profile pcs onto the aligned layout via extents
    graph = build_conflict_graph(profile, threshold=THRESHOLD)
    aligned_profile = profile_trace(_trace(result.aligned, "aligned"))
    aligned_graph = build_conflict_graph(
        aligned_profile, threshold=THRESHOLD
    )
    actual = conventional_cost(aligned_graph, bht_size)
    assert actual == result.aligned_cost
