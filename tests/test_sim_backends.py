"""The superblock backend must be indistinguishable from the interpreter.

Three layers of evidence:

* a suite sweep — every benchmark analog runs under both backends
  through a full event pipeline (profiler + chunked trace builder) and
  must produce byte-identical trace columns, profiles, pipeline stats
  and run results;
* hypothesis — random branchy looping programs, where the compiled
  self-loop and trace-inlining paths must match the interpreter's final
  architectural state and event stream exactly;
* the :mod:`repro.sim.api` resolution rules themselves.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import InterleaveConsumer, TraceBuilder
from repro.sim import (
    BACKENDS,
    DEFAULT_BACKEND,
    InterpBackend,
    Simulator,
    SimulatorBackend,
    SuperblockBackend,
    backend_names,
    get_backend,
)
from repro.workloads import build_workload, get_benchmark, members

#: Small scale + a fuel cap keep the sweep fast; truncation is
#: deterministic, so identity on the truncated prefix is just as strong.
SCALE = 0.02
FUEL_CAP = 150_000

#: Two cheap kernels for CI smoke (mirrored by the workflow's
#: backend-differential job).
SMOKE_KERNELS = ("plot", "pgp")


def _pipeline_run(built, backend, chunk_events=None):
    """Run *built* under *backend* with the full fused pipeline."""
    profiler = InterleaveConsumer(label="diff")
    builder = TraceBuilder(label="diff")
    kwargs = {} if chunk_events is None else {"chunk_events": chunk_events}
    bus = BranchEventBus([profiler, builder], **kwargs)
    sim = Simulator(
        built.program,
        input_data=built.input_data,
        branch_hook=bus,
        random_seed=built.spec.random_seed,
        backend=backend,
    )
    result = sim.run(max_instructions=FUEL_CAP)
    bus.finish()
    trace = builder.result
    profile = profiler.result
    profile_doc = json.dumps(
        {
            "branches": {
                pc: [s.executions, s.taken]
                for pc, s in sorted(profile.branches.items())
            },
            "pairs": {
                f"{a}:{b}": count
                for (a, b), count in sorted(profile.pairs.items())
            },
        },
        sort_keys=True,
    )
    stats = bus.stats
    return (
        trace.pcs.tobytes(),
        trace.targets.tobytes(),
        trace.taken.tobytes(),
        trace.timestamps.tobytes(),
        profile_doc,
        (stats.events, stats.delivered, stats.chunk_flushes),
        (
            result.instructions,
            result.conditional_branches,
            result.taken_branches,
            result.halted,
            result.exit_code,
            result.output,
        ),
    )


@pytest.mark.parametrize("kernel", members("all"))
def test_suite_kernel_is_byte_identical(kernel):
    built = build_workload(get_benchmark(kernel, scale=SCALE))
    assert _pipeline_run(built, "interp") == _pipeline_run(
        built, "superblock"
    )


@pytest.mark.parametrize("kernel", SMOKE_KERNELS)
def test_smoke_kernels_with_tiny_chunks(kernel):
    # a 64-event chunk forces thousands of mid-run flushes: the compiled
    # bus mode must hit exactly the interpreter's chunk boundaries
    built = build_workload(get_benchmark(kernel, scale=SCALE))
    assert _pipeline_run(built, "interp", chunk_events=64) == _pipeline_run(
        built, "superblock", chunk_events=64
    )


# -- hypothesis: random branchy looping programs --------------------------

_REGS = list(range(5, 13))
_BRANCH_OPS = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_ALU_OPS = ["add", "sub", "mul", "and", "or", "xor", "sll", "srl", "sra"]

_block = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from(_ALU_OPS),
            st.sampled_from(_REGS),
            st.sampled_from(_REGS),
            st.sampled_from(_REGS),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(_BRANCH_OPS),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
)


def _events(sim_cls, program, backend):
    events = []

    class Recorder:
        def on_branch(self, pc, target, taken, timestamp):
            events.append((pc, target, taken, timestamp))

    sim = sim_cls(program, branch_hook=Recorder(), backend=backend)
    sim.run(max_instructions=200_000)
    return events, list(sim.state.regs), sim.state.pc, sim.state.halted


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(
        st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        min_size=len(_REGS),
        max_size=len(_REGS),
    ),
    blocks=st.lists(_block, min_size=1, max_size=6),
    trip=st.integers(min_value=1, max_value=9),
)
def test_random_branchy_loop_matches_interpreter(seeds, blocks, trip):
    # an outer counted loop (exercising the compiled self-loop path)
    # around blocks of ALU work, each ending in a forward conditional
    # branch that skips the next block
    lines = ["main:"]
    for reg, value in zip(_REGS, seeds):
        lines.append(f"    li x{reg}, {value}")
    lines.append(f"    li x13, {trip}")
    lines.append("loop:")
    for i, (alu, branch, rs1, rs2) in enumerate(blocks):
        lines.append(f"block{i}:")
        for op, rd, a, b in alu:
            lines.append(f"    {op} x{rd}, x{a}, x{b}")
        lines.append(f"    {branch} x{rs1}, x{rs2}, block{i + 1}")
        lines.append(f"    addi x{rs1}, x{rs1}, 1")
    lines.append(f"block{len(blocks)}:")
    lines.append("    addi x13, x13, -1")
    lines.append("    bne x13, x0, loop")
    lines.append("    halt")
    program = assemble("\n".join(lines))

    interp = _events(Simulator, program, "interp")
    superblock = _events(Simulator, program, "superblock")
    assert interp == superblock


# -- backend resolution ----------------------------------------------------


def test_backend_registry():
    assert backend_names() == ["interp", "superblock"]
    assert DEFAULT_BACKEND == "interp"
    assert isinstance(BACKENDS["interp"], InterpBackend)
    assert isinstance(BACKENDS["superblock"], SuperblockBackend)


def test_get_backend_resolution():
    assert get_backend(None).name == "interp"
    assert get_backend("superblock").name == "superblock"
    instance = SuperblockBackend()
    assert get_backend(instance) is instance
    assert isinstance(instance, SimulatorBackend)
    with pytest.raises(ValueError, match="unknown simulation backend"):
        get_backend("jit")
    with pytest.raises(ValueError, match="unknown simulation backend"):
        get_backend(42)


def test_simulator_accepts_backend_instance():
    program = assemble("main:\n    li x5, 7\n    halt")
    sim = Simulator(program, backend=SuperblockBackend())
    sim.run(allow_truncation=False)
    assert sim.state.read(5) == 7
    assert sim.backend.name == "superblock"
