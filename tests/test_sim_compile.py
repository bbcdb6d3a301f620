"""Unit tests for the superblock trace compiler itself.

The differential suite (``test_sim_backends.py``) establishes semantic
equivalence; these tests pin the compiler's mechanics: the per-image
code cache, lazy generation, exact fuel accounting across compiled
regions, the interpreter fallback for off-trace program counters, and
the on-disk code packs that carry compiled code across processes.
"""

import pytest

from repro.asm.assembler import assemble
from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import TraceBuilder
from repro.sim import FuelExhausted, Simulator, SuperblockBackend
from repro.sim import compile as compile_mod
from repro.sim.compile import (
    FALLBACK_STEP,
    MAX_FN_INSTRUCTIONS,
    CodePack,
    SuperblockExecutor,
    compile_program,
    compiled_table,
)
from repro.workloads import build_workload, get_benchmark, run_workload

LOOP_SOURCE = """
main:
    li x5, 0
    li x6, 400
loop:
    addi x5, x5, 1
    bne x5, x6, loop
    halt
"""


def test_compiled_table_is_cached_per_image_and_mode():
    program = assemble(LOOP_SOURCE)
    again = assemble(LOOP_SOURCE)
    assert compiled_table(program, "none") is compiled_table(again, "none")
    assert compiled_table(program, "none") is not compiled_table(
        program, "hook"
    )
    other = assemble(LOOP_SOURCE.replace("400", "401"))
    assert compiled_table(other, "none") is not compiled_table(
        program, "none"
    )


def test_entries_materialize_lazily():
    # a program image no other test compiles, so its cached table is new
    program = assemble(LOOP_SOURCE.replace("400", "407"))
    table = compiled_table(program, "none")
    assert table  # the loop has entry points
    for function, worst, *_ in table.values():
        assert function is None and worst == 0  # nothing generated yet
    Simulator(program, backend="superblock").run(allow_truncation=False)
    executed = [entry for entry in table.values() if entry[0] is not None]
    assert executed
    for function, worst, *_ in executed:
        assert 0 < worst <= MAX_FN_INSTRUCTIONS


def test_worst_case_never_overshoots_budget():
    # drive the loop in many tiny budget slices; each slice must retire
    # exactly its budget (FuelExhausted) or halt, never overshoot
    program = assemble(LOOP_SOURCE)
    sim = Simulator(program, backend="superblock")
    retired = 0
    for _ in range(10_000):
        before = sim.executor.instruction_count
        try:
            sim.run(max_instructions=7, allow_truncation=False)
        except FuelExhausted:
            assert sim.executor.instruction_count - before == 7
            retired += 7
        else:
            break
    assert sim.state.halted

    reference = Simulator(program, backend="interp")
    reference.run(allow_truncation=False)
    assert (
        sim.executor.instruction_count == reference.executor.instruction_count
    )
    assert list(sim.state.regs) == list(reference.state.regs)


def test_off_trace_pc_falls_back_to_interpreter():
    # point the resumed PC into the middle of a compiled trace: the
    # dispatcher has no entry there and must interpret its way out
    program = assemble(LOOP_SOURCE)
    table = compiled_table(program, "none")
    sim = Simulator(program, backend="superblock")
    sim.run(max_instructions=10, allow_truncation=True)
    assert isinstance(sim.executor, SuperblockExecutor)
    off_trace = sim.state.pc + 4
    assert off_trace not in table or sim.state.pc in table
    sim.state.pc = off_trace
    sim.run(max_instructions=FALLBACK_STEP, allow_truncation=True)
    # forward progress happened despite the off-trace entry point
    assert sim.executor.instruction_count > 10


def test_unanalyzable_program_runs_on_fallback():
    # an indirect jump straight at entry defeats trace formation for
    # the entry region; execution must still be exact
    source = """
main:
    li x5, 12
    la x6, target
    jalr x0, x6, 0
target:
    addi x5, x5, 30
    halt
"""
    program = assemble(source)
    sim = Simulator(program, backend="superblock")
    sim.run(allow_truncation=False)
    assert sim.state.read(5) == 42
    assert sim.state.halted


def test_compile_program_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown specialization mode"):
        compile_program(assemble(LOOP_SOURCE), "jit")


# -- code packs ----------------------------------------------------------------


@pytest.fixture
def compiles(monkeypatch):
    """Counts fresh ``compile()`` calls; every test starts as a new
    process would, with an empty in-memory table cache."""
    calls = []
    real = compile_mod._compile_source

    def counting(source, mode):
        calls.append(source)
        return real(source, mode)

    monkeypatch.setattr(compile_mod, "_compile_source", counting)
    compile_mod._code_cache.clear()
    yield calls
    compile_mod._code_cache.clear()


def _ijpeg(scale):
    return build_workload(get_benchmark("ijpeg", scale=scale))


def _traced_run(built, code_dir=None):
    """(instructions, trace columns) of one bus-mode superblock run, as
    a fresh process would see it."""
    compile_mod._code_cache.clear()
    builder = TraceBuilder(label="pack")
    bus = BranchEventBus([builder])
    result = run_workload(
        built, branch_hook=bus, backend=SuperblockBackend(code_dir=code_dir)
    )
    bus.finish()
    trace = builder.result
    return result.instructions, tuple(
        column.tobytes()
        for column in (trace.pcs, trace.targets, trace.taken, trace.timestamps)
    )


def _pack_path(code_dir, built, mode="bus"):
    return code_dir / f"{compile_mod._image_key(built.program)}-{mode}.pack"


def test_warm_pack_runs_identically_with_no_new_compiles(tmp_path, compiles):
    code_dir = tmp_path / "code"
    # the scales differ only in fuel: one program image, one pack, and
    # the shorter run executes no entry the longer one did not
    first, second = _ijpeg(0.062), _ijpeg(0.061)
    assert _pack_path(code_dir, first) == _pack_path(code_dir, second)
    _traced_run(first, code_dir)
    assert compiles and _pack_path(code_dir, first).exists()
    cold = _traced_run(second)  # no code dir: a plain cold compile
    del compiles[:]
    warm = _traced_run(second, code_dir)
    assert warm == cold
    assert compiles == []


def _flip(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


def _foreign_magic(path):
    blob = path.read_bytes()
    path.write_bytes(b"\x00\x00\r\n" + blob[4:])


@pytest.mark.parametrize("damage", [_flip, _truncate, _foreign_magic])
def test_damaged_pack_is_recompiled_and_rewritten(tmp_path, compiles, damage):
    code_dir = tmp_path / "code"
    built = _ijpeg(0.061)
    reference = _traced_run(built, code_dir)
    pack = _pack_path(code_dir, built)
    good = CodePack(pack).codes
    assert good
    damage(pack)
    assert CodePack(pack).codes == {}  # reads as empty
    del compiles[:]
    assert _traced_run(built, code_dir) == reference
    assert len(compiles) == len(good)  # everything it ran, recompiled
    assert set(CodePack(pack).codes) == set(good)  # and rewritten


def test_codegen_edit_gets_no_cached_code(tmp_path, compiles, monkeypatch):
    code_dir = tmp_path / "code"
    built = _ijpeg(0.061)
    reference = _traced_run(built, code_dir)
    stale = set(CodePack(_pack_path(code_dir, built)).codes)
    real = compile_mod._emit_entry

    def edited(*args):
        source, worst = real(*args)
        return source + "\n_edited = True", worst

    monkeypatch.setattr(compile_mod, "_emit_entry", edited)
    del compiles[:]
    assert _traced_run(built, code_dir) == reference
    assert len(compiles) == len(stale)
    assert all("_edited = True" in source for source in compiles)
    fresh = set(CodePack(_pack_path(code_dir, built)).codes) - stale
    assert len(fresh) == len(stale)


def test_unwritable_code_dir_leaves_the_run_unaffected(tmp_path, compiles):
    blocker = tmp_path / "code"
    blocker.write_bytes(b"not a directory")
    built = _ijpeg(0.061)
    assert _traced_run(built, blocker) == _traced_run(built)
    assert not list(tmp_path.glob(".*.tmp"))


def test_each_code_dir_gets_its_own_pack(tmp_path, compiles):
    """Two executors in one process with different code dirs: the second
    must not reuse the first one's table and leave its own dir empty."""
    built = build_workload(get_benchmark("plot", scale=0.05))
    runs = []
    for name in ("first", "second"):
        code_dir = tmp_path / name
        builder = TraceBuilder(label=name)
        bus = BranchEventBus([builder])
        result = run_workload(
            built, branch_hook=bus,
            backend=SuperblockBackend(code_dir=code_dir),
        )
        bus.finish()
        runs.append((result.instructions, builder.result.pcs.tobytes()))
        pack = _pack_path(code_dir, built)
        assert pack.exists()
        assert CodePack(pack).codes
    assert runs[0] == runs[1]


def test_a_multi_slice_job_writes_its_pack_once(tmp_path, compiles,
                                                monkeypatch):
    """A checkpointed cold job compiles in many slices but replaces its
    pack once, after the last one, holding everything it compiled."""
    import os

    from repro.checkpoint import CheckpointConfig, CheckpointStore
    from repro.checkpoint.runner import run_simulation

    code_dir = tmp_path / "code"
    built = _ijpeg(0.061)
    pack = _pack_path(code_dir, built)
    replaced = []
    real_replace = os.replace

    def counting_replace(src, dst):
        if str(dst) == str(pack):
            replaced.append(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    compiles_after_slice = []
    outcome = run_simulation(
        built,
        BranchEventBus([TraceBuilder(label="pack")]),
        CheckpointConfig(CheckpointStore(tmp_path / "ckpt"), "ijpeg", 500),
        backend=SuperblockBackend(code_dir=code_dir),
        progress=lambda events: compiles_after_slice.append(len(compiles)),
    )
    assert outcome.checkpoints_written > 1
    slices_that_compiled = sum(
        1 for before, after in zip([0] + compiles_after_slice,
                                   compiles_after_slice)
        if after > before
    )
    assert slices_that_compiled >= 2
    assert len(replaced) == 1
    assert len(CodePack(pack).codes) == len(compiles)
