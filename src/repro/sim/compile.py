"""Superblock trace specialization: the compiled simulation core.

The interpreter in :mod:`.executor` dispatches one instruction at a
time through a Python ``elif`` chain — fine for correctness, but the
profiling sweeps retire hundreds of millions of instructions and the
dispatch overhead dominates.  This module removes it for the common
case: at program load, the CFG is partitioned into single-entry traces
(:func:`~repro.static_analysis.superblocks.form_superblocks`), and each
trace is specialized into one generated Python function.  Registers
live in locals, immediates and branch targets are baked in as
constants, and the signed 32-bit wrap is inlined only where an
operation can actually leave the range.

Two region-growing steps make the compiled units large enough that the
per-call overhead stops mattering:

* **self-looping** — when a trace exit targets the trace's own head,
  the generated function loops in place (a ``while True`` with an exact
  fuel guard) instead of returning to the dispatcher, so a hot inner
  loop retires arbitrarily many iterations per call;
* **trace inlining** — a statically-known exit target is always another
  trace head (interior blocks have exactly one predecessor, verified by
  ``verify_cover``), so the successor trace's body is inlined at the
  exit site, up to a per-function size and nesting budget.

Every dynamic control transfer lands either on a trace head or on a
call-return point (``call + 4``); both get compiled entry points, so
the dispatch loop is one dict lookup per compiled region, not per
instruction.  The interpreter remains the fallback — and the semantic
ground truth — for three cases:

* a PC that is not a compiled entry (only possible after restoring a
  checkpoint taken mid-slice, or at a quarantined trace);
* a remaining fuel budget smaller than a region's worst case (a
  compiled region never retires a partial body, so entering it could
  overshoot the budget);
* any program whose CFG or cover cannot be formed.

Branch observation is preserved exactly.  Three specializations of each
region exist, selected by the hook attached to the run:

* ``bus`` — the hook is a plain :class:`~repro.pipeline.bus.BranchEventBus`:
  events are appended straight onto the bus's staged columns, with the
  chunk-flush check after every event so chunk boundaries — and
  therefore checkpoint bytes — are identical to the interpreter's.
  ``stats.events`` is reconciled once per ``run`` call.
* ``hook`` — any other hook: the generated code calls ``on_branch`` per
  event, exactly like the interpreter.
* ``none`` — no hook: no event code is emitted at all.

Nothing is generated up front.  :func:`compile_program` forms the CFG
and the cover and records the entry addresses; an entry's source (and
its worst case) is generated the first time execution reaches it, and
compiled right then.  Most entries of a large program never run, so a
run pays only for the code it executes.  Tables are cached per
``(program image, mode, code dir)`` in a small module-level LRU keyed by
the sha256 of the program image, so repeated runs in one process
generate and compile each entry once.

Across processes, an executor given a ``code_dir`` keeps compiled code
in one :class:`CodePack` file per ``(program image, mode)``, owned by
that directory's table.  Inside a pack, code is looked up by the sha256
of the freshly generated source, so a code-generator edit can never run
stale code: the new source misses and compiles.  A pack starts with the
interpreter's bytecode ``MAGIC_NUMBER`` and a sha256 of its body; a pack
that fails either check (or does not unmarshal) reads as empty and is
rewritten.  A table reads its pack once, when it is created, and writes
it back (temporary file + ``os.replace``) only after a ``run`` call that
compiled something new.

Deliberate non-goal, matching the interpreter's behaviour: an exception
escaping mid-region (memory fault, syscall error) leaves the executor's
counters at the last completed unit of work, exactly as the interpreter
leaves them at the last completed ``run`` slice; both states are
unrecoverable and no artifact is persisted from them.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import threading
from collections import OrderedDict
from importlib.util import MAGIC_NUMBER
from pathlib import Path
from types import CodeType
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from ..pipeline.bus import BranchEventBus
from ..static_analysis.cfg import build_cfg
from ..static_analysis.superblocks import form_superblocks
from .executor import Executor, FuelExhausted
from .hooks import BranchHook
from .state import MachineState, wrap32
from .syscalls import Environment

#: Instructions the interpreter fallback retires per dispatch attempt
#: before control returns to the region table.  Small enough that a
#: restored mid-trace PC reaches the next compiled entry quickly; large
#: enough that the retry loop is not itself a hot path.
FALLBACK_STEP = 64

#: Upper bound on instructions emitted into one generated function
#: (the entry trace plus everything inlined into it).  Also the
#: conservative per-call worst case charged against the fuel budget, so
#: it must stay below MIN_SLICE_INSTRUCTIONS (1024) or finely sliced
#: checkpoint runs would never enter compiled code.
MAX_FN_INSTRUCTIONS = 512

#: Nesting guard for inlining inside side-exit branches (CPython caps
#: block nesting around 100).
MAX_INDENT = 40

#: Compiled program tables kept alive across executors (per mode and
#: code dir).
_CACHE_CAPACITY = 32

O = Opcode

#: ``taken`` predicate per conditional branch opcode, over the local
#: register expressions (registers always hold wrapped int32 values).
_BRANCH_PREDICATES = {
    O.BEQ: "{a} == {b}",
    O.BNE: "{a} != {b}",
    O.BLT: "{a} < {b}",
    O.BGE: "{a} >= {b}",
    O.BLTU: "({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF)",
    O.BGEU: "({a} & 0xFFFFFFFF) >= ({b} & 0xFFFFFFFF)",
}


class _NeedLoop(Exception):
    """First emission pass found an exit back to the entry head."""


def _wrap(expr: str) -> str:
    """Inline signed 32-bit two's-complement wrap of *expr*."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


class _FnEmitter:
    """Generates one compiled entry function (a trace suffix plus
    whatever neighbouring traces fit the inline budget)."""

    def __init__(
        self,
        program: Program,
        positions_of: Dict[int, List[Tuple[int, Instruction]]],
        head_of: Dict[int, int],
        name: str,
        region_index: int,
        offset: int,
        mode: str,
        looping: bool,
    ) -> None:
        self.program = program
        self.positions_of = positions_of
        self.head_of = head_of
        self.name = name
        self.region_index = region_index
        self.offset = offset
        self.mode = mode
        self.looping = looping
        entry_index = positions_of[region_index][offset][0]
        self.entry_address = program.address_of(entry_index)
        self.body: List[str] = []
        self.preload: Set[int] = set()
        self.all_assigned: Set[int] = set()
        self.helpers: Set[Opcode] = set()
        self.emitted = 0
        self.events = 0
        self.degenerate = False

    # -- low-level helpers -----------------------------------------------

    def emit(self, line: str, indent: int) -> None:
        self.body.append("    " * indent + line)

    def reg(self, number: int, assigned: Set[int]) -> str:
        if number == 0:
            return "0"
        if number not in assigned:
            self.preload.add(number)
        return f"r{number}"

    def assign(self, number: int, assigned: Set[int]) -> None:
        assigned.add(number)
        self.all_assigned.add(number)

    def writeback(self, assigned: Set[int], indent: int) -> None:
        """Flush dirty locals to the register file.

        In looping mode the path-scoped *assigned* set is not enough: a
        loop-back ``continue`` carries assignments from earlier
        iterations in locals, so every exit must flush the union of all
        registers the function can assign (a placeholder, expanded once
        emission has seen them all; unassigned ones flush their
        preloaded — hence unchanged — value).
        """
        if self.looping:
            self.emit("__WB__", indent)
            return
        for number in sorted(assigned):
            self.emit(f"regs[{number}] = r{number}", indent)

    def _exit_tuple(self, target: str, k: int, c: int, t: int) -> str:
        if self.looping:
            return f"({target}, _n + {k}, _c + {c}, _k + {t})"
        taken = f"{t} + _tkc" if self.degenerate else str(t)
        return f"({target}, {k}, {c}, {taken})"

    def raw_exit(self, target: str, k: int, c: int, t: int,
                 assigned: Set[int], indent: int) -> None:
        """Write dirty registers back and return to the dispatcher."""
        self.writeback(assigned, indent)
        self.emit(f"return {self._exit_tuple(target, k, c, t)}", indent)

    def event(self, pc: int, target: int, k: int, indent: int) -> None:
        """Emit one branch event (outcome in ``_t``) at position *k*."""
        self.events += 1
        stamp = f"n0 + _n + {k}" if self.looping else f"n0 + {k}"
        if self.mode == "hook":
            self.emit(f"aux({pc}, {target}, _t, {stamp})", indent)
        elif self.mode == "bus":
            self.emit(f"_pcs.append({pc})", indent)
            self.emit(f"_tgl.append({target})", indent)
            self.emit("_tkl.append(_t)", indent)
            self.emit(f"_tsl.append({stamp})", indent)
            # exact chunk boundaries: flush check after *every* event,
            # and re-fetch the staged lists (flush replaces them)
            self.emit("if len(_pcs) >= _ce:", indent)
            self.emit("aux._flush()", indent + 1)
            self.emit("_pcs = aux._pcs", indent + 1)
            self.emit("_tgl = aux._targets", indent + 1)
            self.emit("_tkl = aux._taken", indent + 1)
            self.emit("_tsl = aux._timestamps", indent + 1)

    # -- exits -----------------------------------------------------------

    def static_exit(self, target: int, k: int, c: int, t: int,
                    assigned: Set[int], indent: int,
                    path: Tuple[int, ...]) -> None:
        """Leave for a statically-known address: loop back to the entry,
        inline the successor trace, or return to the dispatcher."""
        if target == self.entry_address:
            if not self.looping:
                raise _NeedLoop
            self.emit(f"_n += {k}", indent)
            if c:
                self.emit(f"_c += {c}", indent)
            if t:
                self.emit(f"_k += {t}", indent)
            self.emit("if _b - _n >= __WORST__:", indent)
            self.emit("continue", indent + 1)
            self.raw_exit(str(target), 0, 0, 0, assigned, indent)
            return
        region = self.head_of.get(target)
        if (
            region is not None
            and target not in path
            and indent < MAX_INDENT
            and self.emitted + len(self.positions_of[region])
            <= MAX_FN_INSTRUCTIONS
        ):
            self.emit_region(
                region, 0, k, c, t, set(assigned), indent,
                path + (target,),
            )
            return
        self.raw_exit(str(target), k, c, t, assigned, indent)

    # -- per-region emission ---------------------------------------------

    def emit_region(self, region_index: int, offset: int, k: int, c: int,
                    t: int, assigned: Set[int], indent: int,
                    path: Tuple[int, ...]) -> None:
        """Emit a trace suffix; every control path ends in an exit."""
        positions = self.positions_of[region_index]
        program = self.program
        last = len(positions) - 1
        for position in range(offset, len(positions)):
            index, ins = positions[position]
            pc = program.address_of(index)
            op = ins.opcode
            following: Optional[int] = None
            if position < last:
                following = program.address_of(positions[position + 1][0])
            self.emitted += 1
            k += 1

            if op in _BRANCH_PREDICATES:
                predicate = _BRANCH_PREDICATES[op].format(
                    a=self.reg(ins.rs1, assigned),
                    b=self.reg(ins.rs2, assigned),
                )
                target = pc + ins.imm
                self.emit(f"_t = {predicate}", indent)
                self.event(pc, target, k - 1, indent)
                c += 1
                if target == pc + 4:
                    # degenerate branch: both directions continue; only
                    # the taken count depends on the outcome
                    self.emit("if _t:", indent)
                    if self.looping:
                        self.emit("_k += 1", indent + 1)
                    else:
                        self.degenerate = True
                        self.emit("_tkc += 1", indent + 1)
                    if following is None:
                        self.static_exit(pc + 4, k, c, t, assigned, indent,
                                         path)
                        return
                elif following is None:  # tail: both directions exit
                    self.emit("if _t:", indent)
                    self.static_exit(target, k, c, t + 1, set(assigned),
                                     indent + 1, path)
                    self.static_exit(pc + 4, k, c, t, assigned, indent, path)
                    return
                elif following == target:  # continue on the taken path
                    self.emit("if not _t:", indent)
                    self.static_exit(pc + 4, k, c, t, set(assigned),
                                     indent + 1, path)
                    t += 1
                else:  # continue on fallthrough; taken is the side exit
                    self.emit("if _t:", indent)
                    self.static_exit(target, k, c, t + 1, set(assigned),
                                     indent + 1, path)
            elif op is O.JAL:
                if ins.rd:
                    self.emit(f"r{ins.rd} = {pc + 4}", indent)
                    self.assign(ins.rd, assigned)
                target = pc + ins.imm
                if following != target:
                    # a call's CFG successor is its *return point* —
                    # dynamically, control always goes to the target
                    self.static_exit(target, k, c, t, assigned, indent, path)
                    return
            elif op is O.JALR:
                # destination before the link write, exactly like the
                # interpreter (matters when rd == rs1)
                self.emit(
                    f"_d = ({self.reg(ins.rs1, assigned)} + {ins.imm}) & -4",
                    indent,
                )
                if ins.rd:
                    self.emit(f"r{ins.rd} = {pc + 4}", indent)
                    self.assign(ins.rd, assigned)
                if following is None:
                    self.raw_exit("_d", k, c, t, assigned, indent)
                    return
                self.emit(f"if _d != {following}:", indent)
                self.raw_exit("_d", k, c, t, assigned, indent + 1)
            elif op is O.ECALL:
                # the environment sees the real machine state: write
                # every dirty register back, point state.pc at the
                # faulting instruction, re-read a0 (the only register a
                # syscall may write)
                self.writeback(assigned, indent)
                self.emit(f"state.pc = {pc}", indent)
                self.emit("env.handle(state)", indent)
                self.emit("r10 = regs[10]", indent)
                self.assign(10, assigned)
                self.emit("if state.halted:", indent)
                self.raw_exit(str(pc + 4), k, c, t, set(assigned),
                              indent + 1)
            elif op is O.HALT:
                self.emit("state.halted = True", indent)
                self.raw_exit(str(pc + 4), k, c, t, assigned, indent)
                return
            else:
                self.straight_line(ins, assigned, indent)
        # the tail fell through: continue at the next address
        index, _ = positions[last]
        self.static_exit(program.address_of(index) + 4, k, c, t, assigned,
                         indent, path)

    def straight_line(self, ins: Instruction, assigned: Set[int],
                      indent: int) -> None:
        op = ins.opcode
        rd, imm = ins.rd, ins.imm
        a = self.reg(ins.rs1, assigned)
        if op is O.SW:
            self.helpers.add(op)
            self.emit(f"_sw({a} + {imm}, {self.reg(ins.rs2, assigned)})",
                      indent)
            return
        if op is O.SB:
            self.helpers.add(op)
            self.emit(f"_sb({a} + {imm}, {self.reg(ins.rs2, assigned)})",
                      indent)
            return
        if not rd:
            return  # x0 writes (and their loads) are skipped entirely
        d = f"r{rd}"
        if op is O.ADDI:
            line = f"{d} = {_wrap(f'{a} + {imm}')}"
        elif op is O.LW:
            self.helpers.add(op)
            line = f"{d} = _lw({a} + {imm})"
        elif op is O.LB:
            self.helpers.add(op)
            line = f"{d} = _lb({a} + {imm})"
        elif op in (O.ADD, O.SUB, O.MUL, O.AND, O.OR, O.XOR, O.SLL, O.SRL,
                    O.SRA, O.SLT, O.SLTU):
            b = self.reg(ins.rs2, assigned)
            if op is O.ADD:
                line = f"{d} = {_wrap(f'{a} + {b}')}"
            elif op is O.SUB:
                line = f"{d} = {_wrap(f'{a} - {b}')}"
            elif op is O.MUL:
                line = f"{d} = {_wrap(f'{a} * {b}')}"
            elif op is O.AND:
                line = f"{d} = {a} & {b}"
            elif op is O.OR:
                line = f"{d} = {a} | {b}"
            elif op is O.XOR:
                line = f"{d} = {a} ^ {b}"
            elif op is O.SLL:
                line = f"{d} = {_wrap(f'{a} << ({b} & 31)')}"
            elif op is O.SRL:
                line = f"{d} = {_wrap(f'({a} & 0xFFFFFFFF) >> ({b} & 31)')}"
            elif op is O.SRA:
                line = f"{d} = {a} >> ({b} & 31)"
            elif op is O.SLT:
                line = f"{d} = 1 if {a} < {b} else 0"
            else:  # SLTU
                line = (
                    f"{d} = 1 if ({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF) "
                    f"else 0"
                )
        elif op is O.ANDI:
            line = f"{d} = {a} & {imm}"
        elif op is O.ORI:
            # or/xor of in-range int32 values stays in range: the
            # interpreter's wrap32 is the identity here
            line = f"{d} = {a} | {imm}"
        elif op is O.XORI:
            line = f"{d} = {a} ^ {imm}"
        elif op is O.SLLI:
            line = f"{d} = {_wrap(f'{a} << {imm & 31}')}"
        elif op is O.SRLI:
            if imm & 31:
                # a 32-bit value shifted right by >= 1 is already in
                # signed range; the wrap would be the identity
                line = f"{d} = ({a} & 0xFFFFFFFF) >> {imm & 31}"
            else:
                line = f"{d} = {a}"
        elif op is O.SRAI:
            line = f"{d} = {a} >> {imm & 31}"
        elif op is O.SLTI:
            line = f"{d} = 1 if {a} < {imm} else 0"
        elif op is O.LUI:
            line = f"{d} = {wrap32(imm << 13)}"
        elif op in (O.DIV, O.REM):
            b = self.reg(ins.rs2, assigned)
            self.emit(f"_v = {b}", indent)
            self.emit("if _v == 0:", indent)
            if op is O.DIV:
                self.emit(f"{d} = -1", indent + 1)
                self.emit("else:", indent)
                self.emit(f"_q = abs({a}) // abs(_v)", indent + 1)
                self.emit(f"if ({a} < 0) != (_v < 0):", indent + 1)
                self.emit("_q = -_q", indent + 2)
                self.emit(f"{d} = {_wrap('_q')}", indent + 1)
            else:
                self.emit(f"{d} = {a}", indent + 1)
                self.emit("else:", indent)
                # |remainder| < |divisor| <= 2**31: always in range
                self.emit(f"_q = abs({a}) % abs(_v)", indent + 1)
                self.emit(f"if {a} < 0:", indent + 1)
                self.emit("_q = -_q", indent + 2)
                self.emit(f"{d} = _q", indent + 1)
            self.assign(rd, assigned)
            return
        else:  # pragma: no cover - every opcode is handled above
            raise NotImplementedError(f"no specialization for {op!r}")
        self.emit(line, indent)
        self.assign(rd, assigned)

    # -- assembly --------------------------------------------------------

    def source(self) -> str:
        indent = 2 if self.looping else 1
        self.emit_region(
            self.region_index, self.offset, 0, 0, 0, set(), indent,
            (self.entry_address,),
        )
        prologue = [f"def {self.name}(regs, memory, env, state, aux, n0, _b):"]
        loads = self.preload | (self.all_assigned if self.looping else set())
        for number in sorted(loads):
            prologue.append(f"    r{number} = regs[{number}]")
        helper_names = {
            O.LW: "_lw = memory.load_word", O.SW: "_sw = memory.store_word",
            O.LB: "_lb = memory.load_byte", O.SB: "_sb = memory.store_byte",
        }
        for op in (O.LW, O.SW, O.LB, O.SB):
            if op in self.helpers:
                prologue.append(f"    {helper_names[op]}")
        if self.mode == "bus" and self.events:
            prologue.append("    _pcs = aux._pcs")
            prologue.append("    _tgl = aux._targets")
            prologue.append("    _tkl = aux._taken")
            prologue.append("    _tsl = aux._timestamps")
            prologue.append("    _ce = aux.chunk_events")
        if self.degenerate:
            prologue.append("    _tkc = 0")
        if self.looping:
            prologue.append("    _n = 0")
            prologue.append("    _c = 0")
            prologue.append("    _k = 0")
            prologue.append("    while True:")
        lines: List[str] = []
        flush = [f"regs[{n}] = r{n}" for n in sorted(self.all_assigned)]
        for line in prologue + self.body:
            stripped = line.lstrip()
            if stripped == "__WB__":
                pad = line[: len(line) - len(stripped)]
                lines.extend(pad + store for store in flush)
            else:
                lines.append(line)
        return "\n".join(lines).replace("__WORST__", str(self.emitted))


def _emit_entry(program, positions_of, head_of, name, region_index, offset,
                mode) -> Tuple[str, int]:
    """Source and worst-case length of one compiled entry point."""
    try:
        emitter = _FnEmitter(program, positions_of, head_of, name,
                             region_index, offset, mode, looping=False)
        return emitter.source(), emitter.emitted
    except _NeedLoop:
        emitter = _FnEmitter(program, positions_of, head_of, name,
                             region_index, offset, mode, looping=True)
        return emitter.source(), emitter.emitted


class TraceTable(dict):
    """Entry byte address -> ``[function or None, worst-case instructions,
    region index, offset]``.

    :func:`compile_program` records every entry with no function and a
    worst case of 0; :meth:`materialize` fills both slots on the entry's
    first execution.  *pack*, when :func:`compiled_table` gives the
    table one, holds the compiled code across processes.
    """

    def __init__(
        self,
        program: Program,
        mode: str,
        positions_of: Dict[int, List[Tuple[int, Instruction]]],
        head_of: Dict[int, int],
    ) -> None:
        super().__init__()
        self.program = program
        self.mode = mode
        self.positions_of = positions_of
        self.head_of = head_of
        self.pack: Optional[CodePack] = None

    def materialize(self, entry: List) -> None:
        """Generate one entry's code and fill its function and worst case."""
        region_index, offset = entry[2], entry[3]
        name = f"_trace_{region_index}_{offset}"
        source, worst = _emit_entry(
            self.program, self.positions_of, self.head_of, name,
            region_index, offset, self.mode,
        )
        if self.pack is None:
            code = _compile_source(source, self.mode)
        else:
            code = self.pack.code(source, self.mode)
        namespace: Dict[str, object] = {}
        exec(code, namespace)  # noqa: S102 - our own generated source
        entry[1] = worst
        entry[0] = namespace[name]


def compile_program(program: Program, mode: str) -> TraceTable:
    """Record every compiled entry point of *program* for hook *mode*.

    Only the CFG, the superblock cover and the entry addresses are
    computed here; each entry's code is generated on first execution.
    Returns an empty table when the CFG or cover cannot be formed; the
    executor then runs entirely on the interpreter fallback.
    """
    if mode not in ("bus", "hook", "none"):
        raise ValueError(f"unknown specialization mode {mode!r}")
    try:
        cfg = build_cfg(program)
        cover = form_superblocks(cfg)
    except Exception:
        return TraceTable(program, mode, {}, {})
    positions_of: Dict[int, List[Tuple[int, Instruction]]] = {}
    head_of: Dict[int, int] = {}
    for region in cover.superblocks:
        positions = [
            (i, program.instructions[i])
            for block_id in region.blocks
            for i in range(
                cfg.blocks[block_id].start, cfg.blocks[block_id].end
            )
        ]
        if not positions:
            continue
        positions_of[region.index] = positions
        head_of[program.address_of(positions[0][0])] = region.index

    table = TraceTable(program, mode, positions_of, head_of)
    for region_index, positions in positions_of.items():
        # dynamic entry offsets: the trace head, plus every post-call
        # point — a call's return lands at call+4, which is mid-trace
        # whenever formation absorbed the return block
        offsets = [0] + [
            p for p in range(1, len(positions))
            if positions[p - 1][1].is_call
        ]
        for offset in offsets:
            address = program.address_of(positions[offset][0])
            table[address] = [None, 0, region_index, offset]
    return table


def _compile_source(source: str, mode: str) -> CodeType:
    """Bytecode for one entry's generated source."""
    return compile(source, f"<superblock:{mode}>", "exec")


class CodePack:
    """The compiled code of one ``(program image, mode)``, on disk.

    The file is ``MAGIC_NUMBER``, the sha256 of the body, then the body:
    a marshalled dict from each entry source's sha256 to its code
    object.  A missing, damaged or foreign file reads as empty.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.codes = self._read(self.path)
        #: True once code was compiled that the file does not hold yet.
        self.dirty = False

    @staticmethod
    def _read(path: Path) -> Dict[str, CodeType]:
        try:
            blob = path.read_bytes()
        except OSError:
            return {}
        head = len(MAGIC_NUMBER) + hashlib.sha256().digest_size
        body = blob[head:]
        if (
            blob[: len(MAGIC_NUMBER)] != MAGIC_NUMBER
            or hashlib.sha256(body).digest() != blob[len(MAGIC_NUMBER):head]
        ):
            return {}
        try:
            codes = marshal.loads(body)
        except (EOFError, ValueError, TypeError):
            return {}
        if not isinstance(codes, dict) or not all(
            type(key) is str and type(code) is CodeType
            for key, code in codes.items()
        ):
            return {}
        return codes

    def code(self, source: str, mode: str) -> CodeType:
        """The code object for *source*: from the pack, else compiled."""
        key = hashlib.sha256(source.encode()).hexdigest()
        code = self.codes.get(key)
        if code is None:
            code = self.codes[key] = _compile_source(source, mode)
            self.dirty = True
        return code

    def flush(self) -> None:
        """Write the pack back if it gained code (atomic replace).

        A pack is only a cache: a directory that cannot be written
        leaves the run unaffected.
        """
        if not self.dirty:
            return
        self.dirty = False
        body = marshal.dumps(self.codes)
        blob = MAGIC_NUMBER + hashlib.sha256(body).digest() + body
        tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass


_code_cache: "OrderedDict[Tuple[str, str, Optional[Path]], TraceTable]" = (
    OrderedDict()
)


def _image_key(program: Program) -> str:
    text, data = program.to_image()
    digest = hashlib.sha256()
    digest.update(text)
    digest.update(program.entry_point.to_bytes(8, "little"))
    digest.update(data)
    return digest.hexdigest()


def compiled_table(
    program: Program, mode: str, code_dir: Optional[Path] = None
) -> TraceTable:
    """The (cached) trace table for *program* and *mode*.

    A table given a *code_dir* owns that directory's :class:`CodePack`,
    so each directory gets its own pack even when another directory's
    table already compiled the same image in this process.
    """
    key = (_image_key(program), mode, code_dir)
    table = _code_cache.get(key)
    if table is None:
        table = compile_program(program, mode)
        if code_dir is not None:
            table.pack = CodePack(Path(code_dir) / f"{key[0]}-{mode}.pack")
        _code_cache[key] = table
        while len(_code_cache) > _CACHE_CAPACITY:
            _code_cache.popitem(last=False)
    else:
        _code_cache.move_to_end(key)
    return table


class SuperblockExecutor(Executor):
    """Drop-in :class:`Executor` running compiled superblock traces.

    Counter attributes, hook contract, exception behaviour and the
    ``run`` return value all match the interpreter; ``run`` merely
    dispatches whole compiled regions when the PC sits on a compiled
    entry and the remaining budget covers the region's worst case, and
    single-steps the inherited interpreter otherwise.

    With a *code_dir*, compiled code is shared with other processes
    through one :class:`CodePack` per ``(program image, mode)`` there.
    """

    def __init__(
        self,
        program: Program,
        state: MachineState,
        environment: Environment,
        branch_hook: Optional[BranchHook] = None,
        code_dir: Optional[Path] = None,
    ) -> None:
        super().__init__(program, state, environment, branch_hook)
        self.code_dir = code_dir
        self._tables: Dict[str, TraceTable] = {}

    def _table(self, mode: str) -> TraceTable:
        table = self._tables.get(mode)
        if table is None:
            table = self._tables[mode] = compiled_table(
                self.program, mode, self.code_dir
            )
        return table

    def run(self, max_instructions: int = 10_000_000) -> int:
        state = self.state
        hook = self.branch_hook
        if hook is None:
            mode, aux = "none", None
        elif type(hook) is BranchEventBus:
            mode, aux = "bus", hook
        else:
            mode, aux = "hook", hook.on_branch
        table = self._table(mode)
        regs = state.regs
        memory = state.memory
        env = self.environment
        get = table.get

        budget = max_instructions
        count = self.instruction_count
        start_count = count
        cond = self.conditional_branch_count
        taken = self.taken_branch_count
        fast_events = 0
        pc = state.pc
        try:
            while not state.halted and budget > 0:
                entry = get(pc)
                if entry is not None and budget >= entry[1]:
                    fn = entry[0]
                    if fn is None:
                        # first execution: generate, then dispatch again
                        # against the entry's real worst case
                        table.materialize(entry)
                        continue
                    pc, executed, dcond, dtaken = fn(
                        regs, memory, env, state, aux, count, budget
                    )
                    count += executed
                    cond += dcond
                    taken += dtaken
                    fast_events += dcond
                    budget -= executed
                else:
                    # off-trace PC (e.g. a mid-trace checkpoint restore)
                    # or a budget smaller than the region's worst case:
                    # let the interpreter make exact forward progress
                    state.pc = pc
                    self.instruction_count = count
                    self.conditional_branch_count = cond
                    self.taken_branch_count = taken
                    try:
                        Executor.run(self, min(budget, FALLBACK_STEP))
                    except FuelExhausted:
                        pass
                    finally:
                        budget -= self.instruction_count - count
                        count = self.instruction_count
                        cond = self.conditional_branch_count
                        taken = self.taken_branch_count
                        pc = state.pc
        finally:
            state.pc = pc
            self.instruction_count = count
            self.conditional_branch_count = cond
            self.taken_branch_count = taken
            if fast_events and mode == "bus":
                # compiled regions append events without touching the
                # bus counter; the interpreter fallback counts its own
                aux.stats.events += fast_events
            if table.pack is not None:
                table.pack.flush()
        if not state.halted and budget == 0:
            raise FuelExhausted(
                f"budget of {max_instructions} instructions exhausted"
            )
        return count - start_count


__all__ = [
    "CodePack",
    "FALLBACK_STEP",
    "MAX_FN_INSTRUCTIONS",
    "SuperblockExecutor",
    "TraceTable",
    "compile_program",
    "compiled_table",
]
