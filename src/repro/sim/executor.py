"""The instruction interpreter.

:class:`Executor` runs a loaded :class:`~repro.isa.program.Program` against a
:class:`~repro.sim.state.MachineState`.  The hot loop dispatches on the
opcode's integer value with locals cached aggressively — the profiling runs
execute millions of instructions, so this loop is the substrate's only
performance-sensitive code.

Semantics notes:

* arithmetic wraps to signed 32-bit two's complement;
* shift amounts use the low five bits of the operand;
* ``div``/``rem`` truncate toward zero; division by zero yields -1 / the
  dividend (RISC-V convention);
* ``lui rd, k`` loads ``k << 13`` (matching the assembler's ``li``/``la``
  expansion);
* the conditional-branch hook fires once per dynamic conditional branch with
  the pre-branch retired-instruction count — the paper's time stamp.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ReproError
from ..isa.instructions import Instruction, Opcode
from ..isa.program import INSTRUCTION_SIZE, Program
from .hooks import BranchHook
from .state import MachineState, unsigned32, wrap32
from .syscalls import Environment


class SimulationError(ReproError, RuntimeError):
    """Raised when execution leaves the text segment or decodes garbage."""

    code = "simulation_error"


class FuelExhausted(ReproError, RuntimeError):
    """Raised when the instruction budget runs out before the program halts.

    Long-running workloads are *expected* to be stopped this way when the
    harness caps run length (the paper similarly caps runs at 500M
    instructions); callers that treat truncation as normal catch this.
    """

    code = "fuel_exhausted"


class Executor:
    """Executes a program; exposes retired-instruction and branch counts."""

    def __init__(
        self,
        program: Program,
        state: MachineState,
        environment: Environment,
        branch_hook: Optional[BranchHook] = None,
    ) -> None:
        self.program = program
        self.state = state
        self.environment = environment
        self.branch_hook = branch_hook
        self.instruction_count = 0
        self.conditional_branch_count = 0
        self.taken_branch_count = 0

    def flush(self) -> None:
        """Persist what this executor keeps for later processes, once per
        job after its last ``run`` call; the interpreter keeps nothing."""

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until halt or until *max_instructions* are retired.

        Returns:
            The number of instructions retired during this call.

        Raises:
            FuelExhausted: if the budget is exhausted before halting.
            SimulationError: if the PC leaves the text segment.
        """
        state = self.state
        instructions = self.program.instructions
        text_base = self.program.text_base
        text_end = text_base + len(instructions) * INSTRUCTION_SIZE
        regs = state.regs
        memory = state.memory
        env = self.environment
        hook = self.branch_hook
        on_branch = hook.on_branch if hook is not None else None

        count = self.instruction_count
        start_count = count
        budget = max_instructions
        pc = state.pc

        O = Opcode  # local alias for dispatch speed
        while not state.halted and budget > 0:
            if not text_base <= pc < text_end:
                state.pc = pc
                self.instruction_count = count
                raise SimulationError(
                    f"pc 0x{pc:x} outside text segment "
                    f"[0x{text_base:x}, 0x{text_end:x})"
                )
            ins: Instruction = instructions[(pc - text_base) >> 2]
            op = ins.opcode
            next_pc = pc + 4

            if op is O.ADDI:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] + ins.imm)
            elif op is O.ADD:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] + regs[ins.rs2])
            elif op is O.BEQ:
                taken = regs[ins.rs1] == regs[ins.rs2]
                if on_branch is not None:
                    on_branch(pc, pc + ins.imm, taken, count)
                self.conditional_branch_count += 1
                if taken:
                    self.taken_branch_count += 1
                    next_pc = pc + ins.imm
            elif op is O.BNE:
                taken = regs[ins.rs1] != regs[ins.rs2]
                if on_branch is not None:
                    on_branch(pc, pc + ins.imm, taken, count)
                self.conditional_branch_count += 1
                if taken:
                    self.taken_branch_count += 1
                    next_pc = pc + ins.imm
            elif op is O.BLT:
                taken = regs[ins.rs1] < regs[ins.rs2]
                if on_branch is not None:
                    on_branch(pc, pc + ins.imm, taken, count)
                self.conditional_branch_count += 1
                if taken:
                    self.taken_branch_count += 1
                    next_pc = pc + ins.imm
            elif op is O.BGE:
                taken = regs[ins.rs1] >= regs[ins.rs2]
                if on_branch is not None:
                    on_branch(pc, pc + ins.imm, taken, count)
                self.conditional_branch_count += 1
                if taken:
                    self.taken_branch_count += 1
                    next_pc = pc + ins.imm
            elif op is O.BLTU:
                taken = unsigned32(regs[ins.rs1]) < unsigned32(regs[ins.rs2])
                if on_branch is not None:
                    on_branch(pc, pc + ins.imm, taken, count)
                self.conditional_branch_count += 1
                if taken:
                    self.taken_branch_count += 1
                    next_pc = pc + ins.imm
            elif op is O.BGEU:
                taken = unsigned32(regs[ins.rs1]) >= unsigned32(regs[ins.rs2])
                if on_branch is not None:
                    on_branch(pc, pc + ins.imm, taken, count)
                self.conditional_branch_count += 1
                if taken:
                    self.taken_branch_count += 1
                    next_pc = pc + ins.imm
            elif op is O.LW:
                if ins.rd:
                    regs[ins.rd] = memory.load_word(regs[ins.rs1] + ins.imm)
            elif op is O.SW:
                memory.store_word(regs[ins.rs1] + ins.imm, regs[ins.rs2])
            elif op is O.LB:
                if ins.rd:
                    regs[ins.rd] = memory.load_byte(regs[ins.rs1] + ins.imm)
            elif op is O.SB:
                memory.store_byte(regs[ins.rs1] + ins.imm, regs[ins.rs2])
            elif op is O.JAL:
                if ins.rd:
                    regs[ins.rd] = next_pc
                next_pc = pc + ins.imm
            elif op is O.JALR:
                dest = (regs[ins.rs1] + ins.imm) & ~3
                if ins.rd:
                    regs[ins.rd] = next_pc
                next_pc = dest
            elif op is O.SUB:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] - regs[ins.rs2])
            elif op is O.MUL:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] * regs[ins.rs2])
            elif op is O.DIV:
                if ins.rd:
                    divisor = regs[ins.rs2]
                    if divisor == 0:
                        regs[ins.rd] = -1
                    else:
                        quotient = abs(regs[ins.rs1]) // abs(divisor)
                        if (regs[ins.rs1] < 0) != (divisor < 0):
                            quotient = -quotient
                        regs[ins.rd] = wrap32(quotient)
            elif op is O.REM:
                if ins.rd:
                    divisor = regs[ins.rs2]
                    if divisor == 0:
                        regs[ins.rd] = regs[ins.rs1]
                    else:
                        remainder = abs(regs[ins.rs1]) % abs(divisor)
                        if regs[ins.rs1] < 0:
                            remainder = -remainder
                        regs[ins.rd] = wrap32(remainder)
            elif op is O.AND:
                if ins.rd:
                    regs[ins.rd] = regs[ins.rs1] & regs[ins.rs2]
            elif op is O.OR:
                if ins.rd:
                    regs[ins.rd] = regs[ins.rs1] | regs[ins.rs2]
            elif op is O.XOR:
                if ins.rd:
                    regs[ins.rd] = regs[ins.rs1] ^ regs[ins.rs2]
            elif op is O.SLL:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] << (regs[ins.rs2] & 31))
            elif op is O.SRL:
                if ins.rd:
                    regs[ins.rd] = wrap32(
                        unsigned32(regs[ins.rs1]) >> (regs[ins.rs2] & 31)
                    )
            elif op is O.SRA:
                if ins.rd:
                    regs[ins.rd] = regs[ins.rs1] >> (regs[ins.rs2] & 31)
            elif op is O.SLT:
                if ins.rd:
                    regs[ins.rd] = 1 if regs[ins.rs1] < regs[ins.rs2] else 0
            elif op is O.SLTU:
                if ins.rd:
                    regs[ins.rd] = (
                        1
                        if unsigned32(regs[ins.rs1]) < unsigned32(regs[ins.rs2])
                        else 0
                    )
            elif op is O.ANDI:
                if ins.rd:
                    regs[ins.rd] = regs[ins.rs1] & ins.imm
            elif op is O.ORI:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] | ins.imm)
            elif op is O.XORI:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] ^ ins.imm)
            elif op is O.SLLI:
                if ins.rd:
                    regs[ins.rd] = wrap32(regs[ins.rs1] << (ins.imm & 31))
            elif op is O.SRLI:
                if ins.rd:
                    regs[ins.rd] = wrap32(
                        unsigned32(regs[ins.rs1]) >> (ins.imm & 31)
                    )
            elif op is O.SRAI:
                if ins.rd:
                    regs[ins.rd] = regs[ins.rs1] >> (ins.imm & 31)
            elif op is O.SLTI:
                if ins.rd:
                    regs[ins.rd] = 1 if regs[ins.rs1] < ins.imm else 0
            elif op is O.LUI:
                if ins.rd:
                    regs[ins.rd] = wrap32(ins.imm << 13)
            elif op is O.ECALL:
                state.pc = pc  # syscalls may inspect the faulting pc
                env.handle(state)
            elif op is O.HALT:
                state.halted = True
            else:  # pragma: no cover - all opcodes are handled above
                raise SimulationError(f"unhandled opcode {op!r}")

            count += 1
            budget -= 1
            pc = next_pc

        state.pc = pc
        self.instruction_count = count
        if not state.halted and budget == 0:
            raise FuelExhausted(
                f"budget of {max_instructions} instructions exhausted"
            )
        return count - start_count
