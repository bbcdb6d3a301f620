"""High-level simulator facade.

:class:`Simulator` wires together the program loader, machine state,
environment and executor, and exposes the run-level statistics the
experiment harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..isa.program import STACK_TOP, Program
from .api import SimulatorBackend, get_backend
from .executor import FuelExhausted
from .hooks import BranchHook
from .state import MachineState
from .syscalls import Environment

SP = 2  # stack pointer register number


@dataclass(frozen=True)
class RunResult:
    """Summary of one simulation run.

    Attributes:
        instructions: instructions retired.
        conditional_branches: dynamic conditional branch count.
        taken_branches: how many of those were taken.
        halted: True if the program exited on its own; False if the run was
            truncated by the fuel limit.
        exit_code: program exit code (0 when truncated).
        output: bytes written to the output sink.
    """

    instructions: int
    conditional_branches: int
    taken_branches: int
    halted: bool
    exit_code: int
    output: bytes

    @property
    def taken_rate(self) -> float:
        """Fraction of conditional branches that were taken."""
        if self.conditional_branches == 0:
            return 0.0
        return self.taken_branches / self.conditional_branches


class Simulator:
    """Loads a program and runs it with optional branch observation.

    The execution strategy is pluggable: *backend* names a
    :class:`~repro.sim.api.SimulatorBackend` (``"interp"`` or
    ``"superblock"``; the interpreter by default).

    Example::

        sim = Simulator(program, input_data=b"abc")
        result = sim.run(max_instructions=1_000_000)
    """

    def __init__(
        self,
        program: Program,
        input_data: bytes = b"",
        branch_hook: Optional[BranchHook] = None,
        random_seed: int = 0x2545F491,
        backend: Union[str, SimulatorBackend, None] = None,
    ) -> None:
        self.program = program
        self.backend = get_backend(backend)
        self.state = MachineState()
        self.environment = Environment(
            input_data=input_data, random_seed=random_seed
        )
        self.executor = self.backend.create_executor(
            program, self.state, self.environment, branch_hook
        )
        self._load()

    def _load(self) -> None:
        self.state.memory.store_bytes(self.program.data_base, self.program.data)
        self.state.pc = self.program.entry_point
        self.state.write(SP, STACK_TOP)

    def run(
        self, max_instructions: int = 10_000_000, allow_truncation: bool = True
    ) -> RunResult:
        """Run to completion or until the instruction budget is spent.

        Args:
            max_instructions: fuel limit (the paper caps runs similarly).
            allow_truncation: when False, hitting the limit raises
                :class:`~repro.sim.executor.FuelExhausted` instead of
                returning a truncated result.
        """
        try:
            self.executor.run(max_instructions)
        except FuelExhausted:
            if not allow_truncation:
                raise
        finally:
            self.executor.flush()
        return RunResult(
            instructions=self.executor.instruction_count,
            conditional_branches=self.executor.conditional_branch_count,
            taken_branches=self.executor.taken_branch_count,
            halted=self.state.halted,
            exit_code=self.state.exit_code,
            output=bytes(self.environment.output),
        )
