"""The unified simulation backend API.

Before this module, three call sites constructed executors on their own
terms: :class:`~repro.sim.machine.Simulator` hard-wired the interpreter,
the sliced checkpoint runner built a ``Simulator`` per restore attempt,
and the evaluation engine's job path did the same inside workers.  A
:class:`SimulatorBackend` is the one seam they all share now: it names a
simulation strategy and builds the executor for it, so the interpreter
and the superblock-compiled core are interchangeable everywhere a
simulation starts — ``Simulator(..., backend=...)``, ``run_workload``,
``run_simulation``, ``ExecutionEngine`` and the
``--backend`` CLI flag all resolve through :func:`get_backend`.

Backends must be *semantically indistinguishable*: identical
architectural state, branch-event streams (chunk boundaries included),
counters and artifacts for any program.  The differential property
tests in ``tests/test_sim_backends.py`` enforce this; the engine still
folds the backend name into artifact digests so artifacts produced by
different backends never alias in the content-addressed store.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Protocol, Union, runtime_checkable

from ..isa.program import Program
from .compile import SuperblockExecutor
from .executor import Executor
from .hooks import BranchHook
from .state import MachineState
from .syscalls import Environment


@runtime_checkable
class SimulatorBackend(Protocol):
    """Strategy for executing a loaded program.

    Attributes:
        name: stable identifier — used in CLI flags, JSON envelopes and
            artifact cache keys, so it must never change meaning.
    """

    name: str

    def create_executor(
        self,
        program: Program,
        state: MachineState,
        environment: Environment,
        branch_hook: Optional[BranchHook] = None,
    ) -> Executor:
        """Build the executor that will run *program*."""
        ...


class InterpBackend:
    """The reference instruction-at-a-time interpreter."""

    name = "interp"

    def create_executor(
        self,
        program: Program,
        state: MachineState,
        environment: Environment,
        branch_hook: Optional[BranchHook] = None,
    ) -> Executor:
        return Executor(program, state, environment, branch_hook)


class SuperblockBackend:
    """Superblock-compiled traces with interpreter fallback.

    *code_dir*, when given, is where executors keep compiled code packs
    for later processes (:class:`~repro.sim.compile.CodePack`); the
    registered instance has none and compiles in memory only.
    """

    name = "superblock"

    def __init__(self, code_dir: Optional[Path] = None) -> None:
        self.code_dir = code_dir

    def create_executor(
        self,
        program: Program,
        state: MachineState,
        environment: Environment,
        branch_hook: Optional[BranchHook] = None,
    ) -> Executor:
        return SuperblockExecutor(
            program, state, environment, branch_hook, code_dir=self.code_dir
        )


DEFAULT_BACKEND = "interp"

BACKENDS = {
    backend.name: backend
    for backend in (InterpBackend(), SuperblockBackend())
}


def backend_names() -> list:
    """Registered backend names, in registration order."""
    return list(BACKENDS)


def get_backend(
    backend: Union[str, SimulatorBackend, None],
) -> SimulatorBackend:
    """Resolve a backend name (or pass an instance through).

    Args:
        backend: a registered name, an object satisfying the protocol,
            or None for the default interpreter.

    Raises:
        ValueError: for an unknown name.
    """
    if backend is None:
        return BACKENDS[DEFAULT_BACKEND]
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown simulation backend {backend!r} "
                f"(expected one of: {', '.join(BACKENDS)})"
            ) from None
    if isinstance(backend, SimulatorBackend):
        return backend
    raise ValueError(
        f"unknown simulation backend {backend!r} "
        f"(expected one of: {', '.join(BACKENDS)})"
    )


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "InterpBackend",
    "SimulatorBackend",
    "SuperblockBackend",
    "backend_names",
    "get_backend",
]
