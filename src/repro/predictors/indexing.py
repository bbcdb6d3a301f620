"""BHT index functions — the quantity the paper's technique changes.

A conventional 2-level predictor indexes its first-level table by hashing
the low-order PC bits (:class:`PCModuloIndex`); collisions between hot
branches are exactly the interference the paper attacks.  Branch allocation
replaces that hash with a compiler-produced :class:`StaticIndexMap`.
:class:`XorFoldIndex` is included as a stronger hash baseline for ablations.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from ..isa.program import INSTRUCTION_SIZE


class IndexFunction(abc.ABC):
    """Maps a static branch PC to a first-level table index."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"table size must be positive, got {size}")
        self.size = size

    @abc.abstractmethod
    def index(self, pc: int) -> int:
        """Table index for the branch at *pc* (in ``range(size)``)."""

    def index_distinct(self, unique_pcs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index` over an array of distinct PCs.

        Chunk kernels group events by PC first
        (:func:`repro.predictors.chunked.pc_groups`) and broadcast the
        result back through the grouping's inverse, so the mapping runs
        once per *distinct* PC — exact for every subclass (including
        :class:`StaticIndexMap`'s dictionary lookups) without per-event
        Python calls.
        """
        index = self.index
        return np.fromiter(
            (index(pc) for pc in unique_pcs.tolist()),
            dtype=np.int64,
            count=len(unique_pcs),
        )

    def __call__(self, pc: int) -> int:
        return self.index(pc)


class PCModuloIndex(IndexFunction):
    """Conventional indexing: low-order instruction-address bits.

    The word-offset bits (log2 of the instruction size) are discarded first,
    as in real designs, so consecutive instructions map to consecutive
    entries.
    """

    def __init__(self, size: int, shift: int = INSTRUCTION_SIZE.bit_length() - 1):
        super().__init__(size)
        self.shift = shift

    def index(self, pc: int) -> int:
        return (pc >> self.shift) % self.size


class XorFoldIndex(IndexFunction):
    """Hash baseline: xor-fold all PC bits into the index width."""

    def __init__(self, size: int, shift: int = 2):
        super().__init__(size)
        if size & (size - 1):
            raise ValueError("XorFoldIndex requires a power-of-two size")
        self.shift = shift
        self._bits = size.bit_length() - 1

    def index(self, pc: int) -> int:
        value = pc >> self.shift
        folded = 0
        mask = self.size - 1
        while value:
            folded ^= value & mask
            value >>= self._bits
        return folded


class StaticIndexMap(IndexFunction):
    """Compiler-assigned (branch allocation) indexing.

    The allocator produces an explicit PC -> entry mapping; branches outside
    the mapping (cold branches below the profiling cutoff, or code not
    exercised by the profile run) fall back to conventional PC-modulo
    indexing, mirroring the paper's note that unannotated branches (e.g.
    library code without the ISA extension) are not affected by allocation.
    """

    def __init__(
        self,
        size: int,
        assignment: Dict[int, int],
        fallback: Optional[IndexFunction] = None,
    ) -> None:
        super().__init__(size)
        for pc, entry in assignment.items():
            if not 0 <= entry < size:
                raise ValueError(
                    f"assignment for pc 0x{pc:x} out of range: {entry}"
                )
        self.assignment = dict(assignment)
        self.fallback = fallback if fallback is not None else PCModuloIndex(size)
        if self.fallback.size != size:
            raise ValueError("fallback index size must match table size")

    def index(self, pc: int) -> int:
        entry = self.assignment.get(pc)
        if entry is not None:
            return entry
        return self.fallback.index(pc)

    @property
    def mapped_count(self) -> int:
        """Number of statically assigned branches."""
        return len(self.assignment)
