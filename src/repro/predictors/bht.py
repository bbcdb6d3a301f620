"""First-level branch history tables.

A BHT entry is a k-bit shift register of recent outcomes for the branches
that map to it.  :class:`BranchHistoryTable` is the finite, index-function-
addressed table the paper studies; :class:`InfiniteBHT` keys histories by
exact PC and never aliases — the "interference free ... 2 million-entry"
configuration of §5.3.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .chunked import PCGroups, grouped_history_patterns, pc_groups
from .indexing import IndexFunction


class BranchHistoryTable:
    """Finite table of k-bit local history registers."""

    __slots__ = ("history_bits", "_mask", "index_fn", "table")

    def __init__(self, index_fn: IndexFunction, history_bits: int) -> None:
        """
        Args:
            index_fn: PC -> entry mapping (conventional or allocated).
            history_bits: history register width; the PHT this feeds must
                have ``2**history_bits`` entries.

        Raises:
            ValueError: on non-positive history width.
        """
        if history_bits <= 0:
            raise ValueError(f"history_bits must be positive: {history_bits}")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self.index_fn = index_fn
        self.table: List[int] = [0] * index_fn.size

    @property
    def size(self) -> int:
        return len(self.table)

    def read(self, pc: int) -> int:
        """Current history pattern for the branch at *pc*."""
        return self.table[self.index_fn.index(pc)]

    def update(self, pc: int, taken: bool) -> None:
        """Shift the branch's outcome into its history register."""
        index = self.index_fn.index(pc)
        self.table[index] = ((self.table[index] << 1) | taken) & self._mask

    def read_and_update(self, pc: int, taken: bool) -> int:
        """Read the pattern then shift in the outcome (one index lookup)."""
        index = self.index_fn.index(pc)
        pattern = self.table[index]
        self.table[index] = ((pattern << 1) | taken) & self._mask
        return pattern

    def read_and_update_chunk(
        self,
        pcs: np.ndarray,
        taken: np.ndarray,
        groups: Optional[PCGroups] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`read_and_update` over an event batch.

        Returns the per-event patterns (register value *before* each
        event) and advances the table, bit-identical to the scalar path —
        including aliasing, since events are grouped by table entry, not
        by PC.  *groups* is the batch's ``(unique_pcs, inverse)`` PC
        grouping when the caller already has it; only the distinct PCs
        are mapped to entries.
        """
        unique_pcs, inverse = pc_groups(pcs, groups)
        unique_entries, entry_group = np.unique(
            self.index_fn.index_distinct(unique_pcs), return_inverse=True
        )
        group_ids = entry_group[inverse]
        entries = unique_entries.tolist()
        table = self.table
        carry_in = np.fromiter(
            (table[entry] for entry in entries),
            dtype=np.int64,
            count=len(entries),
        )
        patterns, carry_out = grouped_history_patterns(
            group_ids, taken, self.history_bits, carry_in
        )
        for entry, register in zip(entries, carry_out.tolist()):
            table[entry] = register
        return patterns

    def reset(self) -> None:
        for i in range(len(self.table)):
            self.table[i] = 0


class InfiniteBHT:
    """Aliasing-free history table: one register per static branch."""

    __slots__ = ("history_bits", "_mask", "table")

    def __init__(self, history_bits: int) -> None:
        if history_bits <= 0:
            raise ValueError(f"history_bits must be positive: {history_bits}")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self.table: Dict[int, int] = {}

    @property
    def size(self) -> int:
        """Number of distinct branches seen so far."""
        return len(self.table)

    def read(self, pc: int) -> int:
        return self.table.get(pc, 0)

    def update(self, pc: int, taken: bool) -> None:
        self.table[pc] = ((self.table.get(pc, 0) << 1) | taken) & self._mask

    def read_and_update(self, pc: int, taken: bool) -> int:
        pattern = self.table.get(pc, 0)
        self.table[pc] = ((pattern << 1) | taken) & self._mask
        return pattern

    def read_and_update_chunk(
        self,
        pcs: np.ndarray,
        taken: np.ndarray,
        groups: Optional[PCGroups] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`read_and_update`; groups are exact PCs."""
        unique_pcs, group_ids = pc_groups(pcs, groups)
        keys = unique_pcs.tolist()
        get = self.table.get
        carry_in = np.fromiter(
            (get(pc, 0) for pc in keys), dtype=np.int64, count=len(keys)
        )
        patterns, carry_out = grouped_history_patterns(
            group_ids, taken, self.history_bits, carry_in
        )
        self.table.update(zip(keys, carry_out.tolist()))
        return patterns

    def reset(self) -> None:
        self.table.clear()
