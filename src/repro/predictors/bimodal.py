"""Bimodal predictor (Smith): one saturating counter per PC hash."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BranchPredictor, Column
from .chunked import PCGroups, pc_groups
from .counters import CounterTable
from .indexing import IndexFunction, PCModuloIndex


class BimodalPredictor(BranchPredictor):
    """A single table of 2-bit counters indexed by PC."""

    name = "bimodal"

    def __init__(self, size: int = 2048, bits: int = 2,
                 index_fn: "IndexFunction | None" = None) -> None:
        self.index_fn = index_fn if index_fn is not None else PCModuloIndex(size)
        if self.index_fn.size != size:
            raise ValueError("index function size must match table size")
        self.counters = CounterTable(size, bits=bits)

    def predict(self, pc: int, target: int = 0) -> bool:
        return self.counters.predict(self.index_fn.index(pc))

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        self.counters.update(self.index_fn.index(pc), taken)

    def access(self, pc: int, taken: bool, target: int = 0) -> bool:
        return self.counters.access(self.index_fn.index(pc), taken)

    def access_chunk(
        self,
        pcs: Column,
        taken: Column,
        targets: Optional[Column] = None,
        groups: Optional[PCGroups] = None,
    ) -> np.ndarray:
        """Vectorized chunk replay: distinct PCs indexed once."""
        unique_pcs, inverse = pc_groups(pcs, groups)
        indices = self.index_fn.index_distinct(unique_pcs)[inverse]
        return self.counters.access_chunk(
            indices, np.asarray(taken, dtype=bool)
        )

    def reset(self) -> None:
        self.counters.reset()
