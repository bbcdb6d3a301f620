"""gshare (McFarling): global history xor PC indexes one counter table."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BranchPredictor, Column
from .chunked import PCGroups
from .counters import CounterTable
from .twolevel import _global_history_patterns


class GSharePredictor(BranchPredictor):
    """Global-history/PC xor-indexed PHT."""

    name = "gshare"

    def __init__(self, history_bits: int = 12, pht_bits: int = 2) -> None:
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self.history = 0
        self.pht = CounterTable(1 << history_bits, bits=pht_bits)

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self._mask

    def predict(self, pc: int, target: int = 0) -> bool:
        return self.pht.predict(self._index(pc))

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        self.pht.update(self._index(pc), taken)
        self.history = ((self.history << 1) | taken) & self._mask

    def access(self, pc: int, taken: bool, target: int = 0) -> bool:
        prediction = self.pht.access(self._index(pc), taken)
        self.history = ((self.history << 1) | taken) & self._mask
        return prediction

    def access_chunk(
        self,
        pcs: Column,
        taken: Column,
        targets: Optional[Column] = None,
        groups: Optional[PCGroups] = None,
    ) -> np.ndarray:
        pcs = np.asarray(pcs).astype(np.int64)
        taken = np.asarray(taken, dtype=bool)
        histories, self.history = _global_history_patterns(
            taken, self.history_bits, self.history
        )
        indices = ((pcs >> 2) ^ histories) & self._mask
        return self.pht.access_chunk(indices, taken)

    def reset(self) -> None:
        self.history = 0
        self.pht.reset()
