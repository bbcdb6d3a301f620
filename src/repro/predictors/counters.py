"""Saturating up/down counters — the second-level state of every 2-level
predictor.

A table of n-bit saturating counters is stored as a plain list of ints;
a counter predicts taken when it is in the upper half of its range.  The
2-bit case (the paper's PHT entries) initialises to weakly-taken (2),
matching sim-bpred's default.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .chunked import saturating_counter_predict


class CounterTable:
    """A table of n-bit saturating counters."""

    __slots__ = ("bits", "max_value", "threshold", "table")

    def __init__(self, size: int, bits: int = 2, initial: int = -1) -> None:
        """Create *size* counters of *bits* bits.

        Args:
            size: number of counters (must be positive).
            bits: counter width (must be positive).
            initial: starting value; -1 means weakly-taken
                (``2**(bits-1)``).

        Raises:
            ValueError: on non-positive size/bits or out-of-range initial.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        self.table: List[int] = [self._initial(initial)] * size

    def _initial(self, initial: int) -> int:
        """Resolve and validate a starting counter value."""
        if initial == -1:
            return self.threshold
        if not 0 <= initial <= self.max_value:
            raise ValueError(f"initial {initial} out of range")
        return initial

    def __len__(self) -> int:
        return len(self.table)

    def predict(self, index: int) -> bool:
        """Direction of counter *index* (upper half = taken)."""
        return self.table[index] >= self.threshold

    def update(self, index: int, taken: bool) -> None:
        """Saturating increment on taken, decrement on not-taken."""
        value = self.table[index]
        if taken:
            if value < self.max_value:
                self.table[index] = value + 1
        elif value > 0:
            self.table[index] = value - 1

    def access(self, index: int, taken: bool) -> bool:
        """Predict then update counter *index* in one table visit."""
        value = self.table[index]
        prediction = value >= self.threshold
        if taken:
            if value < self.max_value:
                self.table[index] = value + 1
        elif value > 0:
            self.table[index] = value - 1
        return prediction

    def access_chunk(
        self, indices: np.ndarray, taken: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`access` over a batch; returns predictions."""
        return saturating_counter_predict(
            indices, taken, self.table, self.threshold, self.max_value
        )

    def reset(self, initial: int = -1) -> None:
        """Reset every counter (default: weakly-taken).

        Raises:
            ValueError: on an out-of-range *initial*, like the constructor.
        """
        initial = self._initial(initial)
        for i in range(len(self.table)):
            self.table[i] = initial
