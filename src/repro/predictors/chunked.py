"""Vectorized chunk-replay kernels for table-based predictors.

Trace-driven simulation knows every branch outcome up front, so future
predictor table state is computable without per-event Python dispatch.
Both kernels stable-sort a chunk's events by table entry, so each
entry's events sit contiguously and keep their program order, and then
work on the sorted array with a fixed number of whole-array passes:

* :func:`grouped_history_patterns` reconstructs each event's first-level
  history register *before* the event.  A window of the previous
  outcomes in sorted order is built by doubling (``ceil(log2 k)`` passes
  for a ``k``-bit register).  Only an event among its group's first
  ``k`` needs more: its window is masked to its in-group position
  ``t = min(tpos, k)`` and topped up with the entry's carried-in register
  shifted past those ``t`` bits.
* :func:`saturating_counter_predict` replays a batch through a table of
  n-bit saturating counters.  The sorted events are cut into runs of
  identical (index, outcome); within a run the counter moves
  monotonically, one step per event, so only the first few events of a
  run can mispredict, and how many follows from the run's starting
  value alone.  A run is the clamp-add map
  ``x -> min(hi, max(lo, x + a))``, and the composition of two such maps
  is again one, so every run's starting value comes out of a segmented
  prefix scan over the run list (one segment per counter, ``log2`` of
  the longest segment passes).

Sorts use ``uint16`` keys whenever the table has at most 65,536 entries,
which makes numpy pick its O(n) stable radix sort; a stable sort's
permutation depends only on the key order, so wider tables (``int64``
keys) sort identically, just slower.  Predictors on one bus share a
chunk's PC grouping (:meth:`repro.pipeline.bus.EventChunk.pc_groups`)
instead of each running its own ``np.unique``.

Both kernels are exact: they produce bit-identical results to calling
``read_and_update``/``access`` once per event.
``tests/test_predictor_kernels.py`` checks every chunked predictor
against the scalar loop of ``simulate_predictor(chunked=False)``.
"""

from __future__ import annotations

from typing import MutableSequence, Optional, Tuple

import numpy as np

#: Tables up to this many entries sort on ``uint16`` keys (radix sort).
RADIX_SORT_KEYS = 1 << 16

PCGroups = Tuple[np.ndarray, np.ndarray]


def pc_groups(pcs: np.ndarray, groups: Optional[PCGroups] = None) -> PCGroups:
    """``(unique_pcs, inverse)`` of a PC column, reusing *groups* if given."""
    if groups is not None:
        return groups
    return np.unique(np.asarray(pcs), return_inverse=True)


def stable_order(keys: np.ndarray, key_count: int) -> np.ndarray:
    """Stable argsort of integer keys in ``range(key_count)``."""
    if key_count <= RADIX_SORT_KEYS:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _segment_positions(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, position-in-segment) for a sorted key array (non-empty)."""
    n = len(keys)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    idx = np.arange(n)
    return starts, idx - np.maximum.accumulate(np.where(starts, idx, 0))


def grouped_history_patterns(
    group_ids: np.ndarray,
    taken: np.ndarray,
    history_bits: int,
    carry_in: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-event k-bit history patterns, grouped by table entry.

    Args:
        group_ids: dense group id (``0..G-1``) per event, program order.
        taken: outcome per event.
        history_bits: history register width ``k``.
        carry_in: ``int64[G]`` register value per group entering the batch.

    Returns:
        ``(patterns, carry_out)``: the register value *before* each event
        (program order), and the ``int64[G]`` register value per group
        after the batch.
    """
    n = len(group_ids)
    carry_out = carry_in.copy()
    if n == 0:
        return np.zeros(0, dtype=np.int64), carry_out
    k = history_bits
    mask = (1 << k) - 1
    if len(carry_in) == 1:  # one register (global history): no sort
        order = None
        outcomes = taken.astype(np.int64)
        counts = np.array([n])
    else:
        order = stable_order(group_ids, len(carry_in))
        outcomes = taken[order].astype(np.int64)
        counts = np.bincount(group_ids, minlength=len(carry_in))
    first = np.cumsum(counts) - counts  # each group's first sorted index
    # the window: bit j-1 of patterns[i] is the outcome j events back in
    # sorted order, for j <= span; doubling the span joins each window
    # with the one `span` events earlier
    patterns = np.zeros(n, dtype=np.int64)
    patterns[1:] = outcomes[:-1]
    span = 1
    while span < k and span < n:
        patterns[span:] |= (patterns[:-span] << span) & mask
        span *= 2
    # the window is the pattern wherever a group already has k in-batch
    # outcomes; the event at in-group position t < k keeps only t window
    # bits, and the carried-in register fills the bits above them
    group, t = np.nonzero(np.arange(k) < counts[:, None])
    at = first[group] + t
    patterns[at] = (patterns[at] & ((1 << t) - 1)) | (
        (carry_in[group] << t) & mask
    )
    present = np.flatnonzero(counts)
    last = first[present] + counts[present] - 1
    carry_out[present] = ((patterns[last] << 1) | outcomes[last]) & mask
    if order is None:
        return patterns, carry_out
    unsorted = np.empty(n, dtype=np.int64)
    unsorted[order] = patterns
    return unsorted, carry_out


def _clamp_add_scan(
    add: np.ndarray, low: np.ndarray, high: np.ndarray, pos: np.ndarray
) -> None:
    """In-place segmented inclusive scan of clamp-add maps.

    Element ``i`` is the map ``x -> min(high, max(low, x + add))`` and
    ``pos[i]`` its position in its segment.  Afterwards element ``i`` is
    the composition of its segment's maps up to and including ``i``
    (earliest applied first).  Applying ``(a1, l1, h1)`` then
    ``(a2, l2, h2)`` is ``(a1 + a2, clip(l1 + a2, l2, h2),
    clip(h1 + a2, l2, h2))``.  Hillis–Steele doubling: pass ``span``
    joins each element with the one ``span`` earlier, reading only the
    previous pass's values, and touches only elements at least ``span``
    into their segment.
    """
    span = 1
    active = np.flatnonzero(pos >= span)
    while len(active):
        prev = active - span
        a2, l2, h2 = add[active], low[active], high[active]
        joined_low = np.minimum(np.maximum(low[prev] + a2, l2), h2)
        joined_high = np.minimum(np.maximum(high[prev] + a2, l2), h2)
        add[active] = add[prev] + a2
        low[active] = joined_low
        high[active] = joined_high
        span *= 2
        active = active[pos[active] >= span]


def saturating_counter_predict(
    indices: np.ndarray,
    taken: np.ndarray,
    table: MutableSequence[int],
    threshold: int,
    max_value: int,
) -> np.ndarray:
    """Batch predict+update over a saturating counter table.

    *table* is updated in place; returns the per-event predictions in
    program order, bit-identical to ``CounterTable.access`` per event.
    """
    n = len(indices)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = stable_order(indices, len(table))
    sorted_idx = indices[order]
    outcomes = taken[order]
    run_breaks = np.empty(n, dtype=bool)
    run_breaks[0] = True
    run_breaks[1:] = (sorted_idx[1:] != sorted_idx[:-1]) | (
        outcomes[1:] != outcomes[:-1]
    )
    run_start = np.flatnonzero(run_breaks)
    run_index = sorted_idx[run_start]
    run_taken = outcomes[run_start]
    run_length = np.diff(run_start, append=n)
    # each run is one clamp-add map; scanning them per counter gives the
    # counter value after every run
    counter_starts, run_pos = _segment_positions(run_index)
    add = np.where(run_taken, run_length, -run_length)
    low = np.zeros(len(add), dtype=np.int64)
    high = np.full(len(add), max_value, dtype=np.int64)
    _clamp_add_scan(add, low, high, run_pos)
    counters = run_index[counter_starts].tolist()
    initial = np.array([table[c] for c in counters], dtype=np.int64)
    c0 = initial[np.cumsum(counter_starts) - 1]
    after = np.minimum(np.maximum(c0 + add, low), high)
    before = np.where(counter_starts, c0, np.roll(after, 1))
    counter_ends = np.append(counter_starts[1:], True)
    for counter, value in zip(counters, after[counter_ends].tolist()):
        table[counter] = value
    # a run starting at counter value c mispredicts only its head: a
    # taken run while c + t < threshold, a not-taken run while
    # c - t >= threshold (the counter moves one step per event)
    head_misses = np.minimum(
        np.where(run_taken, threshold - before, before - threshold + 1),
        run_length,
    )
    wrong = np.zeros(n, dtype=bool)
    for t in range(int(head_misses.max(initial=0))):
        wrong[run_start[head_misses > t] + t] = True
    unsorted = np.empty(n, dtype=bool)
    unsorted[order] = outcomes ^ wrong
    return unsorted


__all__ = [
    "PCGroups",
    "RADIX_SORT_KEYS",
    "grouped_history_patterns",
    "pc_groups",
    "saturating_counter_predict",
    "stable_order",
]
