"""The time-stamp interleave analysis (paper §4.1, Figure 1).

The paper's procedure: every static branch carries the time stamp of its
latest dynamic instance (the retired-instruction count before it).  When a
branch *A* re-executes, every branch whose time stamp exceeds A's previous
stamp has interleaved with A since then, and each such pair's interleave
counter is incremented; A's stamp is then updated.

Because time stamps strictly increase, "a stamp greater than A's previous
stamp" means "executed at least once since A's previous instance".  Number
the events 0, 1, ...; when A re-executes at event *i* with its previous
instance at *p*, the branches counted are those whose latest instance
before *i* lies in (p, i): the positions *j* in (p, i) whose branch does
not execute again before *i*.  :class:`InterleaveAnalyzer` enumerates
exactly those (A, B) increments with numpy, one pass of up to ``_PASS``
events at a time, from state carried between passes (each branch's
last-instance index, the pair counts and the pairs' first-count order):

* **near events** (p in the pass, at most ``_WINDOW`` events back) scan
  offsets k = 1 .. i - p - 1 over the shrinking set of events still in
  their window, keeping j = i - k when j's branch has no later instance
  before i;
* **far events** (p further back, or before the pass) take the same scan
  over [s, i), where s starts i's ``_WINDOW``-event block, plus every
  branch whose latest instance at s (a per-block snapshot) is later than p
  and which does not execute in [s, i).

Either way each branch with its latest instance in (p, i) is produced
exactly once, so the counts equal the literal scan's
(:func:`interleave_pairs_bruteforce`, which property tests compare
against, counts and order).  A pass counts its increments by sorting their
pair codes once.  The pair table's order is part of a stored profile's
bytes: a pair first counted at event i through B is appended in the order
of (i, i - latest instance of B), the order in which a walk of the
branches above A, most recent first, would meet it.  Neither counts nor
order depend on where chunks or passes are cut.

Cost per event is min(reuse distance, ``_WINDOW``) for the scans (on the
scale-1.0 analogs 97% of events re-execute within 32 events), plus its
share of one sort of the pass's increments and, when the pass has far
events, of a (``_PASS``/``_WINDOW``) x statics snapshot.  Temporaries are
a few bytes per increment of one pass, plus that snapshot.  On gcc@1.0
(1.5M events in 64K-event chunks, 9.1M increments, 2-CPU host) the
analysis takes about 0.41 s.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..trace.events import BranchTrace
from .profile import BranchStats, InterleaveProfile, PairKey, pair_key

#: Near-event window, and the length of the blocks whose start snapshots
#: serve far events.
_WINDOW = 64
#: Events per counting pass (a multiple of ``_WINDOW``).
_PASS_BITS = 13
_PASS = 1 << _PASS_BITS
#: A pair's code is ``low id << _ID_BITS | high id``; shifted left by
#: ``_PASS_BITS`` with the event's offset in the pass, it fits an int64.
_ID_BITS = 25
_HIGH_MASK = (1 << _ID_BITS) - 1
#: Far events per snapshot comparison are capped so that
#: events x statics stays under this many cells.
_MASK_CELLS = 1 << 16

_I64 = np.int64
_I32 = np.int32  # per-increment arrays: ids and pass offsets


class InterleaveAnalyzer:
    """Streaming interleave analysis over columnar state.

    Feed dynamic conditional-branch events in program order via
    :meth:`observe_chunk` (or :meth:`observe`); read the result with
    :meth:`finish`.  Pair counts and order do not depend on how the
    events are chunked; the branch-stats order does (see
    :meth:`observe_chunk`).
    """

    def __init__(self, name: str = "<profile>") -> None:
        self._name = name
        self._instructions = 0
        self._events = 0
        # Per static branch, by id.  Ids are handed out in first-seen
        # order, sorted by PC within one chunk: the branch-stats order.
        self._index: Dict[int, int] = {}
        self._pc = np.zeros(0, np.uint64)
        self._executions = np.zeros(0, _I64)
        self._taken = np.zeros(0, _I64)
        self._last = np.zeros(0, _I64)  # latest instance's event index
        # Per pair, in first-count order: its code and count.
        self._pair_code = np.zeros(0, _I64)
        self._pair_count = np.zeros(0, _I64)
        # The pair codes sorted, and each one's row in the pair columns.
        self._codes = np.zeros(0, _I64)
        self._code_row = np.zeros(0, _I64)

    # -- event intake --------------------------------------------------------

    def observe(self, pc: int, taken: bool = False) -> None:
        """Record one dynamic instance of branch *pc* (in program order)."""
        self.observe_chunk([pc], [taken])

    def observe_chunk(
        self,
        pcs: Sequence[int],
        taken: Sequence[bool],
        groups: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        instructions: Optional[int] = None,
    ) -> None:
        """Record a batch of events in program order.

        *groups* is the chunk's ``(unique_pcs, inverse)`` grouping
        (``np.unique(pcs, return_inverse=True)``), computed here when not
        given.  Branches first seen in this chunk enter the branch stats
        sorted by PC.  *instructions*, when given, is the retired-
        instruction count at the chunk's last event: the profile's
        ``instructions``.
        """
        pcs_arr = np.asarray(pcs, dtype=np.uint64)
        n = len(pcs_arr)
        if n == 0:
            return
        if instructions is not None:
            self._instructions = instructions
        if groups is None:
            groups = np.unique(pcs_arr, return_inverse=True)
        unique_pcs, inverse = groups
        width = len(unique_pcs)
        uid = self._ids_of(unique_pcs)
        self._executions[uid] += np.bincount(inverse, minlength=width)
        self._taken[uid] += np.bincount(
            inverse[np.asarray(taken, dtype=bool)], minlength=width
        )
        for c in range(0, n, _PASS):
            part = _Pass(
                uid[inverse[c:c + _PASS]], inverse[c:c + _PASS], width,
                self._events, self._last,
            )
            self._count(part)
            closing = np.flatnonzero(part.nxt == len(part.ids))
            self._last[part.ids[closing]] = self._events + closing
            self._events += len(part.ids)

    def _ids_of(self, unique_pcs: np.ndarray) -> np.ndarray:
        """Ids of a chunk's sorted distinct PCs; new ones get the next ids."""
        index = self._index
        ids: List[int] = []
        fresh: List[int] = []
        for pc in unique_pcs.tolist():
            known = index.get(pc)
            if known is None:
                known = index[pc] = len(index)
                fresh.append(pc)
            ids.append(known)
        if fresh:
            if len(index) > 1 << _ID_BITS:
                raise OverflowError("more static branches than pair codes hold")
            grow = np.zeros(len(fresh), _I64)
            self._pc = np.concatenate([self._pc, np.array(fresh, np.uint64)])
            self._executions = np.concatenate([self._executions, grow])
            self._taken = np.concatenate([self._taken, grow])
            self._last = np.concatenate([self._last, grow - 1])
        return np.array(ids, dtype=_I32)

    def _count(self, part: "_Pass") -> None:
        """Add one pass's increments to the pair counts."""
        events, others = part.increments()
        if not len(events):
            return
        # (low id, high id, event) packed into one sortable int64, built
        # in place: a pass's temporaries are a few bytes per increment
        mine = part.ids[events]
        packed = np.minimum(mine, others).astype(_I64)
        packed <<= _ID_BITS
        packed |= np.maximum(mine, others)
        del mine, others
        packed <<= _PASS_BITS
        packed |= events
        del events
        packed.sort()
        codes = packed >> _PASS_BITS
        heads = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1]))
        )
        counts = np.diff(np.append(heads, len(codes)))
        codes = codes[heads]
        at = np.searchsorted(self._codes, codes)
        known = at < len(self._codes)
        known[known] = self._codes[at[known]] == codes[known]
        self._pair_count[self._code_row[at[known]]] += counts[known]
        fresh = ~known
        if not fresh.any():
            return
        codes = codes[fresh]
        counts = counts[fresh]
        first = packed[heads[fresh]] & (_PASS - 1)
        low = codes >> _ID_BITS
        other = np.where(
            low == part.ids[first], codes & _HIGH_MASK, low
        )
        # first-count order: by event, then by the other's recency
        rank = np.lexsort((-part.latest(other, first), first))
        rows = np.empty(len(codes), _I64)
        rows[rank] = len(self._pair_count) + np.arange(len(codes))
        self._pair_code = np.concatenate([self._pair_code, codes[rank]])
        self._pair_count = np.concatenate([self._pair_count, counts[rank]])
        self._codes = np.insert(self._codes, at[fresh], codes)
        self._code_row = np.insert(self._code_row, at[fresh], rows)

    # -- state -----------------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """The analysis state as plain arrays (a checkpoint payload)."""
        return {
            "name": self._name,
            "instructions": self._instructions,
            "events": self._events,
            "pc": self._pc,
            "executions": self._executions,
            "taken": self._taken,
            "last": self._last,
            "pair_code": self._pair_code,
            "pair_count": self._pair_count,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "InterleaveAnalyzer":
        """Rebuild an analyzer from :meth:`state`."""
        analyzer = cls(name=str(state["name"]))
        analyzer._instructions = int(state["instructions"])  # type: ignore[arg-type]
        analyzer._events = int(state["events"])  # type: ignore[arg-type]
        for key in (
            "pc", "executions", "taken", "last",
            "pair_code", "pair_count",
        ):
            setattr(analyzer, f"_{key}", np.array(state[key]))
        analyzer._index = {
            pc: i for i, pc in enumerate(analyzer._pc.tolist())
        }
        analyzer._code_row = np.argsort(analyzer._pair_code)
        analyzer._codes = analyzer._pair_code[analyzer._code_row]
        return analyzer

    # -- results ---------------------------------------------------------------

    def finish(self) -> InterleaveProfile:
        """Freeze the analysis into an :class:`InterleaveProfile`."""
        pcs = self._pc.tolist()
        low = self._pair_code >> _ID_BITS
        high = self._pair_code & _HIGH_MASK
        swap = self._pc[low] > self._pc[high]
        # keys share the branches' PC objects, as the branch stats do
        keys = zip(
            map(pcs.__getitem__, np.where(swap, high, low)),
            map(pcs.__getitem__, np.where(swap, low, high)),
        )
        return InterleaveProfile(
            branches={
                pc: BranchStats(executions, taken)
                for pc, executions, taken in zip(
                    pcs, self._executions.tolist(), self._taken.tolist()
                )
            },
            pairs=dict(zip(keys, self._pair_count.tolist())),
            instructions=self._instructions,
            name=self._name,
        )


class _Pass:
    """Up to ``_PASS`` consecutive events, placed against the analyzer's
    carried state.

    Event positions are pass-local; ``start`` is the first event's index
    in the whole stream and ``before`` each branch's latest instance
    before the pass.
    """

    def __init__(
        self,
        ids: np.ndarray,
        inverse: np.ndarray,
        width: int,
        start: int,
        before: np.ndarray,
    ) -> None:
        n = len(ids)
        self.ids = ids
        self.start = start
        self.before = before
        # events grouped by branch, in time order within each group
        self.order = order = np.argsort(
            inverse.astype(np.uint16) if width <= 1 << 16 else inverse,
            kind="stable",
        )
        self.grouped = grouped = inverse[order]
        same = grouped[1:] == grouped[:-1]
        earlier, later = order[:-1][same], order[1:][same]
        self.prev = np.full(n, -1, _I64)  # previous instance in the pass
        self.prev[later] = earlier
        self.nxt = np.full(n, n, _I64)  # next instance in the pass
        self.nxt[earlier] = later
        local = np.arange(n, dtype=_I64)
        # previous instance in the stream, -1 for a branch's first one
        self.since = np.where(
            self.prev >= 0, start + self.prev, before[ids]
        )
        gap = start + local - self.since - 1
        near = (self.prev >= 0) & (gap <= _WINDOW)
        self.far = (self.since >= 0) & ~near
        # window offsets each event scans
        self.scan = np.where(
            near, gap, np.where(self.far, local % _WINDOW, 0)
        )

    def increments(self) -> Tuple[np.ndarray, np.ndarray]:
        """(event, other branch) for every increment in the pass."""
        events: List[np.ndarray] = []
        others: List[np.ndarray] = []
        active = np.flatnonzero(self.scan).astype(_I32)
        k = 1
        while len(active):
            j = active - k
            keep = self.nxt[j] > active
            events.append(active[keep])
            others.append(self.ids[j[keep]])
            k += 1
            active = active[self.scan[active] >= k]
        far = np.flatnonzero(self.far).astype(_I32)
        if len(far):
            for hit, other in self._before_blocks(far):
                events.append(far[hit])
                others.append(other.astype(_I32))
        if not events:
            return np.zeros(0, _I32), np.zeros(0, _I32)
        return np.concatenate(events), np.concatenate(others)

    def _before_blocks(
        self, far: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Far events' increments from before their block's start, as
        (index into *far*, other branch)."""
        statics = len(self.before)
        rows = far // _WINDOW
        height = int(rows[-1]) + 1
        span = np.arange(min(len(self.ids), height * _WINDOW))
        block = span // _WINDOW
        ids = self.ids[span]
        # snapshot[b]: each branch's latest instance before block b starts
        snapshot = np.full((height, statics), -1, _I64)
        snapshot[0] = self.before
        closing = (self.nxt[span] >= (block + 1) * _WINDOW) & (
            block + 1 < height
        )
        snapshot[block[closing] + 1, ids[closing]] = self.start + span[closing]
        snapshot = np.maximum.accumulate(snapshot, axis=0)
        # opening[b]: each branch's first instance in block b (n: none)
        opening = np.full((height, statics), len(self.ids), _I64)
        first = self.prev[span] < block * _WINDOW
        opening[block[first], ids[first]] = span[first]
        step = max(1, _MASK_CELLS // statics)
        for lo in range(0, len(far), step):
            group = far[lo:lo + step]
            row = rows[lo:lo + step]
            hit, other = np.nonzero(
                (snapshot[row] > self.since[group][:, None])
                & (opening[row] > group[:, None])
            )
            yield lo + hit, other

    def latest(self, branches: np.ndarray, events: np.ndarray) -> np.ndarray:
        """Stream index of each branch's latest instance before each
        (pass-local) event."""
        n = len(self.ids)
        group = np.full(len(self.before), -1, _I64)
        group[self.ids[self.order]] = self.grouped
        mine = group[branches]
        # events sorted by (branch group, position) as one key
        at = np.searchsorted(
            self.grouped * n + self.order, mine * n + events
        ) - 1
        hit = (mine >= 0) & (at >= 0)
        hit[hit] = self.grouped[at[hit]] == mine[hit]
        return np.where(
            hit, self.start + self.order[at], self.before[branches]
        )


def profile_trace(
    trace: BranchTrace, name: Optional[str] = None
) -> InterleaveProfile:
    """Run the interleave analysis over a recorded trace.

    The trace rides a :class:`~repro.pipeline.bus.BranchEventBus` into an
    :class:`~repro.pipeline.consumers.InterleaveConsumer`: the same
    chunks, hence the same profile bytes, as a simulation's bus yields.
    """
    # late import: the pipeline package sits above the profiler
    from ..pipeline.bus import BranchEventBus
    from ..pipeline.consumers import InterleaveConsumer

    consumer = InterleaveConsumer(label=name or trace.name)
    BranchEventBus.replay(trace, [consumer])
    return consumer.result


def interleave_pairs_bruteforce(
    events: Iterable[Tuple[int, int]]
) -> Dict[PairKey, int]:
    """The paper's literal Figure 1 procedure, O(statics) per event.

    Args:
        events: iterable of (pc, timestamp) in program order; timestamps
            must be strictly increasing.

    Returns:
        Unordered pair -> interleave count, in first-count order: each
        re-execution visits the branches with a later stamp, latest
        first.  Used as the reference implementation in property tests;
        do not use on large traces.

    Raises:
        ValueError: if timestamps are not strictly increasing.
    """
    last_ts: Dict[int, int] = {}
    pairs: Dict[PairKey, int] = {}
    previous_ts = -1
    for pc, ts in events:
        if ts <= previous_ts:
            raise ValueError("timestamps must be strictly increasing")
        previous_ts = ts
        if pc in last_ts:
            my_prev = last_ts[pc]
            above = [
                (other_ts, other)
                for other, other_ts in last_ts.items()
                if other != pc and other_ts > my_prev
            ]
            for _, other in sorted(above, reverse=True):
                key = pair_key(pc, other)
                pairs[key] = pairs.get(key, 0) + 1
        last_ts[pc] = ts
    return pairs
