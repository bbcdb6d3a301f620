"""Graph colouring for branch allocation (paper §5.1).

The allocator follows the Chaitin/Briggs register-allocation shape the paper
cites, with the key difference the paper spells out: **there is no spill**.
When a working set has more members than the table has entries, the
overflowing branches simply share an entry, and "the allocation routine
chooses the branches with the fewest conflicts among the working set
branches to map to the same location".

Phases:

1. **Simplify** — repeatedly remove a node with degree < K (it is trivially
   colourable) and push it on a stack.  When no such node exists, remove the
   node with the *smallest weighted degree* (fewest conflicts — the paper's
   sharing victim) and push it marked as an overflow candidate.
2. **Select** — pop nodes and assign each a colour unused by its coloured
   neighbours; a node with no free colour takes the colour that minimises
   the summed interleave weight to its same-coloured neighbours.

Among the conflict-free colours, the allocator picks the one carrying the
least execution weight so far.  Two branches from *different* working sets
can share an entry without any conflict-graph cost (they never interleave),
but each still evicts the other's history across phase transitions; load
balancing spreads branches over the whole table exactly the way the paper's
one-to-one intent implies when the table is big enough.

The result is deterministic: ties break on PC, then on colour number.

Both phases work on arrays built once per call: the graph's adjacency in
CSR form (neighbour positions and edge weights per node, nodes in PC
order) plus per-node degree and weighted-degree counters.  Each simplify
step picks its victim with one masked ``argmin`` over the nodes, and
each select step picks its colour with one masked ``argmin`` over the
palette; ``argmin`` returns the first minimum, which is the lowest PC or
colour, so the tie-breaks are exactly those stated above.  The cost is
accumulated during select: when a node takes a colour, the weight of its
edges to already-coloured neighbours of that colour is added, so every
same-colour edge is counted once, by its later-coloured endpoint.
``tests/test_allocation_coloring.py`` keeps the same greedy written with
plain lists and dicts as the reference the property tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Set, Tuple

import numpy as np

from ..analysis.conflict_graph import ConflictGraph

#: argmin sentinel for masked-out nodes and colours.
_NONE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of one colouring run.

    Attributes:
        assignment: PC -> colour in ``range(colors)``.
        colors: number of colours (BHT entries) made available.
        shared_nodes: PCs that ended up sharing a colour with a conflict
            neighbour (the no-spill overflow case).
        cost: summed interleave weight across same-colour conflict edges.
    """

    assignment: Dict[int, int]
    colors: int
    shared_nodes: frozenset
    cost: int

    @property
    def colors_used(self) -> int:
        """Distinct colours actually assigned."""
        return len(set(self.assignment.values()))


def _csr(graph: ConflictGraph, nodes: List[int]) -> Tuple[np.ndarray, ...]:
    """(indptr, neighbour positions, edge weights) over *nodes* (sorted)."""
    adjacency = [graph.neighbors(pc) for pc in nodes]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in adjacency], out=indptr[1:])
    total = int(indptr[-1])
    neighbor_pcs = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int64, count=total
    )
    weights = np.fromiter(
        chain.from_iterable(nbrs.values() for nbrs in adjacency),
        dtype=np.int64,
        count=total,
    )
    positions = np.searchsorted(
        np.asarray(nodes, dtype=np.int64), neighbor_pcs
    )
    return indptr, positions, weights


def color_graph(
    graph: ConflictGraph,
    colors: int,
    color_offset: int = 0,
) -> ColoringResult:
    """Colour *graph* with *colors* colours, minimising shared-entry weight.

    Args:
        graph: the pruned conflict graph.
        colors: available colours (BHT entries); must be positive.
        color_offset: first colour number to use (the classified allocator
            reserves low entries for biased classes).

    Raises:
        ValueError: if *colors* is not positive.
    """
    if colors <= 0:
        raise ValueError(f"colors must be positive, got {colors}")
    nodes = graph.nodes()
    n = len(nodes)
    indptr, positions, weights = _csr(graph, nodes)
    cumulative = np.concatenate(([0], np.cumsum(weights)))

    # ---- simplify ----------------------------------------------------------
    degrees = np.diff(indptr)
    weighted = cumulative[indptr[1:]] - cumulative[indptr[:-1]]
    remaining = np.ones(n, dtype=bool)
    stack: List[int] = []
    for _ in range(n):
        # lightest simplifiable node (degree < colors); argmin's first
        # minimum is the lowest PC, since nodes are sorted
        key = np.where(remaining & (degrees < colors), degrees, _NONE)
        victim = int(key.argmin())
        if key[victim] == _NONE:
            # overflow: the paper's rule — fewest conflicts shares
            victim = int(np.where(remaining, weighted, _NONE).argmin())
        stack.append(victim)
        remaining[victim] = False
        lo, hi = indptr[victim], indptr[victim + 1]
        live = remaining[positions[lo:hi]]
        neighbors = positions[lo:hi][live]
        degrees[neighbors] -= 1
        weighted[neighbors] -= weights[lo:hi][live]

    # ---- select ------------------------------------------------------------
    color = np.full(n, -1, dtype=np.int64)
    load = np.zeros(colors, dtype=np.int64)
    assignment: Dict[int, int] = {}
    shared: Set[int] = set()
    cost = 0
    for victim in reversed(stack):
        pc = nodes[victim]
        lo, hi = indptr[victim], indptr[victim + 1]
        neighbor_colors = color[positions[lo:hi]]
        colored = neighbor_colors >= 0
        # summed edge weight to the coloured neighbours, per colour; edge
        # weights are positive, so a colour is free exactly when it is 0
        conflict = np.zeros(colors, dtype=np.int64)
        np.add.at(conflict, neighbor_colors[colored], weights[lo:hi][colored])
        # conflict-free: balance execution weight across the table
        chosen = int(np.where(conflict > 0, _NONE, load).argmin())
        if conflict[chosen]:
            # every colour conflicts: take the cheapest one
            chosen = int(conflict.argmin())
            shared.add(pc)
        color[victim] = chosen
        cost += int(conflict[chosen])
        assignment[pc] = color_offset + chosen
        load[chosen] += graph.node_weight(pc) or 1

    return ColoringResult(
        assignment=assignment,
        colors=colors,
        shared_nodes=frozenset(shared),
        cost=cost,
    )


def verify_coloring(
    graph: ConflictGraph, assignment: Dict[int, int]
) -> Tuple[bool, int]:
    """Check an assignment: (conflict-free?, same-colour edge weight).

    Raises:
        ValueError: if a node of *graph* has no colour in *assignment*
            (two uncoloured endpoints would otherwise count as a clash).
    """
    uncolored = [pc for pc in graph.nodes() if pc not in assignment]
    if uncolored:
        listed = ", ".join(f"0x{pc:x}" for pc in uncolored)
        raise ValueError(f"uncoloured nodes: {listed}")
    clashes = 0
    for a, b, count in graph.edges():
        if assignment[a] == assignment[b]:
            clashes += count
    return clashes == 0, clashes
