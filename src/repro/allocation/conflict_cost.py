"""Table conflict cost — the objective branch allocation minimises.

Table 3's criterion is "the BHT size necessary to allow branch allocation to
reduce the table conflicts to below that of a 1024-entry conventional BHT
with PC indexing".  We define the **conflict cost** of an index mapping as
the sum, over all conflict-graph edges whose endpoints map to the same BHT
entry, of the edge's interleave count — i.e. how many interleaved dynamic
re-executions hit an aliased history register.  This is the quantity the
colouring allocator minimises and the quantity the sizing search compares
against the conventional baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from ..analysis.conflict_graph import ConflictGraph
from ..predictors.indexing import IndexFunction, PCModuloIndex

Mapping = Union[Dict[int, int], IndexFunction, Callable[[int], int]]


def _lookup(mapping: Mapping) -> Callable[[int], int]:
    if isinstance(mapping, dict):
        return mapping.__getitem__
    if isinstance(mapping, IndexFunction):
        return mapping.index
    return mapping


def conflict_cost(graph: ConflictGraph, mapping: Mapping) -> int:
    """Total interleave weight landing on shared BHT entries.

    Args:
        graph: the (pruned, possibly classification-filtered) conflict graph.
        mapping: PC -> entry, as a dict, an IndexFunction or a callable.

    Returns:
        Sum of edge counts over same-entry pairs.
    """
    index_of = _lookup(mapping)
    cost = 0
    for a, b, count in graph.edges():
        if index_of(a) == index_of(b):
            cost += count
    return cost


#: Entries of the conventional PC-indexed BHT every allocation is
#: measured against (Table 3's baseline, Figures 3-4's conventional PAg).
BASELINE_BHT = 1024


def conventional_cost(
    graph: ConflictGraph, bht_size: int = BASELINE_BHT
) -> int:
    """Conflict cost of conventional PC-modulo indexing (the baseline)."""
    return conflict_cost(graph, PCModuloIndex(bht_size))


def conflicting_pairs(
    graph: ConflictGraph, mapping: Mapping
) -> Dict[tuple, int]:
    """The same-entry pairs and their weights (diagnostic view)."""
    index_of = _lookup(mapping)
    return {
        (a, b): count
        for a, b, count in graph.edges()
        if index_of(a) == index_of(b)
    }
