"""Natural-loop detection and the loop nesting forest.

A back edge is an edge ``tail -> header`` whose header dominates the tail;
its natural loop is the header plus every block that reaches the tail
without passing through the header.  Back edges sharing a header are merged
into one loop, and loops nest by body containment, giving the forest the
conflict estimator walks to weight branch pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .cfg import ControlFlowGraph
from .dominators import DominatorTree, compute_dominators


@dataclass(frozen=True)
class NaturalLoop:
    """One natural loop.

    Attributes:
        index: loop id within the forest.
        header: header block id (the unique entry the back edges target).
        body: all member block ids, header included.
        back_edges: the (tail, header) edges that induced the loop.
        parent: id of the innermost enclosing loop, or None at top level.
        depth: nesting depth (1 for top-level loops).
    """

    index: int
    header: int
    body: FrozenSet[int]
    back_edges: Tuple[Tuple[int, int], ...]
    parent: Optional[int] = None
    depth: int = 1

    def __contains__(self, block_id: int) -> bool:
        return block_id in self.body

    def __len__(self) -> int:
        return len(self.body)


@dataclass
class LoopForest:
    """All natural loops of a CFG, with nesting structure.

    Attributes:
        loops: loops ordered by (header block id).
        by_block: block id -> loop ids containing it, innermost first.
    """

    loops: List[NaturalLoop]
    by_block: Dict[int, List[int]] = field(default_factory=dict)

    def innermost(self, block_id: int) -> Optional[NaturalLoop]:
        """The innermost loop containing *block_id*, if any."""
        ids = self.by_block.get(block_id)
        return self.loops[ids[0]] if ids else None

    def depth_of(self, block_id: int) -> int:
        """Nesting depth of a block (0 outside any loop)."""
        loop = self.innermost(block_id)
        return loop.depth if loop else 0

    def chain(self, block_id: int) -> List[NaturalLoop]:
        """Loops containing *block_id*, innermost first."""
        return [self.loops[i] for i in self.by_block.get(block_id, [])]


def find_loops(
    cfg: ControlFlowGraph, dom: Optional[DominatorTree] = None
) -> LoopForest:
    """Detect natural loops and assemble the nesting forest."""
    dom = dom or compute_dominators(cfg)

    # back edges: tail -> header with header dominating tail
    back_edges: Dict[int, List[int]] = {}
    for tail in dom.rpo:
        for header in cfg.blocks[tail].successors:
            if dom.dominates(header, tail):
                back_edges.setdefault(header, []).append(tail)

    raw: List[Tuple[int, FrozenSet[int], Tuple[Tuple[int, int], ...]]] = []
    for header in sorted(back_edges):
        tails = back_edges[header]
        body = {header}
        frontier = [t for t in tails if t != header]
        while frontier:
            block_id = frontier.pop()
            if block_id in body:
                continue
            body.add(block_id)
            frontier.extend(
                p for p in cfg.predecessors.get(block_id, ())
                if p not in body
            )
        raw.append(
            (
                header,
                frozenset(body),
                tuple((t, header) for t in sorted(tails)),
            )
        )

    # nesting: parent = smallest strictly-containing loop
    loops: List[NaturalLoop] = []
    for i, (header, body, edges) in enumerate(raw):
        parent: Optional[int] = None
        parent_size = None
        for j, (_, other_body, _) in enumerate(raw):
            if i == j or not body < other_body:
                continue
            if parent_size is None or len(other_body) < parent_size:
                parent, parent_size = j, len(other_body)
        loops.append(
            NaturalLoop(
                index=i, header=header, body=body,
                back_edges=edges, parent=parent,
            )
        )

    # depths via parent chains (forest is acyclic by strict containment)
    def depth_of(i: int) -> int:
        depth, node = 1, loops[i]
        while node.parent is not None:
            depth += 1
            node = loops[node.parent]
        return depth

    loops = [
        NaturalLoop(
            index=l.index, header=l.header, body=l.body,
            back_edges=l.back_edges, parent=l.parent,
            depth=depth_of(l.index),
        )
        for l in loops
    ]

    by_block: Dict[int, List[int]] = {}
    for loop in loops:
        for block_id in loop.body:
            by_block.setdefault(block_id, []).append(loop.index)
    for block_id, ids in by_block.items():
        ids.sort(key=lambda i: (-loops[i].depth, loops[i].index))

    return LoopForest(loops=loops, by_block=by_block)
