"""Classification-enhanced branch allocation (paper §5.2).

Refinements over the plain allocator:

1. conflict edges between two branches of the same highly-biased class are
   dropped — aliased identical histories are harmless;
2. two BHT entries are reserved: entry 0 for all >99%-taken branches and
   entry 1 for all <1%-taken branches ("two history entries from BHT can be
   set aside such that highly biased towards taken and not taken branches
   can be mapped to these two entries separated from others");
3. the remaining mixed branches are coloured on the remaining
   ``bht_size - 2`` entries.

The conflict cost of the result is evaluated on the *filtered* graph: the
paper's premise is precisely that same-class biased conflicts carry no
"significant negative effects".  On that graph only mixed-vs-mixed edges
can share an entry: same-class biased edges are gone, the two biased
classes use different reserved entries, and mixed branches never use a
reserved one.  The cost is therefore the colouring's own cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..analysis.classification import (
    BiasClass,
    ClassificationBounds,
    classify_profile,
    drop_same_class_biased_edges,
)
from ..analysis.conflict_graph import DEFAULT_THRESHOLD, build_conflict_graph
from ..profiling.profile import InterleaveProfile
from .allocator import AllocationResult
from .coloring import color_graph

TAKEN_ENTRY = 0
NOT_TAKEN_ENTRY = 1
RESERVED_ENTRIES = 2


class ClassifiedBranchAllocator:
    """Branch allocator with Chang-style bias classification."""

    def __init__(
        self,
        profile: InterleaveProfile,
        threshold: int = DEFAULT_THRESHOLD,
        bounds: ClassificationBounds = ClassificationBounds(),
        restrict_to: Optional[Iterable[int]] = None,
    ) -> None:
        self.profile = profile
        self.threshold = threshold
        self.bounds = bounds
        self.classes: Dict[int, BiasClass] = classify_profile(profile, bounds)
        raw = build_conflict_graph(
            profile, threshold=threshold, restrict_to=restrict_to
        )
        #: the §5.2 graph: same-class biased edges removed
        self.graph = drop_same_class_biased_edges(raw, self.classes)
        # the split into reserved-entry and mixed branches does not depend
        # on the table size, so it is made once for every allocate()
        self._reserved: Dict[int, int] = {}
        mixed_nodes = []
        for pc in self.graph.nodes():
            bias = self.classes.get(pc, BiasClass.MIXED)
            if bias is BiasClass.TAKEN_BIASED:
                self._reserved[pc] = TAKEN_ENTRY
            elif bias is BiasClass.NOT_TAKEN_BIASED:
                self._reserved[pc] = NOT_TAKEN_ENTRY
            else:
                mixed_nodes.append(pc)
        self._mixed_graph = self.graph.subgraph(mixed_nodes)

    def allocate(self, bht_size: int) -> AllocationResult:
        """Assign branches to *bht_size* entries with two reserved slots.

        Raises:
            ValueError: if *bht_size* leaves no entries for mixed branches
                (must exceed the two reserved entries).
        """
        if bht_size <= RESERVED_ENTRIES:
            raise ValueError(
                f"bht_size must exceed {RESERVED_ENTRIES} reserved entries, "
                f"got {bht_size}"
            )
        coloring = color_graph(
            self._mixed_graph,
            bht_size - RESERVED_ENTRIES,
            color_offset=RESERVED_ENTRIES,
        )
        assignment = dict(self._reserved)
        assignment.update(coloring.assignment)
        # cost on the filtered graph over the full assignment: only mixed
        # pairs can share an entry there (see the module docstring)
        return AllocationResult(
            bht_size=bht_size,
            assignment=assignment,
            cost=coloring.cost,
            shared_branches=coloring.shared_nodes,
            threshold=self.threshold,
        )

    @property
    def biased_branch_count(self) -> int:
        """How many profiled branches fell into a highly-biased class."""
        return sum(
            1
            for bias in self.classes.values()
            if bias is not BiasClass.MIXED
        )
