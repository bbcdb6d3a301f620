"""Graph colouring tests: validity, overflow sharing, load balancing, and
property-based checks on random graphs, including equality with the
list-based greedy colouring kept here as the reference."""

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.coloring import (
    ColoringResult,
    color_graph,
    verify_coloring,
)
from repro.allocation.conflict_cost import conflict_cost
from repro.analysis.conflict_graph import ConflictGraph


def reference_color_graph(
    graph: ConflictGraph, colors: int, color_offset: int = 0
) -> ColoringResult:
    """The greedy colouring written with plain lists and dicts.

    Quadratic, but each rule reads as the module docstring states it:
    simplify the lightest node of degree < colors (else the node with the
    smallest weighted degree), ties on PC; select the least-loaded free
    colour (else the cheapest one), ties on colour; cost over all edges.
    """
    degrees = {pc: graph.degree(pc) for pc in graph.nodes()}
    weighted = {pc: graph.weighted_degree(pc) for pc in graph.nodes()}
    remaining: Set[int] = set(degrees)
    stack: List[int] = []
    while remaining:
        simplifiable = [pc for pc in remaining if degrees[pc] < colors]
        if simplifiable:
            victim = min(simplifiable, key=lambda pc: (degrees[pc], pc))
        else:
            victim = min(remaining, key=lambda pc: (weighted[pc], pc))
        stack.append(victim)
        remaining.discard(victim)
        for neighbor, weight in graph.neighbors(victim).items():
            if neighbor in remaining:
                degrees[neighbor] -= 1
                weighted[neighbor] -= weight

    assignment: Dict[int, int] = {}
    shared: Set[int] = set()
    palette = list(range(color_offset, color_offset + colors))
    load = {color: 0 for color in palette}
    while stack:
        pc = stack.pop()
        neighbor_colors: Dict[int, int] = {}
        for neighbor, weight in graph.neighbors(pc).items():
            color = assignment.get(neighbor)
            if color is not None:
                neighbor_colors[color] = neighbor_colors.get(color, 0) + weight
        free = [color for color in palette if color not in neighbor_colors]
        if free:
            chosen = min(free, key=lambda c: (load[c], c))
        else:
            chosen = min(palette, key=lambda c: (neighbor_colors[c], c))
            shared.add(pc)
        assignment[pc] = chosen
        load[chosen] += graph.node_weight(pc) or 1

    cost = sum(
        count
        for a, b, count in graph.edges()
        if assignment[a] == assignment[b]
    )
    return ColoringResult(
        assignment=assignment,
        colors=colors,
        shared_nodes=frozenset(shared),
        cost=cost,
    )


def _clique(members, weight=100):
    graph = ConflictGraph()
    for i, a in enumerate(members):
        graph.add_node(a, weight=10)
        for b in members[i + 1:]:
            graph.add_edge(a, b, weight)
    return graph


def test_clique_colored_conflict_free_when_colors_suffice():
    graph = _clique([1, 2, 3, 4])
    result = color_graph(graph, colors=4)
    ok, clashes = verify_coloring(graph, result.assignment)
    assert ok and clashes == 0
    assert result.cost == 0
    assert result.colors_used == 4
    assert not result.shared_nodes


def test_overflow_shares_cheapest_color():
    graph = _clique([1, 2, 3], weight=100)
    result = color_graph(graph, colors=2)
    assert result.cost == 100       # exactly one edge shares
    assert len(result.shared_nodes) == 1


def test_overflow_victim_has_fewest_conflicts():
    # node 4 is lightly connected: the paper's rule shares it first
    graph = _clique([1, 2, 3], weight=1000)
    graph.add_node(4, weight=1)
    graph.add_edge(1, 4, 10)
    graph.add_edge(2, 4, 10)
    graph.add_edge(3, 4, 10)
    result = color_graph(graph, colors=3)
    # sharing 4 with one of {1,2,3} costs 10; sharing among the heavy
    # clique would cost 1000
    assert result.cost == 10


def test_zero_colors_rejected():
    with pytest.raises(ValueError):
        color_graph(_clique([1, 2]), colors=0)


def test_color_offset_shifts_palette():
    graph = _clique([1, 2, 3])
    result = color_graph(graph, colors=3, color_offset=2)
    assert set(result.assignment.values()) <= {2, 3, 4}


def test_load_balancing_spreads_independent_nodes():
    # 8 isolated nodes, 4 colours: each colour carries exactly 2 nodes
    graph = ConflictGraph()
    for pc in range(8):
        graph.add_node(pc, weight=10)
    result = color_graph(graph, colors=4)
    from collections import Counter

    loads = Counter(result.assignment.values())
    assert sorted(loads.values()) == [2, 2, 2, 2]


def test_load_balancing_respects_execution_weight():
    # one heavy node and three light ones, 2 colours: the heavy node's
    # colour receives fewer companions
    graph = ConflictGraph()
    graph.add_node(0, weight=1000)
    for pc in (1, 2, 3):
        graph.add_node(pc, weight=10)
    result = color_graph(graph, colors=2)
    heavy_color = result.assignment[0]
    companions = [
        pc for pc in (1, 2, 3) if result.assignment[pc] == heavy_color
    ]
    assert len(companions) <= 1


def test_deterministic():
    graph = _clique([5, 1, 9, 3])
    graph.add_edge(5, 11, 50)
    a = color_graph(graph, colors=3).assignment
    b = color_graph(graph, colors=3).assignment
    assert a == b


def test_empty_graph():
    result = color_graph(ConflictGraph(), colors=4)
    assert result.assignment == {}
    assert result.cost == 0


def test_verify_coloring_reports_clash_weight():
    graph = _clique([1, 2], weight=77)
    ok, clashes = verify_coloring(graph, {1: 0, 2: 0})
    assert not ok and clashes == 77


def test_verify_coloring_rejects_uncolored_nodes():
    # two uncoloured endpoints used to compare None == None and count
    # the edge as a clash: verify_coloring(g, {}) returned (False, 150)
    graph = _clique([0x40, 0x44], weight=150)
    with pytest.raises(ValueError, match="0x40, 0x44"):
        verify_coloring(graph, {})
    with pytest.raises(ValueError, match="0x44"):
        verify_coloring(graph, {0x40: 0})


#: random conflict graphs: distinct PCs, node weights (0 included, which
#: loads a colour by 1), and edge weights from a small set so ties occur
random_graphs = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=n,
            max_size=n,
            unique=True,
        ),
        st.lists(st.integers(min_value=0, max_value=50), min_size=n,
                 max_size=n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from([1, 100, 150, 400, 1000]),
            ),
            max_size=3 * n,
        ),
    )
)


def _assert_matches_reference(graph, colors, offset):
    got = color_graph(graph, colors, color_offset=offset)
    ref = reference_color_graph(graph, colors, color_offset=offset)
    assert got.assignment == ref.assignment
    assert list(got.assignment) == list(ref.assignment)
    assert got.shared_nodes == ref.shared_nodes
    assert got.cost == ref.cost
    assert got.cost == conflict_cost(graph, got.assignment)


def test_empty_graph_matches_reference():
    for offset in (0, 3):
        for colors in (1, 2):
            _assert_matches_reference(ConflictGraph(), colors, offset)


@settings(max_examples=40, deadline=None)
@given(spec=random_graphs)
def test_coloring_matches_reference_greedy(spec):
    pcs, node_weights, edges = spec
    graph = ConflictGraph()
    for pc, weight in zip(pcs, node_weights):
        graph.add_node(pc, weight=weight)
    for a, b, weight in edges:
        if a != b:
            graph.add_edge(pcs[a], pcs[b], weight)
    for colors in range(1, len(pcs) + 3):
        for offset in (0, 3):
            _assert_matches_reference(graph, colors, offset)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=500),
        ),
        max_size=50,
    ),
    colors=st.integers(min_value=1, max_value=6),
)
def test_coloring_invariants_on_random_graphs(edges, colors):
    graph = ConflictGraph()
    for a, b, weight in edges:
        if a != b:
            graph.add_edge(a, b, weight)
    result = color_graph(graph, colors=colors)
    # every node coloured, all colours in range
    assert set(result.assignment) == set(graph.nodes())
    assert all(0 <= c < colors for c in result.assignment.values())
    # reported cost matches an independent recount
    _, clashes = verify_coloring(graph, result.assignment)
    assert clashes == result.cost
    # enough colours -> zero cost (greedy is safe below the degree bound)
    max_degree = max(
        (graph.degree(pc) for pc in graph.nodes()), default=0
    )
    if colors > max_degree:
        assert result.cost == 0


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=10),
        ),
        max_size=40,
    )
)
def test_cost_non_increasing_in_colors(edges):
    graph = ConflictGraph()
    for a, b in edges:
        if a != b:
            graph.add_edge(a, b, 100)
    costs = [
        color_graph(graph, colors=k).cost for k in (1, 2, 4, 8, 16)
    ]
    assert costs == sorted(costs, reverse=True)
