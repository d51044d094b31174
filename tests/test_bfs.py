"""Breadth-first layers and their users against queue-BFS references."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convdom import (
    Graph,
    NoPathError,
    convex_hull,
    is_chordal,
    is_convex,
    is_isometric,
    make_cycle,
    mask_of,
    random_connected,
)
from convdom.recognition import _shortest_path_in
from oracles import (
    bfs_distances,
    hole_by_parents,
    hull_by_queue_intervals,
    interval_by_queue_distances,
    isometric_by_induced_distances,
    shortest_path_by_parents,
)
from strategies import connected_graphs, two_component_graphs


@st.composite
def graphs_with_queries(draw):
    """A connected graph or the union of two, a vertex mask and two
    distinct-if-possible ends."""
    g = draw(st.one_of(connected_graphs(), two_component_graphs()))
    mask = draw(st.integers(0, g.full_mask))
    src = draw(st.integers(0, g.n - 1))
    dst = draw(st.integers(0, g.n - 1).filter(lambda v: v != src or g.n == 1))
    return g, mask, src, dst


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graphs_with_queries())
@example((make_cycle(6), 0b111111, 0, 3))  # two shortest paths; 0-1-2-3 is least
@example((make_cycle(6), 0b111101, 0, 3))  # vertex 1 cut: 0-5-4-3
@example((Graph.from_edges(4, [(0, 1), (2, 3)]), 0b0101, 0, 2))  # members apart
def test_bfs_users_match_queue_references(case):
    g, mask, src, dst = case
    for u in range(g.n):
        dist = bfs_distances(g, u, g.full_mask)
        assert g.distances[u] == tuple(dist.get(w, -1) for w in range(g.n))
        for v in range(g.n):
            assert g.interval_masks[u][v] == interval_by_queue_distances(g, u, v)

    within = mask | 1 << src
    dist = bfs_distances(g, src, within)
    layers = list(g.layers(src, within))
    assert layers == [
        mask_of(w for w, d in dist.items() if d == i) for i in range(len(layers))
    ]
    assert g.component_mask(src, within) == mask_of(dist)

    assert is_isometric(g, mask) == isometric_by_induced_distances(g, mask)
    assert is_convex(g, mask) == (hull_by_queue_intervals(g, mask) == mask)

    seed = mask | 1 << src
    if seed & ~mask_of(bfs_distances(g, src, g.full_mask)):
        with pytest.raises(NoPathError):
            convex_hull(g, seed)
    else:
        assert convex_hull(g, seed).hull == hull_by_queue_intervals(g, seed)

    if src != dst:
        allowed = within | 1 << dst
        assert _shortest_path_in(g, allowed, src, dst) == shortest_path_by_parents(
            g, allowed, src, dst
        )


def test_hole_certificates_match_parent_pointer_search():
    holes = 0
    for seed in range(60):
        g = random_connected(6 + seed % 9, seed, 0.15 + 0.05 * (seed % 5))
        hole = is_chordal(g).hole
        assert hole == hole_by_parents(g), seed
        holes += hole is not None
    assert holes >= 40
