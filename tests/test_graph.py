import random

import pytest

from convdom import (
    Graph,
    InvalidVertexError,
    is_dominating,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    mask_of,
    vertices_of,
)


def test_mask_round_trip():
    assert vertices_of(mask_of([4, 1, 9])) == (1, 4, 9)
    assert mask_of([]) == 0
    with pytest.raises(InvalidVertexError):
        mask_of([-1])


def test_construction_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidVertexError):
        Graph.from_edges(3, [(0, 3)])


def test_construction_validates_symmetry():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    for row in (0b100, -1):
        with pytest.raises(InvalidVertexError):
            Graph(2, (row, 0))


def closed_neighborhood(g, members):
    """N[members] as the union of the per-vertex closed neighborhoods."""
    out = members
    for v in vertices_of(members):
        out |= g.closed_adj[v]
    return out


def test_closed_neighborhood_examples():
    p4 = make_path(4)
    assert p4.closed_adj[1] == mask_of([0, 1, 2])
    assert not is_dominating(p4, mask_of([1]))
    assert not is_dominating(p4, 0)
    k4 = make_complete(4)
    assert k4.closed_adj[0] == k4.full_mask
    assert is_dominating(k4, mask_of([0]))
    with pytest.raises(InvalidVertexError):
        is_dominating(p4, mask_of([4]))


def test_is_dominating_examples():
    star = make_star(5)
    assert is_dominating(star, mask_of([0]))
    p4 = make_path(4)
    assert not is_dominating(p4, mask_of([0]))
    # C6 with {0, 3}: N[0] and N[3] together reach all six vertices
    c6 = make_cycle(6)
    union = closed_neighborhood(c6, mask_of([0, 3]))
    assert union == c6.full_mask
    assert is_dominating(c6, mask_of([0, 3]))


def test_distances_examples():
    assert make_path(4).distances[0][3] == 3
    c6 = make_cycle(6).distances
    assert c6[0][3] == 3
    assert c6[0][2] == 2
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert two_edges.distances == ((0, 1, -1, -1), (1, 0, -1, -1), (-1, -1, 0, 1), (-1, -1, 1, 0))


def test_distance_matrix_metric_axioms(corpus):
    for _name, g in corpus:
        dist = g.distances
        for u in range(g.n):
            assert dist[u][u] == 0
            for v in range(g.n):
                assert dist[u][v] == dist[v][u]
                assert (dist[u][v] == 1) == g.has_edge(u, v)
                for w in range(g.n):
                    if dist[u][w] >= 0 and dist[w][v] >= 0:
                        assert 0 <= dist[u][v] <= dist[u][w] + dist[w][v]


def test_closed_neighborhood_is_extensive(corpus):
    rng = random.Random(11)
    for _name, g in corpus:
        for _ in range(5):
            members = mask_of(v for v in range(g.n) if rng.random() < 0.4)
            covered = closed_neighborhood(g, members)
            assert members & ~covered == 0
            assert is_dominating(g, members) == (covered == g.full_mask)


def test_whole_vertex_set_dominates(corpus):
    for _name, g in corpus:
        assert is_dominating(g, g.full_mask)


def test_domination_is_monotone(corpus):
    rng = random.Random(23)
    for _name, g in corpus:
        if not g.is_connected() or g.n == 0:
            continue
        base = mask_of(v for v in range(g.n) if rng.random() < 0.5)
        if not is_dominating(g, base):
            base = g.full_mask
        extra = base | mask_of(v for v in range(g.n) if rng.random() < 0.3)
        assert is_dominating(g, extra)


def test_graphs_are_immutable_and_hashable():
    g = make_path(3)
    assert hash(g) == hash(make_path(3))
    assert g == make_path(3)
    with pytest.raises(Exception):
        g.n = 5
