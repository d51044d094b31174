import random

import pytest

from convdom import (
    NoPathError,
    PreconditionError,
    convex_hull,
    is_convex,
    is_isometric,
    make_complete,
    make_cycle,
    make_path,
    mask_of,
    vertices_of,
)
from convdom.graph import Graph

from oracles import connected_in, min_convex_superset


def test_interval_examples():
    c4 = make_cycle(4).interval_masks
    assert c4[0][2] == mask_of([0, 1, 2, 3])
    assert c4[0][1] == mask_of([0, 1])
    p4 = make_path(4).interval_masks
    assert p4[0][3] == mask_of([0, 1, 2, 3])
    assert p4[1][1] == mask_of([1])


def test_interval_symmetry_and_endpoints(connected_corpus):
    for _name, g in connected_corpus:
        table = g.interval_masks
        for u in range(g.n):
            for v in range(u, g.n):
                got = table[u][v]
                assert got == table[v][u]
                assert got & mask_of([u, v]) == mask_of([u, v])


def test_interval_requires_same_component():
    table = Graph.from_edges(4, [(0, 1), (2, 3)]).interval_masks
    assert table[0][2] == table[2][0] == 0
    assert table[2][3] == mask_of([2, 3])


def test_hull_examples():
    # one closure round on C5 captures the short arc only
    c5 = make_cycle(5)
    assert convex_hull(c5, mask_of([0, 2])).hull == mask_of([0, 1, 2])
    assert convex_hull(c5, mask_of([0, 2])).hull == min_convex_superset(c5, mask_of([0, 2]))
    # antipodal seed on C6 forces the whole cycle
    c6 = make_cycle(6)
    assert convex_hull(c6, mask_of([0, 3])).hull == c6.full_mask
    # clique seeds are already convex
    k5 = make_complete(5)
    seed = mask_of([1, 2, 4])
    trace = convex_hull(k5, seed)
    assert trace.hull == seed
    assert trace.rounds == (seed,)


def test_hull_preconditions():
    with pytest.raises(PreconditionError):
        convex_hull(make_path(3), 0)
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        convex_hull(split, mask_of([0, 2]))
    # a seed within one component of a disconnected graph is fine
    assert convex_hull(split, mask_of([2, 3])).hull == mask_of([2, 3])


def test_hull_trace_is_strictly_increasing_chain(connected_corpus):
    rng = random.Random(5)
    for _name, g in connected_corpus:
        if g.n == 0:
            continue
        for _ in range(4):
            seed = mask_of(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
            trace = convex_hull(g, seed)
            assert trace.rounds[0] == seed
            assert is_convex(g, trace.hull)
            for before, after in zip(trace.rounds, trace.rounds[1:]):
                assert before & ~after == 0 and before != after


def test_is_convex_examples():
    c6 = make_cycle(6)
    arc = mask_of([0, 1, 2])
    assert all(c6.interval_masks[u][v] & ~arc == 0
               for u in vertices_of(arc) for v in vertices_of(arc))
    assert is_convex(c6, arc)
    assert not is_convex(make_cycle(4), mask_of([0, 2]))
    assert is_convex(c6, 0)
    assert is_convex(c6, mask_of([4]))


def test_is_isometric_examples():
    c6 = make_cycle(6)
    assert is_isometric(c6, mask_of([0, 1, 2, 3]))
    assert not is_isometric(c6, mask_of([0, 2, 4]))


def test_hull_algebra_on_random_seeds(connected_corpus):
    rng = random.Random(77)
    for _name, g in connected_corpus:
        if g.n < 2:
            continue
        for _ in range(6):
            small = mask_of(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
            grown = small | mask_of(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
            hull_small = convex_hull(g, small).hull
            # extensive, idempotent, monotone
            assert small & ~hull_small == 0
            assert convex_hull(g, hull_small).hull == hull_small
            assert hull_small & ~convex_hull(g, grown).hull == 0


def test_convex_implies_isometric_implies_connected(connected_corpus):
    rng = random.Random(13)
    for _name, g in connected_corpus:
        if g.n == 0:
            continue
        for _ in range(8):
            members = mask_of(v for v in range(g.n) if rng.random() < 0.4)
            if members == 0:
                continue
            if is_convex(g, members):
                assert is_isometric(g, members)
            if is_isometric(g, members):
                assert connected_in(g, members)


def test_hull_matches_bruteforce_minimum(connected_corpus):
    rng = random.Random(3)
    for _name, g in connected_corpus:
        if not 1 <= g.n <= 8:
            continue
        for _ in range(10):
            seed = mask_of(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))
            assert convex_hull(g, seed).hull == min_convex_superset(g, seed)
