"""Seeded stress runs hammering the subtle fast paths a bit harder.

Everything here re-checks a clever implementation against a dumb one on
randomized input; failures would point at heuristics cutting corners.
"""

import random

from convdom import (
    DominatingPair,
    Graph,
    contains_induced,
    find_dominating_pair,
    gamma_iso_bruteforce,
    gamma_iso_pair,
    is_chordal,
    is_dominating_pair,
    iter_bits,
    make_A1,
    make_Bn,
    mask_of,
    random_connected,
    vertices_of,
)
from convdom.recognition import _bad_partners

from oracles import (
    connected_in,
    dp_by_path_enumeration,
    has_induced_long_cycle,
    induced_embedding_exists,
)


def test_pair_existence_from_bad_partners_matches_plain_scan():
    rng = random.Random(41)
    for trial in range(150):
        n = 4 + trial % 6
        g = random_connected(n, rng.getrandbits(63), 0.25 + 0.05 * (trial % 6))
        for _ in range(6):
            mask = mask_of(v for v in range(n) if rng.random() < 0.7)
            if mask == 0 or not connected_in(g, mask):
                continue
            verts = vertices_of(mask)
            plain = any(
                is_dominating_pair(*_induced_with_pair(g, mask, x, y))
                for i, x in enumerate(verts)
                for y in verts[i:]
            )
            bad = _bad_partners(g, mask)
            assert any(bad[x] != mask for x in verts) == plain


def _induced_with_pair(g, mask, x, y):
    """The subgraph induced by ``mask``, renumbered, with x and y renumbered too."""
    keep = vertices_of(mask)
    index = {old: new for new, old in enumerate(keep)}
    rows = []
    for old in keep:
        row = 0
        for w in iter_bits(g.adj[old] & mask):
            row |= 1 << index[w]
        rows.append(row)
    return Graph(len(keep), tuple(rows)), index[x], index[y]


def test_chordality_on_a_larger_random_batch():
    rng = random.Random(43)
    for trial in range(200):
        n = 4 + trial % 7
        g = random_connected(n, rng.getrandbits(63), 0.2 + 0.08 * (trial % 8))
        assert is_chordal(g).chordal == (not has_induced_long_cycle(g))


def test_forbidden_pattern_search_against_permutations():
    rng = random.Random(47)
    patterns = [("A1", make_A1()), ("B1", make_Bn(1))]
    for trial in range(30):
        n = 7 + trial % 2
        g = random_connected(n, rng.getrandbits(63), 0.3)
        for name, pattern in patterns:
            if pattern.n > g.n:
                continue
            fast = contains_induced(g, pattern)
            assert (fast is not None) == induced_embedding_exists(g, pattern), (name, trial)


def _caterpillar(spine: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for v in range(spine):
        for _ in range(rng.randrange(3)):
            if n >= 12:
                break
            edges.append((v, n))
            n += 1
    return Graph.from_edges(n, edges)


def test_staged_solver_on_caterpillars():
    # caterpillars are the trees possessing dominating pairs; their spines
    # force the deeper stages of the search
    for seed in range(40):
        g = _caterpillar(3 + seed % 6, seed)
        pair = find_dominating_pair(g)
        assert pair is not None, seed
        oracle = gamma_iso_bruteforce(g).value
        for x in range(g.n):
            for y in range(x, g.n):
                if is_dominating_pair(g, x, y):
                    got = gamma_iso_pair(g, DominatingPair(x, y, True))
                    assert got.value == oracle, (seed, x, y)


def test_component_criterion_on_denser_graphs():
    rng = random.Random(53)
    for trial in range(60):
        n = 5 + trial % 4
        g = random_connected(n, rng.getrandbits(63), 0.55)
        for x in range(g.n):
            for y in range(x, g.n):
                assert is_dominating_pair(g, x, y) == dp_by_path_enumeration(g, x, y)
