import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convdom import (
    DominatingPair,
    Graph,
    PreconditionError,
    SizeGuardError,
    WrongClassError,
    convex_hull,
    find_dominating_pair,
    gamma_bruteforce,
    gamma_con_bruteforce,
    gamma_con_hull4,
    gamma_iso,
    gamma_iso_bruteforce,
    gamma_iso_pair,
    is_chordal_dp_graph,
    is_dominating_pair,
    make_A1,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    mask_of,
    random_chordal,
    random_interval,
    vertices_of,
)
from convdom import records

from convdom.domination import BRUTEFORCE_BOUND, _hull_sweep, _search_shortest_path, _small_idset
from conftest import time_limit
from oracles import (
    gamma_plain,
    hull_sweep_by_seeds,
    shortest_path_by_dfs,
    small_idset_by_exhaustion,
)
from strategies import connected_graphs

# One connected weak-dp graph whose different verified pairs drive the staged
# solver through stages 2, 3, and 5 (found by scanning seeded random graphs,
# then frozen; gamma_iso is 5 however it is reached).
STAGED_EDGES = [(0, 1), (0, 6), (0, 8), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 7)]

# Two x->y corridors: the short one under-dominates with leftovers on both
# endpoint neighborhoods, so only a distance d(x,y)-1 path through the long
# corridor dominates, which is exactly the stage-4 situation.
STAGE4_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
    (0, 6), (5, 10),
    (6, 7), (7, 8), (8, 9), (9, 10),
    (1, 7), (2, 8), (3, 9), (4, 9),
]


def staged_graph():
    return Graph.from_edges(9, STAGED_EDGES)


def stage4_graph():
    return Graph.from_edges(11, STAGE4_EDGES)


# -- brute-force oracles --------------------------------------------------------


def test_gamma_con_bruteforce_examples():
    star = gamma_con_bruteforce(make_star(5))
    assert (star.value, star.witness) == (1, mask_of([0]))
    p4 = gamma_con_bruteforce(make_path(4))
    assert (p4.value, vertices_of(p4.witness)) == (2, (1, 2))
    p6 = gamma_con_bruteforce(make_path(6))
    assert (p6.value, vertices_of(p6.witness)) == (4, (1, 2, 3, 4))
    assert p6.certificate.dominating and p6.certificate.convex


def test_gamma_iso_bruteforce_examples():
    c4 = gamma_iso_bruteforce(make_cycle(4))
    assert (c4.value, vertices_of(c4.witness)) == (2, (0, 1))
    p6 = gamma_iso_bruteforce(make_path(6))
    assert (p6.value, vertices_of(p6.witness)) == (4, (1, 2, 3, 4))
    k1 = gamma_iso_bruteforce(make_complete(1))
    assert (k1.value, k1.witness) == (1, 1)
    assert k1.certificate.isometric


def test_bruteforce_guards():
    for oracle in (gamma_bruteforce, gamma_con_bruteforce, gamma_iso_bruteforce):
        with pytest.raises(SizeGuardError):
            oracle(make_path(BRUTEFORCE_BOUND + 1))
    with pytest.raises(PreconditionError):
        gamma_con_bruteforce(Graph.from_edges(4, [(0, 1), (2, 3)]))


# -- hull-of-small-seeds solver ---------------------------------------------------


def test_gamma_con_hull4_examples():
    star = gamma_con_hull4(make_star(5))
    assert (star.value, star.seed, star.witness) == (1, mask_of([0]), mask_of([0]))

    # adjacent dominating pair, no universal vertex: the edge itself wins
    p4 = gamma_con_hull4(make_path(4))
    assert is_dominating_pair(make_path(4), 1, 2)
    assert (p4.value, vertices_of(p4.seed), vertices_of(p4.witness)) == (2, (1, 2), (1, 2))

    p6 = gamma_con_hull4(make_path(6))
    assert (p6.value, vertices_of(p6.seed)) == (4, (1, 4))
    assert vertices_of(p6.witness) == (1, 2, 3, 4)
    assert p6.method == "hull4"

    # (1, 3) and (1, 2, 3) close to the same hull; the earlier seed wins
    p5 = gamma_con_hull4(make_path(5))
    assert (vertices_of(p5.seed), vertices_of(p5.witness)) == ((1, 3), (1, 2, 3))
    assert records.trace_field(p5.trace) == [[1, 3], [2]]


def test_hull4_result_invariants(connected_corpus):
    for name, g in connected_corpus:
        if g.n > 10 or not is_chordal_dp_graph(g).holds:
            continue
        result = gamma_con_hull4(g)
        assert result.seed.bit_count() <= 4, name
        assert convex_hull(g, result.seed).hull == result.witness, name
        assert result.certificate.dominating and result.certificate.convex, name
        assert result.trace.hull == result.witness


def test_hull4_matches_bruteforce_on_chordal_dp_corpus(connected_corpus):
    checked = 0
    for name, g in connected_corpus:
        if g.n > 10 or not is_chordal_dp_graph(g).holds:
            continue
        assert gamma_con_hull4(g).value == gamma_con_bruteforce(g).value, name
        checked += 1
    assert checked >= 20


def test_hull4_universal_vertex_law(connected_corpus):
    for name, g in connected_corpus:
        if g.n > 10 or not is_chordal_dp_graph(g).holds:
            continue
        universal = any(g.closed_adj[v] == g.full_mask for v in range(g.n))
        assert (gamma_con_hull4(g).value == 1) == universal, name


def test_hull_of_pair_upper_bound(connected_corpus):
    # |CH({x,y})| bounds gamma_con from above for any verified pair
    for name, g in connected_corpus:
        if g.n > 10 or not is_chordal_dp_graph(g).holds:
            continue
        optimum = gamma_con_bruteforce(g).value
        for x in range(g.n):
            for y in range(x, g.n):
                if is_dominating_pair(g, x, y):
                    hull = convex_hull(g, mask_of({x, y})).hull
                    assert hull.bit_count() >= optimum, (name, x, y)


def test_hull4_wrong_class_errors():
    with pytest.raises(WrongClassError) as err:
        gamma_con_hull4(make_cycle(7))
    assert err.value.hole is not None

    with pytest.raises(WrongClassError) as err:
        gamma_con_hull4(make_A1())
    assert err.value.witness is not None and err.value.witness.family == "A1"

    # trust skips recognition; A1 has gamma_con at most 4, so the sweep still
    # matches the oracle even off the promised class
    trusted = gamma_con_hull4(make_A1(), trust=True)
    assert trusted.value == gamma_con_bruteforce(make_A1()).value == 4

    # a hull of at most four vertices spans at most four legs and misses
    # the tip of the fifth, so even a trusted solve refutes the class
    with pytest.raises(WrongClassError):
        gamma_con_hull4(spider5(), trust=True)


def spider5():
    """Five legs of length 3 around the center 0."""
    return Graph.from_edges(16, [
        (0 if step == 1 else 3 * leg + step - 1, 3 * leg + step)
        for leg in range(5)
        for step in (1, 2, 3)
    ])


# -- dominating shortest-path search ------------------------------------------------


def test_find_dominating_shortest_path_examples():
    assert _search_shortest_path(make_path(6), 1, 4, 3, 0) == (1, 2, 3, 4)
    assert _search_shortest_path(make_cycle(6), 0, 3, 3, 0) == (0, 1, 2, 3)
    # the unique shortest 0,3-path of C7 leaves vertex 5 undominated
    assert _search_shortest_path(make_cycle(7), 0, 3, 3, 0) is None


@st.composite
def _path_searches(draw):
    """A connected graph, two vertices and a tolerated mask."""
    g = draw(connected_graphs(max_n=14))
    a = draw(st.integers(0, g.n - 1))
    b = draw(st.integers(0, g.n - 1))
    slack = draw(st.one_of(st.just(0), st.integers(0, g.full_mask)))
    return g, a, b, slack


# 0 - {1, 2} - 3 - {5, 6} - 7 with 4 ~ 2, 6 and 8 ~ 5: the step (1, 3) fails
# only because 4 stays undominated, so the step (2, 3) must still be tried
@example((Graph.from_edges(9, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (3, 6),
                               (4, 6), (5, 7), (6, 7), (5, 8)]), 0, 7, 0))
@settings(derandomize=True, deadline=None, max_examples=300)
@given(_path_searches())
def test_path_search_matches_plain_dfs(search):
    g, a, b, slack = search
    length = g.distances[a][b]
    assert _search_shortest_path(g, a, b, length, slack) == shortest_path_by_dfs(
        g, a, b, length, slack
    )


def _diamond_chain(k):
    """x - c0, then k diamonds c(i-1) - {u(i), v(i)} - c(i), then c(k) - y,
    plus w1 ~ u(k), y and w2 ~ v(k), y; as (graph, x, y).

    Every shortest c0,c(k)-path misses w1 or w2, and only the last diamond
    tells, so a search that re-enters failed steps takes 2^k expansions.
    """
    edges = [(0, 1)]  # x = 0, c0 = 1
    for i in range(1, k + 1):
        c_prev, u, v, c = 3 * i - 2, 3 * i - 1, 3 * i, 3 * i + 1
        edges += [(c_prev, u), (c_prev, v), (u, c), (v, c)]
    y, w1, w2 = 3 * k + 2, 3 * k + 3, 3 * k + 4
    edges += [(3 * k + 1, y), (3 * k - 1, w1), (y, w1), (3 * k, w2), (y, w2)]
    return Graph.from_edges(3 * k + 5, [tuple(sorted(e)) for e in edges]), 0, y


@pytest.mark.parametrize("k", [19, 100])
def test_gamma_iso_on_diamond_chain(k):
    g, x, y = _diamond_chain(k)
    pair = find_dominating_pair(g)
    assert (pair.x, pair.y) == (x, y)
    with time_limit(60):
        result = gamma_iso(g)
    assert (result.value, result.stage) == (2 * k + 2, 3)
    assert result.certificate.dominating and result.certificate.isometric


# -- staged isometric solver ----------------------------------------------------------


def test_gamma_iso_pair_stage1_examples():
    p6 = gamma_iso_pair(make_path(6), DominatingPair(0, 5, True))
    assert (p6.value, vertices_of(p6.witness), p6.stage) == (4, (1, 2, 3, 4), 1)

    # gamma_iso(C6) is 4: no pair of vertices is isometric and dominating at
    # once, and the consecutive triples all miss one vertex
    c6 = gamma_iso_pair(make_cycle(6), DominatingPair(0, 3, True))
    assert (c6.value, vertices_of(c6.witness), c6.stage) == (4, (0, 1, 2, 3), 1)
    assert gamma_iso_bruteforce(make_cycle(6)).value == 4

    star = gamma_iso_pair(make_star(5), DominatingPair(1, 2, True))
    assert (star.value, star.witness, star.stage) == (1, mask_of([0]), 1)

    # (0, 2, 3) has the smaller mask, but (0, 1, 5) comes first in
    # lexicographic order, and both are isometric dominating sets
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)])
    pinned = gamma_iso_pair(g, find_dominating_pair(g))
    assert (pinned.value, vertices_of(pinned.witness), pinned.stage) == (3, (0, 1, 5), 1)

    # diameter 6 rules out every set of at most four vertices
    p7 = gamma_iso_pair(make_path(7), DominatingPair(0, 6, True))
    assert p7.value == 5 and p7.stage != 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(connected_graphs())
@example(make_cycle(10))  # diameter 5, yet no isometric dominating set of size <= 4
@example(make_path(7))  # diameter 6
def test_small_idset_matches_exhaustion(g):
    assert _small_idset(g) == small_idset_by_exhaustion(g)


def _sweep_interval_graph(n, rng, longest):
    """Each interval starts inside the span covered so far: connected."""
    spans = [(0, rng.randint(1, longest))]
    right = spans[0][1]
    for _ in range(n - 1):
        start = rng.randint(0, right)
        spans.append((start, start + rng.randint(1, longest)))
        right = max(right, spans[-1][1])
    return Graph.from_edges(n, [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ])


def _sweep_caterpillar(n, rng):
    spine = rng.randint(2, 8)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), leaf) for leaf in range(spine, n)]
    return Graph.from_edges(n, edges)


def test_small_idset_matches_exhaustion_on_larger_graphs():
    rng = random.Random(5)
    diameters = set()
    found = set()
    for i in range(24):
        n = 20 + i % 13
        if i % 2:
            g = _sweep_caterpillar(n, rng)
        else:
            g = _sweep_interval_graph(n, rng, 2 + i // 2 % 6)
        small = _small_idset(g)
        assert small == small_idset_by_exhaustion(g), i
        diameters.add(max(map(max, g.distances)))
        found.add(small is not None)
    assert {4, 5} <= diameters and max(diameters) > 5
    assert found == {True, False}


# -- hull sweep against the flat reference -------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=200)
@given(connected_graphs())
@example(make_path(5))  # two seeds close to the winning hull
@example(spider5())  # no hull of at most four vertices dominates
def test_hull_sweep_matches_flat_sweep(g):
    assert _hull_sweep(g) == hull_sweep_by_seeds(g)


def _winning_seeds(g, best):
    """How many seeds of at most four vertices close to the winning hull."""
    size, witness, _seed = best
    return sum(
        convex_hull(g, mask_of(combo)).hull == witness
        for k in range(1, min(4, size) + 1)
        for combo in combinations(range(g.n), k)
    )


def test_hull_sweep_matches_flat_sweep_on_larger_graphs():
    rng = random.Random(11)
    outcomes = []
    for i in range(15):
        n = 18 + i % 7
        if i % 3 == 0:
            g = random_interval(n, 300 + i)
        elif i % 3 == 1:
            g = random_chordal(n, 300 + i, 0.2)
        else:
            g = _sweep_caterpillar(n, rng)
        best = _hull_sweep(g)
        assert best == hull_sweep_by_seeds(g), i
        outcomes.append(None if best is None else _winning_seeds(g, best))
    # the tie-break decides on several inputs, and some have no dominating hull
    assert sum(1 for seeds in outcomes if seeds and seeds > 1) >= 3
    assert None in outcomes


def _golden_graphs():
    rng = random.Random(2024)
    graphs = [random_interval(18 + i % 2, 700 + i) for i in range(20)]
    graphs += [_sweep_interval_graph(18 + i % 2, rng, 2 + i % 6) for i in range(20)]
    return graphs


# sha256 of the hull4 records of _golden_graphs(), computed with the flat
# sweep that closed every seed from scratch
HULL4_GOLDEN = "909cd6f5d421270d7280c0ee8d4ae3d4a7184ddc77fc708fdaf1877cf61012f6"


def test_hull4_records_match_golden():
    digest = hashlib.sha256()
    for g in _golden_graphs():
        result = gamma_con_hull4(g, trust=True)
        digest.update(records.to_line(records.solver_fields(result)).encode())
    assert digest.hexdigest() == HULL4_GOLDEN


def test_gamma_iso_pair_rejects_unverified_pairs():
    with pytest.raises(PreconditionError):
        gamma_iso_pair(make_path(6), DominatingPair(0, 5, False))


def test_staged_solver_reaches_every_stage():
    g = staged_graph()
    oracle = gamma_iso_bruteforce(g).value
    assert oracle == 5
    # (7, 0) tolerates leftovers in N(0), so it must adjoin 0, not 7
    expectations = {(6, 7): 2, (0, 7): 3, (7, 0): 3, (0, 5): 5}
    for (x, y), stage in expectations.items():
        assert is_dominating_pair(g, x, y)
        result = gamma_iso_pair(g, DominatingPair(x, y, True))
        assert result.value == oracle, (x, y)
        assert result.stage == stage, (x, y)
        assert vertices_of(result.witness) == (0, 1, 2, 3, 5), (x, y)
        assert result.certificate.dominating and result.certificate.isometric

    g4 = stage4_graph()
    assert is_dominating_pair(g4, 0, 5)
    result = gamma_iso_pair(g4, DominatingPair(0, 5, True))
    assert (result.value, result.stage) == (5, 4)
    assert result.value == gamma_iso_bruteforce(g4).value
    assert vertices_of(result.witness) == (1, 7, 8, 9, 10)


def test_staged_values_are_pair_independent():
    for g in (staged_graph(), stage4_graph(), make_path(8)):
        oracle = gamma_iso_bruteforce(g).value
        dist = g.distances
        pairs = [
            (x, y)
            for x in range(g.n)
            for y in range(x, g.n)
            if is_dominating_pair(g, x, y)
        ]
        assert pairs
        for x, y in pairs:
            result = gamma_iso_pair(g, DominatingPair(x, y, True))
            assert result.value == oracle, (x, y)
            assert dist[x][y] - 1 <= result.value <= dist[x][y] + 1


def test_gamma_iso_entry_point():
    p7 = gamma_iso(make_path(7))
    assert p7.value == 5 == gamma_iso_bruteforce(make_path(7)).value
    assert gamma_iso(make_complete(2)).value == 1
    with pytest.raises(WrongClassError):
        gamma_iso(make_cycle(7))
    with pytest.raises(PreconditionError):
        gamma_iso(Graph.from_edges(4, [(0, 1), (2, 3)]))


# -- cross-solver invariants -------------------------------------------------------


def test_domination_chain(connected_corpus):
    for name, g in connected_corpus:
        if g.n > 9:
            continue
        plain = gamma_plain(g)
        iso = gamma_iso_bruteforce(g).value
        con = gamma_con_bruteforce(g).value
        assert plain <= iso <= con, name
        assert gamma_bruteforce(g).value == plain, name
