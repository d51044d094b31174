import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convdom import (
    DominatingPair,
    Graph,
    PreconditionError,
    SizeGuardError,
    contains_induced,
    find_dominating_pair,
    is_chordal,
    is_chordal_dp_graph,
    is_dominating_pair,
    is_dp_graph_bruteforce,
    is_valid_split_partition,
    iter_bits,
    make_A1,
    make_Bn,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    mask_of,
    split_partition,
    vertices_of,
    verify_witness,
)
from convdom.recognition import DP_BRUTEFORCE_BOUND, _bad_partners

from oracles import (
    all_cliques_of_maximum_size,
    connected_in,
    dp_by_path_enumeration,
    first_pair_by_scan,
    has_induced_long_cycle,
    induced_embedding_exists,
    minimal_cd_sets,
    pair_dominates_by_components,
)
from strategies import connected_graphs


# -- chordality ---------------------------------------------------------------


def _check_peo(g, order):
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in range(g.n) if g.has_edge(u, v) and pos[u] > pos[v]]
        for i, a in enumerate(later):
            for b in later[i + 1:]:
                assert g.has_edge(a, b), f"later neighbors {a},{b} of {v} not adjacent"


def _check_hole(g, hole):
    k = len(hole)
    assert k >= 4
    assert len(set(hole)) == k
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            assert g.has_edge(hole[i], hole[j]) == consecutive


def test_is_chordal_examples():
    c4 = is_chordal(make_cycle(4))
    assert not c4.chordal
    _check_hole(make_cycle(4), c4.hole)

    for tree in (make_path(7), make_star(6), make_A1()):
        verdict = is_chordal(tree)
        assert verdict.chordal
        _check_peo(tree, verdict.elimination_order)

    fan = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (0, 3), (0, 4)]
    )
    assert is_chordal(fan).chordal


def test_chordality_agrees_with_induced_cycle_search(corpus):
    for name, g in corpus:
        if g.n > 10:
            continue
        verdict = is_chordal(g)
        assert verdict.chordal == (not has_induced_long_cycle(g)), name
        if verdict.chordal:
            _check_peo(g, verdict.elimination_order)
        else:
            _check_hole(g, verdict.hole)


# -- split partitions ----------------------------------------------------------


def test_split_partition_examples():
    star = make_star(4)
    part = split_partition(star)
    assert part is not None
    assert part.clique == mask_of([0, 1])  # center plus the smallest leaf
    assert is_valid_split_partition(star, part)

    assert split_partition(make_cycle(4)) is None

    part = split_partition(make_complete(4))
    assert part.clique == mask_of([0, 1, 2, 3]) and part.independent == 0

    p3 = make_path(3)
    assert split_partition(p3).clique == mask_of([0, 1])


def test_split_partition_against_enumeration(corpus):
    for name, g in corpus:
        if g.n > 9:
            continue
        some_partition = any(
            not any(clique_side & ~g.closed_adj[v] for v in vertices_of(clique_side))
            and not any(
                g.adj[v] & (g.full_mask & ~clique_side)
                for v in vertices_of(g.full_mask & ~clique_side)
            )
            for clique_side in range(g.full_mask + 1)
        )
        part = split_partition(g)
        assert (part is not None) == some_partition, name
        if part is not None:
            assert is_valid_split_partition(g, part)
            best = max(m.bit_count() for m in all_cliques_of_maximum_size(g))
            assert part.clique.bit_count() == best


def test_split_lemma_minimal_cd_sets_live_in_a_maximum_clique(corpus):
    checked = 0
    for name, g in corpus:
        if g.n > 9 or not g.is_connected() or split_partition(g) is None:
            continue
        maxcliques = all_cliques_of_maximum_size(g)
        for d in minimal_cd_sets(g):
            assert any(d & ~c == 0 for c in maxcliques), (name, d)
        checked += 1
    assert checked >= 5


# -- dominating pairs -----------------------------------------------------------


def test_is_dominating_pair_examples():
    assert is_dominating_pair(make_path(5), 0, 4)
    assert is_dominating_pair(make_cycle(6), 0, 3)
    assert not is_dominating_pair(make_cycle(7), 0, 3)
    with pytest.raises(PreconditionError):
        is_dominating_pair(Graph.from_edges(4, [(0, 1), (2, 3)]), 0, 2)


def test_component_criterion_equals_path_enumeration(connected_corpus):
    for name, g in connected_corpus:
        if g.n > 7:
            continue
        for x in range(g.n):
            for y in range(x, g.n):
                assert is_dominating_pair(g, x, y) == dp_by_path_enumeration(g, x, y), (
                    name,
                    x,
                    y,
                )


def test_find_dominating_pair_examples():
    # first verified pair of P6 is (0, 4): the path 0..4 already reaches 5
    assert find_dominating_pair(make_path(6)) == DominatingPair(0, 4, True)
    earlier = [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert not any(dp_by_path_enumeration(make_path(6), x, y) for x, y in earlier)
    assert dp_by_path_enumeration(make_path(6), 0, 4)

    assert find_dominating_pair(make_cycle(7)) is None
    assert find_dominating_pair(make_path(1)) == DominatingPair(0, 0, True)


@st.composite
def graphs_with_connected_masks(draw):
    """A connected graph and the component of a random vertex mask's least
    vertex: a connected induced subgraph."""
    g = draw(connected_graphs())
    mask = draw(st.integers(1, g.full_mask))
    return g, g.component_mask((mask & -mask).bit_length() - 1, mask)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graphs_with_connected_masks())
@example((make_path(6), 0b111111))  # first pair (0, 4)
@example((make_cycle(7), 0b1111111))  # no pair
@example((make_cycle(7), 0b0111111))  # P6 inside C7
def test_pair_routine_matches_per_pair_components(case):
    g, mask = case
    first = first_pair_by_scan(g, g.full_mask)
    expected = None if first is None else DominatingPair(*first, verified=True)
    assert find_dominating_pair(g) == expected
    for x in range(g.n):
        for y in range(g.n):
            assert is_dominating_pair(g, x, y) == pair_dominates_by_components(
                g, g.full_mask, x, y
            ), (x, y)

    bad = _bad_partners(g, mask)
    for x in iter_bits(mask):
        for y in iter_bits(mask):
            assert (bad[x] >> y & 1) != pair_dominates_by_components(g, mask, x, y), (x, y)
    has_pair = first_pair_by_scan(g, mask) is not None
    assert any(bad[x] != mask for x in iter_bits(mask)) == has_pair
    if g.n <= 7:
        assert is_dp_graph_bruteforce(g) == all(
            first_pair_by_scan(g, m) is not None
            for m in range(1, g.full_mask + 1)
            if connected_in(g, m)
        )


# -- induced-subgraph search ------------------------------------------------------


def test_contains_induced_examples():
    a1 = make_A1()
    assert contains_induced(a1, a1) == tuple(range(7))
    assert contains_induced(make_complete(5), make_path(3)) is None
    assert contains_induced(make_Bn(2), make_Bn(1)) is None
    assert induced_embedding_exists(make_Bn(2), make_Bn(1)) is False


def test_contains_induced_agrees_with_permutation_search(corpus):
    patterns = [make_path(3), make_path(4), make_cycle(4), make_star(4), make_complete(3)]
    for name, g in corpus:
        if g.n > 7:
            continue
        for pattern in patterns:
            got = contains_induced(g, pattern)
            assert (got is not None) == induced_embedding_exists(g, pattern), name
            if got is not None:
                for i in range(pattern.n):
                    for j in range(i + 1, pattern.n):
                        assert pattern.has_edge(i, j) == g.has_edge(got[i], got[j])


# -- chordal dominating pair recognition -------------------------------------------


def test_forbidden_family_members_are_rejected():
    verdict = is_chordal_dp_graph(make_A1())
    assert not verdict.holds
    assert verdict.witness.family == "A1"
    assert verify_witness(make_A1(), verdict.witness)

    verdict = is_chordal_dp_graph(make_Bn(1))
    assert not verdict.holds
    assert verdict.witness.family == "Bn" and verdict.witness.index == 1
    assert verify_witness(make_Bn(1), verdict.witness)

    for idx in (2, 3, 4):
        verdict = is_chordal_dp_graph(make_Bn(idx))
        assert not verdict.holds
        assert verify_witness(make_Bn(idx), verdict.witness)


def test_non_chordal_input_fails_with_hole():
    verdict = is_chordal_dp_graph(make_cycle(5))
    assert not verdict.holds and verdict.witness is None
    _check_hole(make_cycle(5), verdict.hole)


def test_interval_fixture_is_chordal_dp():
    from convdom import random_interval

    for seed in range(5):
        g = random_interval(8, seed)
        assert is_chordal_dp_graph(g).holds
        assert is_dp_graph_bruteforce(g)


def test_dp_bruteforce_examples():
    assert is_dp_graph_bruteforce(make_path(4))
    assert not is_dp_graph_bruteforce(make_A1())
    assert is_dp_graph_bruteforce(make_complete(5))
    with pytest.raises(SizeGuardError):
        is_dp_graph_bruteforce(make_path(DP_BRUTEFORCE_BOUND + 1))


def test_forbidden_characterization_matches_bruteforce(corpus):
    for name, g in corpus:
        if g.n > 10 or not is_chordal(g).chordal:
            continue
        assert is_chordal_dp_graph(g).holds == is_dp_graph_bruteforce(g), name
