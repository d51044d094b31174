import pytest

from convdom import reduction
from convdom import (
    Graph,
    PreconditionError,
    SizeGuardError,
    SplitPartition,
    WrongClassError,
    build_np_gadget,
    gamma_con_bruteforce,
    is_chordal,
    is_dominating_pair,
    make_complete,
    make_path,
    make_star,
    mask_of,
    random_split,
    split_partition,
    verify_gadget_equivalence,
)


def test_gadget_on_single_vertex():
    g1 = make_complete(1)
    out = build_np_gadget(g1, split_partition(g1))
    assert out.graph.n == 4
    assert (out.x, out.y, out.y_prime) == (1, 2, 3)
    assert sorted(out.graph.edges()) == [(0, 1), (0, 2), (2, 3)]
    assert is_chordal(out.graph).chordal
    assert is_dominating_pair(out.graph, out.x, out.y)


def test_gadget_on_star():
    star = make_star(4)
    part = split_partition(star)  # clique side: center plus one leaf
    out = build_np_gadget(star, part)
    assert out.graph.n == 7
    assert out.graph.adj[out.y] == part.clique | (1 << out.y_prime)
    assert out.graph.adj[out.x] == (1 << star.n) - 1
    assert out.graph.adj[out.y_prime] == 1 << out.y
    assert out.source_map == (0, 1, 2, 3)


def test_gadget_on_triangle():
    k3 = make_complete(3)
    out = build_np_gadget(k3, split_partition(k3))
    assert out.graph.adj[out.x] == mask_of([0, 1, 2])
    assert out.graph.adj[out.y] == mask_of([0, 1, 2]) | (1 << out.y_prime)


def test_gadget_rejects_bad_partitions():
    star = make_star(4)
    # {center} alone is a valid-looking split side but not a maximum clique
    with pytest.raises(PreconditionError):
        build_np_gadget(star, SplitPartition(mask_of([0]), mask_of([1, 2, 3])))
    with pytest.raises(PreconditionError):
        build_np_gadget(star, SplitPartition(mask_of([1, 2]), mask_of([0, 3])))
    with pytest.raises(PreconditionError):
        build_np_gadget(Graph.from_edges(4, [(0, 1), (2, 3)]), SplitPartition(0, 0))


def test_equivalence_examples():
    report = verify_gadget_equivalence(make_star(4), 1)
    assert report.input_within_k and report.gadget_within_k_plus_1 and report.holds
    assert report.input_result.value == 1
    assert report.gadget_result.value == 2

    report = verify_gadget_equivalence(make_complete(3), 0)
    assert not report.input_within_k and not report.gadget_within_k_plus_1
    assert report.holds

    assert verify_gadget_equivalence(make_path(3), 1).holds


def test_equivalence_guards():
    with pytest.raises(WrongClassError):
        verify_gadget_equivalence(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 1)
    with pytest.raises(PreconditionError):
        verify_gadget_equivalence(make_path(3), -1)
    with pytest.raises(SizeGuardError):
        verify_gadget_equivalence(random_split(12, 1), 1)


def test_gadget_shifts_gamma_con_by_one():
    for seed in range(8):
        g = random_split(3 + seed % 7, seed, 0.45)
        part = split_partition(g)
        out = build_np_gadget(g, part)
        assert (
            gamma_con_bruteforce(out.graph).value
            == gamma_con_bruteforce(g).value + 1
        ), seed
        for k in range(1, g.n + 1):
            assert verify_gadget_equivalence(g, k).holds, (seed, k)


def test_gamma_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(reduction, "_GAMMA_CACHE", {})
    solved = set()
    for seed in range(reduction.GAMMA_CACHE_SIZE):
        g = random_split(4 + seed % 6, 100 + seed, 0.45)
        solved |= {g, verify_gadget_equivalence(g, 1).gadget.graph}
        assert len(reduction._GAMMA_CACHE) <= reduction.GAMMA_CACHE_SIZE
    assert len(solved) > reduction.GAMMA_CACHE_SIZE


def test_k_sweep_solves_each_side_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return gamma_con_bruteforce(g)

    monkeypatch.setattr(reduction, "gamma_con_bruteforce", counting)
    monkeypatch.setattr(reduction, "_GAMMA_CACHE", {})
    g = random_split(7, 3, 0.45)
    for k in range(g.n + 1):
        verify_gadget_equivalence(g, k)
    assert len(calls) == 2
    assert calls[0] == g and calls[1] == build_np_gadget(g, split_partition(g)).graph
