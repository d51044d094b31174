import pytest

from convdom import (
    GenSpec,
    PreconditionError,
    is_chordal,
    is_chordal_dp_graph,
    is_dp_graph_bruteforce,
    find_dominating_pair,
    make_A1,
    make_Bn,
    random_chordal,
    random_connected,
    random_interval,
    random_split,
    split_partition,
)
from convdom import recognition

import strategies
from strategies import random_chordal_dp, random_weak_dp


def test_A1_shape():
    a1 = make_A1()
    assert a1.n == 7
    assert a1.edge_count == 6
    assert is_chordal(a1).chordal
    assert not is_dp_graph_bruteforce(a1)
    assert sorted(a1.degree(v) for v in range(7)) == [1, 1, 1, 2, 2, 2, 3]


@pytest.mark.parametrize("idx", [1, 2, 3, 4, 5])
def test_Bn_shape(idx):
    g = make_Bn(idx)
    assert g.n == idx + 5
    assert g.edge_count == 2 * idx + 4
    assert is_chordal(g).chordal
    apex = idx + 3
    assert g.degree(apex) == idx + 2  # n+1 path vertices plus the pendant
    assert g.degree(idx + 4) == 1


def test_Bn_members_are_not_dp_graphs():
    for idx in (1, 2, 3):
        g = make_Bn(idx)
        assert not is_dp_graph_bruteforce(g)
        assert not is_chordal_dp_graph(g).holds


def test_Bn_rejects_bad_index():
    with pytest.raises(PreconditionError):
        make_Bn(0)


def test_generators_are_deterministic():
    assert random_chordal(8, 42) == random_chordal(8, 42)
    assert random_split(9, 7, 0.3) == random_split(9, 7, 0.3)
    assert random_interval(8, 5) == random_interval(8, 5)
    assert random_connected(8, 3, 0.4) == random_connected(8, 3, 0.4)
    spec = GenSpec("random_chordal", 8, 42)
    assert spec.build() == spec.build()
    assert random_chordal(8, 42) != random_chordal(8, 43)


def test_random_chordal_postconditions():
    for seed in range(10):
        g = random_chordal(1 + seed, seed, 0.6)
        assert g.is_connected()
        assert is_chordal(g).chordal


def test_random_split_postconditions():
    for seed in range(10):
        g = random_split(1 + seed, seed)
        assert g.is_connected()
        assert split_partition(g) is not None


def test_random_interval_postconditions():
    for seed in range(8):
        g = random_interval(2 + seed, seed)
        assert g.is_connected()
        assert is_chordal(g).chordal
        # interval graphs sit inside AT-free, hence inside dp graphs
        assert is_dp_graph_bruteforce(g)
        assert is_chordal_dp_graph(g).holds


def test_rejection_samplers():
    for seed in range(4):
        g = random_chordal_dp(8, seed)
        assert is_chordal_dp_graph(g).holds
        h = random_weak_dp(8, seed, 0.25)
        assert find_dominating_pair(h) is not None


def test_rejection_samplers_give_up(monkeypatch):
    monkeypatch.setattr(
        strategies, "is_chordal_dp_graph", lambda g: recognition.ChordalDpResult(False)
    )
    monkeypatch.setattr(strategies, "find_dominating_pair", lambda g: None)
    with pytest.raises(RuntimeError, match="among 1000 candidates"):
        random_chordal_dp(6, 1)
    with pytest.raises(RuntimeError, match="among 1000 candidates"):
        random_weak_dp(6, 1)


def test_genspec_filenames_and_validation():
    assert GenSpec("path", 6).filename() == "path_n6.elist"
    assert GenSpec("random_split", 9, 7, 0.25).filename() == "random_split_n9_seed7_d0.25.elist"
    assert GenSpec("Bn", 2).build().n == 7
    with pytest.raises(PreconditionError):
        GenSpec("blob", 5)
    with pytest.raises(PreconditionError):
        GenSpec("path", 0)
    with pytest.raises(PreconditionError):
        GenSpec("random_chordal", 5, density=1.5)
