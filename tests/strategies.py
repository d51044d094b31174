"""Hypothesis strategies and rejection samplers shared by the tests."""

from random import Random

from hypothesis import strategies as st

from convdom import (
    Graph,
    find_dominating_pair,
    is_chordal_dp_graph,
    random_chordal,
    random_connected,
)

# Candidates a rejection sampler draws before giving up; acceptance falls
# steeply with n, so an unbounded loop can spin for good on large inputs.
REJECTION_TRIES = 1000


@st.composite
def connected_graphs(draw, max_n=12):
    """A random recursive tree plus extra edges: connected by construction."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Graph.from_edges(n, edges)


@st.composite
def two_component_graphs(draw, max_n=6):
    """The disjoint union of two connected graphs, the second one's ids
    shifted past the first's."""
    left = draw(connected_graphs(max_n))
    right = draw(connected_graphs(max_n))
    return Graph(left.n + right.n, left.adj + tuple(row << left.n for row in right.adj))


def random_chordal_dp(n: int, seed: int, density: float = 0.5) -> Graph:
    """Rejection-sample a connected chordal dominating pair graph.

    No direct sampler for the class is known; candidates come from
    ``random_chordal`` and are kept when the recognizer accepts them.
    Raises RuntimeError after ``REJECTION_TRIES`` rejected candidates.
    """
    rng = Random(seed)
    for _ in range(REJECTION_TRIES):
        g = random_chordal(n, rng.getrandbits(63), density)
        if is_chordal_dp_graph(g).holds:
            return g
    raise RuntimeError(
        f"no chordal dominating pair graph among {REJECTION_TRIES} candidates (n={n})"
    )


def random_weak_dp(n: int, seed: int, density: float = 0.5) -> Graph:
    """Rejection-sample a connected graph possessing a dominating pair.

    Raises RuntimeError after ``REJECTION_TRIES`` rejected candidates.
    """
    rng = Random(seed)
    for _ in range(REJECTION_TRIES):
        g = random_connected(n, rng.getrandbits(63), density)
        if find_dominating_pair(g) is not None:
            return g
    raise RuntimeError(
        f"no graph with a dominating pair among {REJECTION_TRIES} candidates (n={n})"
    )
