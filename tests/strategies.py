"""Hypothesis strategies shared by the differential tests."""

from hypothesis import strategies as st

from convdom import Graph


@st.composite
def connected_graphs(draw, max_n=12):
    """A random recursive tree plus extra edges: connected by construction."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Graph.from_edges(n, edges)
