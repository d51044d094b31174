"""Immutable bitset-backed graphs and the domination primitives.

Vertices are the dense ids ``0..n-1``.  A vertex set is a plain Python
``int`` used as a bitmask (bit ``v`` set means vertex ``v`` is a member),
which scales past 64 vertices for free and keeps the subset-enumeration
heavy solvers on cheap machine operations.  ``mask_of`` / ``vertices_of``
convert between masks and ordinary collections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InvalidVertexError, PreconditionError


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        if v < 0:
            raise InvalidVertexError(f"negative vertex id {v}")
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex ids."""
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph over vertex ids ``0..n-1``.

    ``adj[v]`` is the open neighborhood of ``v`` as a bitmask.  Instances
    are immutable (and hashable), so derived tables such as the distance
    table are computed lazily once and shared safely across threads.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise InvalidVertexError(f"adjacency of {v} mentions ids >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in iter_bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; loops and duplicates are rejected."""
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    # -- basic views ------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def closed_adj(self) -> tuple[int, ...]:
        """Closed neighborhoods ``N[v]`` as bitmasks."""
        return tuple(row | (1 << v) for v, row in enumerate(self.adj))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ordered pairs ``u < v``, sorted."""
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertexError(f"vertex {v} outside 0..{self.n - 1}")

    def check_mask(self, mask: int) -> None:
        if mask < 0 or mask & ~self.full_mask:
            raise InvalidVertexError(f"vertex set {bin(mask)} not within 0..{self.n - 1}")

    # -- distances --------------------------------------------------------

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs BFS hop counts, computed once per graph: ``[u][v]`` is
        the length of a shortest ``u,v``-path, -1 across components."""
        rows = []
        for src in range(self.n):
            row = [-1] * self.n
            for d, layer in enumerate(self.layers(src)):
                for v in iter_bits(layer):
                    row[v] = d
            rows.append(tuple(row))
        return tuple(rows)

    def layers(self, src: int, within: int | None = None) -> Iterator[int]:
        """Yield the breadth-first layers from ``src`` as bitmasks.

        The search stays inside the subgraph induced by ``within`` (all of
        ``g`` when None); layer ``d``, the ``d``-th mask yielded counting
        from 0, is the set of vertices at distance ``d`` from ``src`` there.
        Layer 0 is ``{src}`` whether or not ``src`` lies in ``within``.
        """
        allowed = self.full_mask if within is None else within
        adj = self.adj
        seen = frontier = 1 << src
        while frontier:
            yield frontier
            grow = 0
            for v in iter_bits(frontier):
                grow |= adj[v]
            frontier = grow & allowed & ~seen
            seen |= frontier

    @cached_property
    def interval_masks(self) -> tuple[tuple[int, ...], ...]:
        """Geodesic intervals ``I(u,v)`` as bitmasks, 0 for unreachable pairs."""
        dist = self.distances
        table = [[0] * self.n for _ in range(self.n)]
        for u in range(self.n):
            du = dist[u]
            for v in range(u, self.n):
                duv = du[v]
                if duv < 0:
                    continue
                dv = dist[v]
                m = 0
                for w in range(self.n):
                    if du[w] + dv[w] == duv:
                        m |= 1 << w
                table[u][v] = table[v][u] = m
        return tuple(tuple(r) for r in table)

    # -- connectivity -----------------------------------------------------

    def component_mask(self, v: int, within: int | None = None) -> int:
        """Bitmask of the component of ``v`` inside the induced subgraph ``within``."""
        self._check_vertex(v)
        allowed = self.full_mask if within is None else within
        if not allowed >> v & 1:
            raise PreconditionError(f"vertex {v} is not inside the restriction mask")
        seen = 0
        for layer in self.layers(v, allowed):
            seen |= layer
        return seen

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return self.component_mask(0) == self.full_mask


# -- domination primitives -------------------------------------------------


def is_dominating(g: Graph, members: int) -> bool:
    """True when every vertex of ``g`` lies in ``N[members]``."""
    g.check_mask(members)
    covered = members
    for v in iter_bits(members):
        covered |= g.adj[v]
    return covered == g.full_mask


def require_connected(g: Graph, what: str) -> None:
    if g.n == 0 or not g.is_connected():
        raise PreconditionError(f"{what} requires a connected, non-empty graph")
