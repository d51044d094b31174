"""Immutable bitset-backed graphs and the domination primitives.

Vertices are the dense ids ``0..n-1``.  A vertex set is a plain Python
``int`` used as a bitmask (bit ``v`` set means vertex ``v`` is a member),
which scales past 64 vertices for free and keeps the subset-enumeration
heavy solvers on cheap machine operations.  ``mask_of`` / ``vertices_of``
convert between masks and ordinary collections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InvalidVertexError, PreconditionError

INF = math.inf


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


class DistanceMatrix:
    """All-pairs shortest-path hop counts, ``INF`` marking unreachable pairs."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: tuple[tuple[float, ...], ...]) -> None:
        self.n = len(rows)
        self.rows = rows

    def d(self, u: int, v: int) -> float:
        return self.rows[u][v]

    def __getitem__(self, u: int) -> tuple[float, ...]:
        return self.rows[u]

    def diameter(self) -> float:
        """Largest entry; ``INF`` as soon as some pair is unreachable."""
        if self.n == 0:
            return 0
        worst = 0
        for row in self.rows:
            m = max(row)
            if m == INF:
                return INF
            if m > worst:
                worst = m
        return worst


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph over vertex ids ``0..n-1``.

    ``adj[v]`` is the open neighborhood of ``v`` as a bitmask.  Instances
    are immutable (and hashable), so derived tables such as the distance
    matrix are computed lazily once and shared safely across threads.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
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
    def distances(self) -> DistanceMatrix:
        """All-pairs BFS distances, computed once per graph."""
        rows = []
        for src in range(self.n):
            rows.append(tuple(self._bfs_row(src)))
        return DistanceMatrix(tuple(rows))

    def _bfs_row(self, src: int) -> list[float]:
        row: list[float] = [INF] * self.n
        for d, layer in enumerate(self.layers(src)):
            for v in iter_bits(layer):
                row[v] = d
        return row

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
                if duv == INF:
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

    def induced(self, mask: int) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``mask`` plus the old-id of each new vertex."""
        self.check_mask(mask)
        keep = vertices_of(mask)
        index = {old: new for new, old in enumerate(keep)}
        rows = []
        for old in keep:
            row = 0
            for w in iter_bits(self.adj[old] & mask):
                row |= 1 << index[w]
            rows.append(row)
        return Graph(len(keep), tuple(rows)), keep


# -- domination primitives -------------------------------------------------


def closed_neighborhood(g: Graph, members: int) -> int:
    """Union of closed neighborhoods over the vertex-set bitmask ``members``."""
    g.check_mask(members)
    out = members
    for v in iter_bits(members):
        out |= g.adj[v]
    return out


def is_dominating(g: Graph, members: int) -> bool:
    """True when every vertex of ``g`` lies in ``N[members]``."""
    return closed_neighborhood(g, members) == g.full_mask


def private_neighbors(g: Graph, u: int, members: int) -> int:
    """Vertices ``w`` with ``N[w]`` meeting ``members`` exactly in ``{u}``."""
    g.check_mask(members)
    g._check_vertex(u)
    if not members >> u & 1:
        raise PreconditionError(f"vertex {u} is not a member of the set")
    want = 1 << u
    out = 0
    cadj = g.closed_adj
    for w in range(g.n):
        if cadj[w] & members == want:
            out |= 1 << w
    return out


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """The (cached) all-pairs shortest-path matrix of ``g``."""
    return g.distances


def diameter(g: Graph) -> float:
    """Maximum distance over all pairs; ``INF`` when ``g`` is disconnected."""
    return g.distances.diameter()


def require_connected(g: Graph, what: str) -> None:
    if not g.is_connected():
        raise PreconditionError(f"{what} requires a connected graph")
