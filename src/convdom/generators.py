"""Deterministic graph family builders and seeded random fixture generators.

Random generators take an explicit 64-bit seed and draw from a private
``random.Random`` (Mersenne Twister, identifier ``RNG_ALGORITHM``), so a
``GenSpec`` reproduces the same graph bit for bit on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import PreconditionError
from .graph import Graph, iter_bits

RNG_ALGORITHM = "mt19937"

RANDOM_FAMILIES = ("random_chordal", "random_split", "random_interval")
FAMILIES = ("path", "cycle", "star", "complete", "A1", "Bn") + RANDOM_FAMILIES

DEFAULT_DENSITY = 0.5


@dataclass(frozen=True)
class GenSpec:
    """A reproducible recipe for one fixture graph.

    ``n`` is the vertex count, or the family index for ``Bn``.  ``density``
    applies to the random families only.
    """

    family: str
    n: int
    seed: int = 0
    density: float = DEFAULT_DENSITY

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise PreconditionError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise PreconditionError("n must be at least 1")
        if not 0.0 <= self.density <= 1.0:
            raise PreconditionError("density must lie in [0, 1]")

    def filename(self) -> str:
        stem = f"{self.family}_n{self.n}"
        if self.family in RANDOM_FAMILIES:
            stem += f"_seed{self.seed}_d{self.density:g}"
        return stem + ".elist"

    def build(self) -> Graph:
        if self.family == "path":
            return make_path(self.n)
        if self.family == "cycle":
            return make_cycle(self.n)
        if self.family == "star":
            return make_star(self.n)
        if self.family == "complete":
            return make_complete(self.n)
        if self.family == "A1":
            return make_A1()
        if self.family == "Bn":
            return make_Bn(self.n)
        if self.family == "random_chordal":
            return random_chordal(self.n, self.seed, self.density)
        if self.family == "random_split":
            return random_split(self.n, self.seed, self.density)
        return random_interval(self.n, self.seed)


# -- deterministic families ---------------------------------------------------


def make_path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def make_star(n: int) -> Graph:
    """Star on ``n`` vertices: center 0 joined to every other vertex."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def make_complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_A1() -> Graph:
    """The 7-vertex spider: center 0 with three legs of length two."""
    return Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def make_Bn(n: int) -> Graph:
    """The apex-over-path family member with index ``n``.

    Bottom path ``p_0 .. p_{n+2}`` (ids 0..n+2), an apex (id n+3) adjacent
    to the n+1 internal path vertices, and a pendant (id n+4) hanging off
    the apex: n+5 vertices and 2n+4 edges.
    """
    if n < 1:
        raise PreconditionError("Bn is defined for n >= 1")
    apex = n + 3
    pendant = n + 4
    edges = [(i, i + 1) for i in range(n + 2)]
    edges += [(i, apex) for i in range(1, n + 2)]
    edges.append((apex, pendant))
    return Graph.from_edges(n + 5, edges)


# -- seeded random families ----------------------------------------------------


def random_chordal(n: int, seed: int, density: float = DEFAULT_DENSITY) -> Graph:
    """Connected chordal graph grown one simplicial vertex at a time.

    Each new vertex attaches to a clique inside the closed neighborhood of
    a random anchor, so the reverse insertion order is a perfect
    elimination ordering by construction.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    rng = Random(seed)
    rows = [0] * n
    for v in range(1, n):
        anchor = rng.randrange(v)
        clique = [anchor]
        candidates = [w for w in iter_bits(rows[anchor]) if w < v]
        rng.shuffle(candidates)
        for w in candidates:
            if rng.random() >= density:
                continue
            if all(rows[w] >> c & 1 for c in clique):
                clique.append(w)
        for w in clique:
            rows[v] |= 1 << w
            rows[w] |= 1 << v
    return Graph(n, tuple(rows))


def random_split(n: int, seed: int, density: float = DEFAULT_DENSITY) -> Graph:
    """Connected split graph: a clique, an independent set, random cross edges."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    rng = Random(seed)
    clique_size = 1 + rng.randrange(n)
    edges = [(i, j) for i in range(clique_size) for j in range(i + 1, clique_size)]
    for v in range(clique_size, n):
        hits = [c for c in range(clique_size) if rng.random() < density]
        if not hits:
            hits = [rng.randrange(clique_size)]
        edges.extend((c, v) for c in hits)
    return Graph.from_edges(n, edges)


def random_interval(n: int, seed: int) -> Graph:
    """Connected intersection graph of ``n`` random intervals on the line."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    rng = Random(seed)
    while True:
        spans = []
        for _ in range(n):
            a = rng.random()
            b = rng.random()
            spans.append((min(a, b), max(a, b)))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
        ]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


def random_connected(n: int, seed: int, density: float = DEFAULT_DENSITY) -> Graph:
    """Connected graph: random recursive tree plus density-driven extra edges."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    rng = Random(seed)
    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for u in range(n):
        for v in range(u + 1, n):
            if not rows[u] >> v & 1 and rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))
