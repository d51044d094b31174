"""Seeded request inputs: one edge-list text per request.

Input ``i`` of a workload depends only on the workload name, the seed and
``i``, so every run with the same seed serves the same texts in the same
order however many requests it gets through.  Within a run no text
repeats: a redraw replaces any duplicate, so per-graph caches in the
program never hit.
"""

from __future__ import annotations

from random import Random

# Workload name -> sizes cycled every four requests; cycling (rather than
# drawing) keeps the size mix identical across seeds, and stepping every
# four requests pairs each audit family with every size.
SIZES = {
    "convex-verified": (14,),
    "convex-trusted": (18, 19),
    "isometric": (32,),
    "audit": (9, 10, 11, 12),
}

# The mix of families and sizes repeats every PERIOD requests.
PERIOD = 16

# An interval starts at most REACH units left of the covered span's right
# end and is LENGTH_MIN..LENGTH_MAX units long.
REACH = 8
LENGTH_MIN = 1
LENGTH_MAX = 6


def to_text(n: int, edges) -> str:
    """Edge-list text: ``n m`` header, then ``u v`` with u < v, sorted."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def _relabel(n: int, edges, rng: Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def interval_graph(n: int, rng: Random) -> str:
    """Sparse, long-diameter interval graph on ``n`` vertices.

    Every new interval starts inside the span covered so far, so it meets
    an earlier interval (the graph is connected) and the span grows by a
    few units per vertex (the diameter grows with ``n``).  Interval graphs
    are chordal dominating pair graphs.
    """
    spans = [(0, rng.randint(LENGTH_MIN, LENGTH_MAX))]
    right = spans[0][1]
    for _ in range(n - 1):
        start = rng.randint(max(0, right - REACH), right)
        end = start + rng.randint(LENGTH_MIN, LENGTH_MAX)
        spans.append((start, end))
        right = max(right, end)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ]
    return to_text(n, _relabel(n, edges, rng))


def caterpillar(n: int, rng: Random) -> str:
    """Caterpillar on ``n`` vertices: a spine path with pendant leaves.

    Caterpillars are exactly the trees that have a dominating pair.
    """
    spine = rng.randint(n // 3, n // 2)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), leaf) for leaf in range(spine, n)]
    return to_text(n, _relabel(n, edges, rng))


def _audit_graph(i: int, n: int, rng: Random) -> str:
    from convdom import generators

    family = i % 4
    seed = rng.getrandbits(63)
    if family == 0:
        g = generators.random_connected(n, seed, 0.3)
    elif family == 1:
        g = generators.random_split(n, seed, 0.4)
    elif family == 2:
        g = generators.random_chordal(n, seed, 0.5)
    else:
        g = generators.random_interval(n, seed)
    return to_text(g.n, g.edges())


def _draw(workload: str, i: int, rng: Random) -> str:
    sizes = SIZES[workload]
    n = sizes[i // 4 % len(sizes)]
    if workload == "isometric":
        return interval_graph(n, rng) if i % 2 == 0 else caterpillar(n, rng)
    if workload == "audit":
        return _audit_graph(i, n, rng)
    return interval_graph(n, rng)


class InputStream:
    """Deterministic, duplicate-free sequence of request texts."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in SIZES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.texts: list[str] = []
        self._seen: set[str] = set()

    def extend(self, count: int) -> None:
        """Generate inputs until ``count`` are available."""
        while len(self.texts) < count:
            i = len(self.texts)
            rng = Random(f"{self.workload}/{self.seed}/{i}")
            text = _draw(self.workload, i, rng)
            while text in self._seen:
                text = _draw(self.workload, i, rng)
            self._seen.add(text)
            self.texts.append(text)

    def __getitem__(self, i: int) -> str:
        self.extend(i + 1)
        return self.texts[i]
