"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's algorithmic shortcuts: paths are
enumerated explicitly, convex supersets are scanned exhaustively, and
induced subgraphs are matched by raw permutation search.  Keep them dumb.
"""

from collections import deque
from itertools import combinations, permutations

from convdom import Graph, is_dominating, iter_bits, mask_of, vertices_of
from convdom.convexity import convex_hull, is_convex, is_isometric


def dp_by_path_enumeration(g: Graph, x: int, y: int) -> bool:
    """Dominating-pair test straight from the definition.

    Walks every simple x,y-path; a prefix that already dominates proves the
    whole subtree dominating, which keeps dense graphs tractable.
    """
    full = g.full_mask
    cadj = g.closed_adj
    if x == y:
        return cadj[x] == full
    verdict = True

    def dfs(v: int, visited: int, covered: int) -> None:
        nonlocal verdict
        if not verdict or covered == full:
            return
        if v == y:
            verdict = False
            return
        for w in iter_bits(g.adj[v] & ~visited):
            dfs(w, visited | (1 << w), covered | cadj[w])

    dfs(x, 1 << x, cadj[x])
    return verdict


def min_convex_superset(g: Graph, seed: int) -> int:
    """Smallest convex superset of ``seed`` by scanning every superset."""
    comp = g.full_mask & ~seed
    best = None
    sub = comp
    while True:
        mask = seed | sub
        if is_convex(g, mask):
            key = (mask.bit_count(), mask)
            if best is None or key < best:
                best = key
        if sub == 0:
            break
        sub = (sub - 1) & comp
    assert best is not None, "the full vertex set is always convex"
    return best[1]


def small_idset_by_exhaustion(g: Graph) -> tuple[int, int] | None:
    """First isometric dominating set of at most 4 vertices, as (size, mask).

    Scans every subset by cardinality, then lexicographic order of the
    sorted vertex tuple; None when no such set exists.
    """
    for k in range(1, min(4, g.n) + 1):
        for combo in combinations(range(g.n), k):
            mask = mask_of(combo)
            if is_dominating(g, mask) and is_isometric(g, mask):
                return k, mask
    return None


def hull_sweep_by_seeds(g: Graph) -> tuple[int, int, int] | None:
    """Best (size, witness, seed) over the hulls of all seeds of at most
    four vertices, each closed from scratch.

    Seeds go by cardinality, then lexicographic order of the sorted vertex
    tuple; a hull replaces the best only when (size, witness mask) is
    strictly smaller, so the first seed of the winning hull is kept.  Seeds
    larger than the best size so far are skipped: a hull is at least as
    large as its seed.  None when no hull dominates.
    """
    best = None
    for k in range(1, min(4, g.n) + 1):
        if best is not None and k > best[0]:
            break
        for combo in combinations(range(g.n), k):
            seed = mask_of(combo)
            hull = convex_hull(g, seed).hull
            if is_dominating(g, hull):
                key = (hull.bit_count(), hull)
                if best is None or key < best[:2]:
                    best = (*key, seed)
    return best


def bfs_distances(g: Graph, src: int, within: int) -> dict[int, int]:
    """Hop distance from ``src`` to each vertex it reaches inside ``within``,
    by a queue BFS over vertex ids (``src`` itself at 0)."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in range(g.n):
            if within >> w & 1 and g.adj[u] >> w & 1 and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def isometric_by_induced_distances(g: Graph, members: int) -> bool:
    """Every member pair is as far apart inside ``members`` as in ``g``,
    unreachable counting as equal only to unreachable."""
    for u in iter_bits(members):
        in_g = bfs_distances(g, u, g.full_mask)
        inside = bfs_distances(g, u, members)
        if any(inside.get(w) != in_g.get(w) for w in iter_bits(members)):
            return False
    return True


def shortest_path_by_parents(g: Graph, allowed: int, src: int, dst: int) -> tuple[int, ...] | None:
    """Shortest ``src,dst``-path inside ``allowed`` read off the parent
    pointers of a queue BFS from ``src`` that scans neighbours in ascending
    order; None when ``dst`` is unreachable or equals ``src``."""
    parent = {src: -1}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in iter_bits(g.adj[u] & allowed):
                if w in parent:
                    continue
                parent[w] = u
                if w == dst:
                    path = [w]
                    while parent[path[-1]] != -1:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                nxt.append(w)
        frontier = nxt
    return None


def hole_by_parents(g: Graph) -> tuple[int, ...] | None:
    """First hole (v, u, ..., w) over vertices v and non-adjacent neighbour
    pairs u < w, closed by ``shortest_path_by_parents`` outside N[v]."""
    for v in range(g.n):
        for u, w in combinations(vertices_of(g.adj[v]), 2):
            if g.adj[u] >> w & 1:
                continue
            allowed = (g.full_mask & ~g.closed_adj[v]) | (1 << u) | (1 << w)
            path = shortest_path_by_parents(g, allowed, u, w)
            if path is not None:
                return (v,) + path
    return None


def connected_in(g: Graph, mask: int) -> bool:
    low = mask & -mask
    return g.component_mask(low.bit_length() - 1, mask) == mask


def has_induced_long_cycle(g: Graph) -> bool:
    """Chordality refuter: look for an induced cycle on >= 4 vertices."""
    for mask in range(g.full_mask + 1):
        if mask.bit_count() < 4:
            continue
        if all((g.adj[v] & mask).bit_count() == 2 for v in iter_bits(mask)):
            if connected_in(g, mask):
                return True
    return False


def induced_embedding_exists(g: Graph, pattern: Graph) -> bool:
    """Induced-subgraph search by raw permutation enumeration."""
    k = pattern.n
    for combo in combinations(range(g.n), k):
        for image in permutations(combo):
            if all(
                (pattern.adj[i] >> j & 1) == (g.adj[image[i]] >> image[j] & 1)
                for i in range(k)
                for j in range(i + 1, k)
            ):
                return True
    return False


def all_cliques_of_maximum_size(g: Graph) -> list[int]:
    best = 0
    found: list[int] = []
    for mask in range(g.full_mask + 1):
        if not _is_clique(g, mask):
            continue
        size = mask.bit_count()
        if size > best:
            best = size
            found = [mask]
        elif size == best:
            found.append(mask)
    return found


def _is_clique(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if mask & ~g.closed_adj[v]:
            return False
    return True


def all_cd_sets(g: Graph) -> list[int]:
    return [
        mask
        for mask in range(1, g.full_mask + 1)
        if is_dominating(g, mask) and is_convex(g, mask)
    ]


def minimal_cd_sets(g: Graph) -> list[int]:
    cd = all_cd_sets(g)
    return [d for d in cd if not any(o != d and o & ~d == 0 for o in cd)]


def gamma_plain(g: Graph) -> int:
    """Plain domination number by increasing-cardinality scan."""
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if is_dominating(g, mask_of(combo)):
                return k
    raise AssertionError("V(G) dominates")
