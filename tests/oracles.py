"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's algorithmic shortcuts: paths are
enumerated explicitly, convex supersets are scanned exhaustively, and
induced subgraphs are matched by raw permutation search.  Keep them dumb.
"""

from itertools import combinations, permutations

from convdom import Graph, is_dominating, iter_bits, mask_of
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
