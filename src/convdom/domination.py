"""Convex and isometric domination solvers with brute-force oracles.

``gamma_con_hull4`` sweeps convex hulls of all seeds of at most four
vertices, which realizes an optimal convex dominating set on every chordal
dominating pair graph; seeds grow level by level from their parents'
hulls.  ``gamma_iso_pair`` runs the staged shortest-path algorithm that
pins the isometric domination number of a weak dominating pair graph to
one of d(x,y)-1, d(x,y), d(x,y)+1 once small solutions are ruled out.
The ``*_bruteforce`` oracles decide the same optima by plain subset
enumeration at desk scale and exist to keep the fast paths honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .convexity import HullTrace, closure, convex_hull, is_convex, is_isometric
from .errors import PreconditionError, SizeGuardError, WrongClassError
from .graph import Graph, is_dominating, iter_bits, mask_of, require_connected, vertices_of
from .recognition import DominatingPair, find_dominating_pair, is_chordal_dp_graph

BRUTEFORCE_BOUND = 14


@dataclass(frozen=True)
class Certificate:
    """Independently re-verified predicate flags for a witness set."""

    dominating: bool
    convex: bool
    isometric: bool


@dataclass(frozen=True)
class SolverResult:
    """Optimum value plus the witness set and its verification trail."""

    value: int
    witness: int
    method: str
    certificate: Certificate
    seed: int | None = None
    trace: HullTrace | None = None
    stage: int | None = None


def certify(g: Graph, witness: int) -> Certificate:
    """Recompute all three predicate flags for ``witness`` from scratch."""
    return Certificate(
        dominating=is_dominating(g, witness),
        convex=is_convex(g, witness),
        isometric=is_isometric(g, witness),
    )


def _subsets_by_size(n: int, smallest: int, largest: int):
    """Masks of all subsets sized ``smallest..largest``, by cardinality then
    lexicographic order of the sorted vertex tuple."""
    for k in range(smallest, largest + 1):
        for combo in combinations(range(n), k):
            yield mask_of(combo)


# -- brute-force oracles ------------------------------------------------------


def gamma_bruteforce(g: Graph) -> SolverResult:
    """Plain domination number by subset enumeration (support plumbing)."""
    witness = _first_subset(g, lambda mask: True)
    return SolverResult(witness.bit_count(), witness, "bruteforce", certify(g, witness))


def gamma_con_bruteforce(g: Graph) -> SolverResult:
    """Convex domination number by subset enumeration."""
    witness = _first_subset(g, lambda mask: is_convex(g, mask))
    return SolverResult(witness.bit_count(), witness, "bruteforce", certify(g, witness))


def gamma_iso_bruteforce(g: Graph) -> SolverResult:
    """Isometric domination number by subset enumeration."""
    witness = _first_subset(g, lambda mask: is_isometric(g, mask))
    return SolverResult(witness.bit_count(), witness, "bruteforce", certify(g, witness))


def _first_subset(g: Graph, extra) -> int:
    if g.n > BRUTEFORCE_BOUND:
        raise SizeGuardError(f"brute-force bound {BRUTEFORCE_BOUND} exceeded (n={g.n})")
    require_connected(g, "brute-force domination search")
    cadj = g.closed_adj
    full = g.full_mask
    for mask in _subsets_by_size(g.n, 1, g.n):
        covered = 0
        for v in iter_bits(mask):
            covered |= cadj[v]
        if covered == full and extra(mask):
            return mask
    raise RuntimeError("V(G) itself should have been accepted")


# -- convex domination via hulls of small seeds --------------------------------


def gamma_con_hull4(g: Graph, trust: bool = False) -> SolverResult:
    """Minimum convex dominating set via hulls of seeds with at most 4 vertices.

    Correct on every connected chordal dominating pair graph; unless
    ``trust`` is set, membership is verified first and refuted inputs raise
    WrongClassError carrying the forbidden-subgraph witness (or the hole).
    Every graph of the class has a dominating hull of at most four
    vertices, so a trusted input without one also raises WrongClassError.
    Ties between dominating hulls break toward the smaller witness bitmask,
    then the earlier seed in cardinality-then-lexicographic order.  The
    sweep grows seeds level by level, closing each from its parent's hull
    (see ``_hull_sweep``); the returned trace is the seed's closure from
    scratch.
    """
    require_connected(g, "gamma_con_hull4")
    if not trust:
        verdict = is_chordal_dp_graph(g)
        if not verdict.holds:
            raise WrongClassError(
                "not a chordal dominating pair graph",
                witness=verdict.witness,
                hole=verdict.hole,
            )
    best = _hull_sweep(g)
    if best is None:
        raise WrongClassError(
            "no hull of at most four vertices dominates: not a chordal dominating pair graph"
        )
    _size, witness, seed = best
    trace = convex_hull(g, seed)
    return SolverResult(
        value=witness.bit_count(),
        witness=witness,
        method="hull4",
        certificate=certify(g, witness),
        seed=seed,
        trace=trace,
    )


def _hull_sweep(g: Graph) -> tuple[int, int, int] | None:
    """Best (size, witness, seed) over all seeds of at most four vertices;
    None when no hull dominates.

    The answer is the first seed, by cardinality then lexicographic order,
    whose hull dominates with the least (size, mask).  Hulls are monotone,
    hull(S + v) contains hull(S), so each k-seed is its (k-1)-parent plus a
    larger last vertex v, closed from the parent's hull with v the only
    fresh vertex.  Visiting each level's parents in order and their
    extensions by increasing v walks the seeds in the sweep order, and
    only a strictly smaller key replaces the best.  Two rules skip seeds
    that cannot change the answer:

    - an entry whose hull has at least ``best[0]`` vertices is not
      extended: a larger hull loses, and an equal-size superset is the
      same hull, already reached by that earlier entry;
    - a v inside the parent's hull S is skipped with its whole subtree:
      hull(S + v + T) = hull(S + T), and S + T is a smaller seed, earlier
      in the order.

    Neither rule skips the winning seed: if one did, an earlier seed would
    have the same hull, and the winner would not be the first.  A level
    larger than ``best[0]`` is not started, since a hull is at least as
    large as its seed.
    """
    cadj = g.closed_adj
    full = g.full_mask
    table = g.interval_masks
    best: tuple[int, int, int] | None = None
    # (seed, last vertex, hull, N[hull]) per entry of the previous level, in
    # sweep order; the empty seed is the root
    level = [(0, -1, 0, 0)]
    for k in range(1, 5):
        if best is not None and k > best[0]:
            break
        children = []
        for seed, last, hull, covered in level:
            if best is not None and hull.bit_count() >= best[0]:
                continue
            for v in range(last + 1, g.n):
                bit = 1 << v
                if hull & bit:
                    continue
                grown = hull | bit
                for grown in closure(table, grown, bit):
                    pass
                reach = covered
                for w in iter_bits(grown & ~hull):
                    reach |= cadj[w]
                if reach == full:
                    key = (grown.bit_count(), grown)
                    if best is None or key < best[:2]:
                        best = (*key, seed | bit)
                elif k < 4:  # a dominating hull's extensions fall to the first rule
                    children.append((seed | bit, v, grown, reach))
        level = children
    return best


# -- dominating shortest-path search -------------------------------------------


def _search_shortest_path(
    g: Graph,
    a: int,
    b: int,
    length: int,
    allowed_undominated: int,
) -> tuple[int, ...] | None:
    """First shortest ``a,b``-path, in lexicographic DFS order, whose closed
    neighborhood covers every vertex outside ``allowed_undominated``; None
    when there is none.  ``length`` must be d(a, b).

    A step appends w at position i + 1 unless some vertex outside the slack
    is left that neither the prefix nor any layer from i + 2 on can
    dominate.  A step (u, w) whose subtree failed is never entered again,
    and skipping it is exact.  Let path[i] = u, so d(a, u) = i.  The prune
    has already forced every vertex at distance <= i - 1 from ``a`` to be
    dominated or tolerated.  A vertex at distance >= i has neighbors only
    at distance >= i - 1, so of the prefix only path[i - 1] and path[i]
    can have dominated it.  So the outcome below (path[i - 1], u) does not
    depend on the rest of the prefix, and the first path found is the one
    the plain DFS finds.  Each step either fails once or lies on the
    returned path, so the expansions number at most one per edge of the
    shortest-path DAG plus the path itself.
    """
    dist = g.distances
    da = dist[a]
    db = dist[b]
    layers = [0] * (length + 1)
    for w in range(g.n):
        if da[w] + db[w] == length:
            layers[da[w]] |= 1 << w
    suffix = [0] * (length + 2)
    for i in range(length, -1, -1):
        union = 0
        for w in iter_bits(layers[i]):
            union |= g.closed_adj[w]
        suffix[i] = suffix[i + 1] | union
    full = g.full_mask
    slack = allowed_undominated
    path = [a]
    failed: set[tuple[int, int]] = set()

    def dfs(u: int, i: int, dominated: int) -> bool:
        if i == length:
            return not full & ~(dominated | slack)
        for w in iter_bits(g.adj[u] & layers[i + 1]):
            if (u, w) in failed:
                continue
            grown = dominated | g.closed_adj[w]
            if full & ~(grown | suffix[i + 2] | slack):
                continue  # some vertex can no longer be dominated
            path.append(w)
            if dfs(w, i + 1, grown):
                return True
            path.pop()
            failed.add((u, w))
        return False

    if dfs(a, 0, g.closed_adj[a]):
        return tuple(path)
    return None


# -- isometric domination -------------------------------------------------------


# Bounded: a graph is rarely solved twice in a row, and every entry pins the
# graph's distance and interval tables.
@lru_cache(maxsize=8)
def _small_idset(g: Graph) -> tuple[int, int] | None:
    """First isometric dominating set of size at most 4 in the connected
    graph ``g``, by cardinality then lexicographic order of the sorted
    vertex tuple; None if there is none.

    An isometric set of k >= 2 vertices induces a connected subgraph, and
    a connected dominating set of k vertices forces diam(G) <= k + 1 (any
    two vertices sit next to members joined by a path of at most k - 1
    edges inside the set).  So diam(G) > 5 rules out every candidate at
    once.  Otherwise only connected subsets are candidates: they are grown
    level by level by adjoining a neighbor, and at each level the
    dominating ones are tried in lexicographic order.
    """
    if max(map(max, g.distances)) > 5:
        return None
    cadj = g.closed_adj
    full = g.full_mask
    level = {1 << v: cadj[v] for v in range(g.n)}  # subset -> N[subset]
    for size in range(1, min(4, g.n) + 1):
        if size > 1:
            grown: dict[int, int] = {}
            for mask, covered in level.items():
                for v in iter_bits(covered & ~mask):
                    bigger = mask | 1 << v
                    if bigger not in grown:
                        grown[bigger] = covered | cadj[v]
            level = grown
        dominating = [mask for mask, covered in level.items() if covered == full]
        for mask in sorted(dominating, key=vertices_of):
            if is_isometric(g, mask):
                return size, mask
    return None


def gamma_iso_pair(g: Graph, pair: DominatingPair) -> SolverResult:
    """Isometric domination number given a verified dominating pair.

    Stages: (1) find the first isometric dominating set of size <= 4,
    skipped outright when diam(G) > 5 because such a set is connected and a
    connected dominating set of k vertices forces diam(G) <= k + 1, and
    otherwise searched among connected sets grown by adjoining neighbors;
    (2) hunt a dominating shortest path between neighborhoods at distance
    d(x,y)-2, worth d(x,y)-1; (3) accept such a path whose undominated
    leftovers sit inside one endpoint neighborhood, worth d(x,y) after
    adjoining that endpoint; (4) hunt a dominating shortest path at
    distance d(x,y)-1, worth d(x,y); (5) fall back to a shortest
    x,y-path, worth d(x,y)+1.  Each path search enters every edge of its
    shortest-path DAG at most once, so stages 2-5 take polynomial time.
    """
    require_connected(g, "gamma_iso_pair")
    if not pair.verified:
        raise PreconditionError("dominating pair is not verified")
    x, y = pair.x, pair.y
    g._check_vertex(x)
    g._check_vertex(y)

    small = _small_idset(g)
    if small is not None:
        value, witness = small
        return SolverResult(value, witness, "staged-iso", certify(g, witness), stage=1)

    dist = g.distances
    d = dist[x][y]
    if d < 4:
        raise RuntimeError("no small ID-set although d(x,y) <= 3")
    s = d - 2

    nx_mask = g.adj[x]
    ny_mask = g.adj[y]
    nx = tuple(iter_bits(nx_mask))
    ny = tuple(iter_bits(ny_mask))
    near = [(a, b) for a in nx for b in ny if dist[a][b] == s]
    # (stage, a, b, length, tolerated leftovers, adjoined endpoint), in the
    # order the stages are tried; the first path found decides
    tasks = [(2, a, b, s, 0, None) for a, b in near]
    tasks += [
        (3, a, b, s, slack, endpoint)
        for a, b in near
        for slack, endpoint in ((nx_mask, x), (ny_mask, y))
    ]
    tasks += [(4, a, b, s + 1, 0, None) for a in nx for b in ny if dist[a][b] == s + 1]
    # a shortest x,y-path always remains an isometric dominating set
    tasks.append((5, x, y, d, g.full_mask, None))
    for stage, a, b, length, slack, endpoint in tasks:
        path = _search_shortest_path(g, a, b, length, slack)
        if path is None:
            continue
        witness = mask_of(path)
        if endpoint is not None:
            covered = 0
            for v in path:
                covered |= g.closed_adj[v]
            if covered == g.full_mask:
                raise RuntimeError("fully dominating path should have won stage 2")
            witness |= 1 << endpoint
        return SolverResult(
            witness.bit_count(), witness, "staged-iso", certify(g, witness), stage=stage
        )
    raise RuntimeError("shortest x,y-path vanished")


def gamma_iso(g: Graph) -> SolverResult:
    """Find a dominating pair, then delegate to the staged algorithm."""
    require_connected(g, "gamma_iso")
    pair = find_dominating_pair(g)
    if pair is None:
        raise WrongClassError("graph has no dominating pair")
    return gamma_iso_pair(g, pair)
