"""Graph-class recognition: chordality, split partitions, dominating pairs.

Every verdict ships a certificate the caller can re-check: a perfect
elimination ordering or an induced long cycle for chordality, a concrete
partition for split graphs, and an induced-subgraph embedding when the
forbidden-family search refutes membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeGuardError
from .generators import make_A1, make_Bn
from .graph import Graph, iter_bits, mask_of, require_connected, vertices_of

DP_BRUTEFORCE_BOUND = 12


@dataclass(frozen=True)
class ChordalityResult:
    """Chordality verdict plus its certificate.

    ``elimination_order`` is a perfect elimination ordering when chordal;
    ``hole`` is an induced cycle of length >= 4 (in cyclic order) when not.
    """

    chordal: bool
    elimination_order: tuple[int, ...] | None
    hole: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.chordal


@dataclass(frozen=True)
class DominatingPair:
    """An ordered vertex pair (x = y allowed) with its verification flag."""

    x: int
    y: int
    verified: bool = False


@dataclass(frozen=True)
class SplitPartition:
    """A clique/independent bipartition of the vertex set, as bitmasks."""

    clique: int
    independent: int


@dataclass(frozen=True)
class ForbiddenWitness:
    """An induced occurrence of a forbidden pattern inside a host graph.

    ``embedding[i]`` is the host vertex playing pattern vertex ``i``; both
    edges and non-edges of the pattern are preserved.
    """

    family: str
    index: int | None
    embedding: tuple[int, ...]

    def pattern(self) -> Graph:
        if self.family == "A1":
            return make_A1()
        if self.family == "Bn":
            return make_Bn(self.index)
        raise ValueError(f"unknown forbidden family {self.family!r}")


@dataclass(frozen=True)
class ChordalDpResult:
    """Outcome of the chordal dominating pair graph recognizer."""

    holds: bool
    witness: ForbiddenWitness | None = None
    hole: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


# -- chordality -------------------------------------------------------------


def lexbfs_order(g: Graph) -> tuple[int, ...]:
    """Lexicographic BFS visit order via partition refinement.

    Ties are broken toward the smallest vertex id, so the order (and every
    certificate derived from it) is deterministic.
    """
    blocks: list[list[int]] = [list(range(g.n))] if g.n else []
    order: list[int] = []
    while blocks:
        head = blocks[0]
        v = head.pop(0)
        if not head:
            blocks.pop(0)
        order.append(v)
        row = g.adj[v]
        refined: list[list[int]] = []
        for block in blocks:
            hit = [w for w in block if row >> w & 1]
            miss = [w for w in block if not row >> w & 1]
            if hit:
                refined.append(hit)
            if miss:
                refined.append(miss)
        blocks = refined
    return tuple(order)


def _verify_elimination_order(g: Graph, order: tuple[int, ...]) -> bool:
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    for v in order:
        later = [u for u in iter_bits(g.adj[v]) if pos[u] > pos[v]]
        if not later:
            continue
        w = min(later, key=lambda u: pos[u])
        need = mask_of(u for u in later if u != w)
        if need & ~g.closed_adj[w]:
            return False
    return True


def _find_hole(g: Graph) -> tuple[int, ...] | None:
    """Search an induced cycle of length >= 4: a vertex v plus a chordless
    u,w-path between non-adjacent neighbors of v that avoids N[v]."""
    full = g.full_mask
    for v in range(g.n):
        nbrs = vertices_of(g.adj[v])
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if g.adj[u] >> w & 1:
                    continue
                allowed = (full & ~g.closed_adj[v]) | (1 << u) | (1 << w)
                path = _shortest_path_in(g, allowed, u, w)
                if path is not None:
                    return (v,) + path
    return None


def _shortest_path_in(g: Graph, allowed: int, src: int, dst: int) -> tuple[int, ...] | None:
    """The lexicographically least shortest ``src,dst``-path inside
    ``allowed``, or None when ``dst`` is unreachable there.

    With ``back[j]`` the layer at distance ``j`` from ``dst`` and ``src`` in
    ``back[k]``, step ``i`` goes to the smallest-id neighbour in
    ``back[k - i]`` (which lies at distance ``i`` from ``src`` too).  A queue
    BFS from ``src`` scanning neighbours in ascending order returns the same
    path through its parent pointers: by induction on ``d`` it appends layer
    ``d`` in lexicographic order of least shortest paths, so each vertex's
    parent, its first neighbour in layer ``d - 1``, ends the least path to it.
    """
    back = []
    for layer in g.layers(dst, allowed):
        back.append(layer)
        if layer >> src & 1:
            break
    else:
        return None
    path = [src]
    for ring in reversed(back[:-1]):
        step = g.adj[path[-1]] & ring
        path.append((step & -step).bit_length() - 1)
    return tuple(path)


def is_chordal(g: Graph) -> ChordalityResult:
    """Decide chordality; certify with a PEO or an induced long cycle."""
    order = tuple(reversed(lexbfs_order(g)))
    if _verify_elimination_order(g, order):
        return ChordalityResult(True, order, None)
    hole = _find_hole(g)
    if hole is None:
        raise RuntimeError("elimination order rejected but no hole found")
    return ChordalityResult(False, None, hole)


# -- split graphs ------------------------------------------------------------


def split_partition(g: Graph) -> SplitPartition | None:
    """Split recognition by the degree-sequence criterion.

    Returns a partition whose clique side is a maximum clique (sorted by
    degree, ties toward smaller ids), or None when no partition exists.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
        else:
            break
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    clique = mask_of(order[:m])
    part = SplitPartition(clique, g.full_mask & ~clique)
    if not is_valid_split_partition(g, part):
        raise RuntimeError("degree criterion accepted an invalid partition")
    return part


def is_valid_split_partition(g: Graph, part: SplitPartition) -> bool:
    if part.clique & part.independent or (part.clique | part.independent) != g.full_mask:
        return False
    for v in iter_bits(part.clique):
        if part.clique & ~g.closed_adj[v]:
            return False
    for v in iter_bits(part.independent):
        if g.adj[v] & part.independent:
            return False
    return True


# -- dominating pairs ---------------------------------------------------------


def _bad_partners(g: Graph, mask: int) -> list[int]:
    """``bad[x]`` for each x in ``mask``: the y for which (x, y) is not a
    dominating pair of the subgraph induced by ``mask``.

    A path there misses N[v] exactly when it runs inside ``mask - N[v]``, so
    some x,y-path fails to dominate exactly when x and y share a component
    of ``mask - N[v]`` for some v in ``mask``.  Each ``mask - N[v]`` is
    labelled once, and bad[x] is the union of its components holding x.
    For x = y the only path is {x}, which dominates exactly when N[x]
    covers ``mask``; and x lies in bad[x] exactly when some v in ``mask``
    lies outside N[x].
    """
    cadj = g.closed_adj
    bad = [0] * g.n
    for v in iter_bits(mask):
        rest = mask & ~cadj[v]
        while rest:
            comp = g.component_mask((rest & -rest).bit_length() - 1, rest)
            for x in iter_bits(comp):
                bad[x] |= comp
            rest &= ~comp
    return bad


def is_dominating_pair(g: Graph, x: int, y: int) -> bool:
    """True when every x,y-path's vertex set dominates ``g`` (x = y allowed)."""
    require_connected(g, "dominating-pair verification")
    g._check_vertex(x)
    g._check_vertex(y)
    return not _bad_partners(g, g.full_mask)[x] >> y & 1


def find_dominating_pair(g: Graph) -> DominatingPair | None:
    """The lexicographically first pair (x, y), x <= y: the least x with a
    partner y >= x outside bad[x], and the least such y."""
    require_connected(g, "dominating-pair search")
    bad = _bad_partners(g, g.full_mask)
    for x in range(g.n):
        partners = g.full_mask & ~bad[x] & -(1 << x)
        if partners:
            return DominatingPair(x, (partners & -partners).bit_length() - 1, verified=True)
    return None


def is_dp_graph_bruteforce(g: Graph) -> bool:
    """Definitional oracle: every connected induced subgraph has a pair,
    that is some x in it whose bad partners are not all of it.

    Exponential in ``g.n``; refuses graphs above ``DP_BRUTEFORCE_BOUND``.
    """
    if g.n > DP_BRUTEFORCE_BOUND:
        raise SizeGuardError(
            f"is_dp_graph_bruteforce bound {DP_BRUTEFORCE_BOUND} exceeded (n={g.n})"
        )
    for mask in range(1, g.full_mask + 1):
        low = mask & -mask
        if g.component_mask(low.bit_length() - 1, mask) != mask:
            continue
        bad = _bad_partners(g, mask)
        if all(bad[x] == mask for x in iter_bits(mask)):
            return False
    return True


# -- induced-subgraph search and the forbidden-family recognizer --------------


def contains_induced(g: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """First induced embedding of ``pattern`` into ``g``, or None.

    Backtracking over pattern vertices in index order with host candidates
    ascending (so the returned embedding is lexicographically least) and
    degree-based pruning.
    """
    k = pattern.n
    if k > g.n:
        return None
    pdeg = [pattern.degree(i) for i in range(k)]
    gdeg = [g.degree(v) for v in range(g.n)]
    image = [-1] * k

    def extend(i: int, used: int) -> bool:
        if i == k:
            return True
        prow = pattern.adj[i]
        for v in range(g.n):
            bit = 1 << v
            if used & bit or gdeg[v] < pdeg[i]:
                continue
            grow = g.adj[v]
            ok = True
            for j in range(i):
                if (prow >> j & 1) != (grow >> image[j] & 1):
                    ok = False
                    break
            if ok:
                image[i] = v
                if extend(i + 1, used | bit):
                    return True
        return False

    if extend(0, 0):
        return tuple(image)
    return None


def verify_witness(g: Graph, witness: ForbiddenWitness) -> bool:
    """Re-check that a witness embedding preserves edges and non-edges."""
    pattern = witness.pattern()
    image = witness.embedding
    if len(image) != pattern.n or len(set(image)) != pattern.n:
        return False
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            if (pattern.adj[i] >> j & 1) != (g.adj[image[i]] >> image[j] & 1):
                return False
    return True


def is_chordal_dp_graph(g: Graph) -> ChordalDpResult:
    """Recognize chordal dominating pair graphs by forbidden-family search.

    A chordal graph qualifies exactly when it has no induced A1 and no
    induced Bn for any feasible n; non-chordal input fails with the hole
    certificate instead.
    """
    chordality = is_chordal(g)
    if not chordality.chordal:
        return ChordalDpResult(False, hole=chordality.hole)
    embedding = contains_induced(g, make_A1())
    if embedding is not None:
        return ChordalDpResult(False, witness=ForbiddenWitness("A1", None, embedding))
    for idx in range(1, g.n - 4):
        embedding = contains_induced(g, make_Bn(idx))
        if embedding is not None:
            return ChordalDpResult(False, witness=ForbiddenWitness("Bn", idx, embedding))
    return ChordalDpResult(True)
