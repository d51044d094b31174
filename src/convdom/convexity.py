"""Geodesic intervals, convex hulls, and the convex/isometric predicates.

A set is convex when it contains every shortest path between its members,
and isometric when the subgraph it induces preserves all pairwise graph
distances among its members.  Hulls are computed by iterating the pairwise
interval operator to a fixpoint; each round is recorded so a hull comes
with an auditable derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoPathError, PreconditionError
from .graph import INF, Graph, iter_bits, vertices_of


@dataclass(frozen=True)
class HullTrace:
    """Snapshots of the interval-closure loop, seed first, hull last.

    The rounds form a strictly increasing chain of vertex-set bitmasks.
    """

    rounds: tuple[int, ...]

    @property
    def seed(self) -> int:
        return self.rounds[0]

    @property
    def hull(self) -> int:
        return self.rounds[-1]

    def added_per_round(self) -> tuple[tuple[int, ...], ...]:
        """Vertices newly captured by each round after the seed."""
        out = []
        for before, after in zip(self.rounds, self.rounds[1:]):
            out.append(vertices_of(after & ~before))
        return tuple(out)


def interval(g: Graph, u: int, v: int) -> int:
    """All vertices on some shortest ``u,v``-path, as a bitmask."""
    g._check_vertex(u)
    g._check_vertex(v)
    if g.distances.d(u, v) == INF:
        raise NoPathError(f"vertices {u} and {v} lie in different components")
    return g.interval_masks[u][v]


def convex_hull(g: Graph, seed: int) -> HullTrace:
    """Smallest convex superset of ``seed``, with the closure trace.

    The seed must be nonempty and contained in one component.  The rounds
    after the seed are those of ``closure``.
    """
    g.check_mask(seed)
    if seed == 0:
        raise PreconditionError("convex hull of an empty set is undefined")
    members = vertices_of(seed)
    first = members[0]
    for v in members[1:]:
        if g.distances.d(first, v) == INF:
            raise NoPathError("hull seed spans more than one component")

    return HullTrace((seed, *closure(g.interval_masks, seed, seed)))


def closure(table, current: int, fresh: int):
    """Yield each strictly larger round of the interval closure of ``current``.

    ``table`` is ``Graph.interval_masks``.  ``fresh`` holds the members of
    ``current`` whose intervals against ``current`` are not merged yet;
    pass ``current`` itself to close from scratch.  Each round pairs only
    the newly added vertices against all members, since intervals of older
    pairs were already merged.  The last round yielded is the hull (none
    when ``current`` is already convex).
    """
    while True:
        grown = current
        for a in iter_bits(fresh):
            row = table[a]
            for b in iter_bits(current):
                grown |= row[b]
        if grown == current:
            return
        fresh = grown & ~current
        current = grown
        yield current


def is_convex(g: Graph, members: int) -> bool:
    """True when every within-component interval between members stays inside."""
    g.check_mask(members)
    table = g.interval_masks
    outside = ~members
    verts = vertices_of(members)
    for i, u in enumerate(verts):
        row = table[u]
        for v in verts[i + 1:]:
            # row[v] is 0 for cross-component pairs, which are vacuous here.
            if row[v] & outside:
                return False
    return True


def is_isometric(g: Graph, members: int) -> bool:
    """True when the induced subgraph preserves all member-to-member distances.

    Runs BFS inside the induced subgraph; requiring equal induced distance
    is the same as requiring some shortest path to stay inside the set.
    """
    g.check_mask(members)
    dist = g.distances
    for u in iter_bits(members):
        row = dist[u]
        reached = 0
        for d, layer in enumerate(g.layers(u, members)):
            for w in iter_bits(layer):
                if row[w] != d:
                    return False
            reached |= layer
        # members unreachable inside the set must be unreachable in g too
        for w in iter_bits(members & ~reached):
            if row[w] != INF:
                return False
    return True
