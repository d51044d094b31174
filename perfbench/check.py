"""Output checks that use none of the library's code.

Each request's output record is re-verified against the request's input
text with this file's own parser, BFS and geodesic intervals: witnesses
must dominate and be convex or isometric as the request demands, values
must equal witness sizes, and on graphs within ORACLE_BOUND vertices the
values must equal an exhaustive search done here.  Class claims are
re-derived too (chordality, split, dominating pairs), so a recognizer
that wrongly says "no" cannot skip the work that a "yes" requires.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations

ORACLE_BOUND = 14
# Split audit inputs up to this size get the gadget check.
GADGET_MAX_N = 11
# gamma_iso_pair's first stage exhausts sets up to this size.
SMALL_IDSET = 4


class CheckError(Exception):
    """An output record disagrees with the independent checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Instance:
    """A parsed input graph with its distances and geodesic intervals."""

    def __init__(self, text: str) -> None:
        lines = text.split("\n")
        n, m = map(int, lines[0].split())
        self.n = n
        self.nbrs: list[list[int]] = [[] for _ in range(n)]
        for line in lines[1:m + 1]:
            u, v = map(int, line.split())
            self.nbrs[u].append(v)
            self.nbrs[v].append(u)
        self.full = (1 << n) - 1
        self.closed = [sum(1 << w for w in self.nbrs[v]) | 1 << v for v in range(n)]
        self.dist = [self._bfs(src, self.full) for src in range(n)]
        self.between = [
            [
                sum(1 << w for w in range(n) if self.dist[u][w] + self.dist[w][v] == self.dist[u][v])
                for v in range(n)
            ]
            for u in range(n)
        ]

    def _bfs(self, src: int, allowed: int) -> list[int]:
        dist = [-1] * self.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in self.nbrs[u]:
                if dist[w] < 0 and allowed >> w & 1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def dominating(self, members: list[int]) -> bool:
        covered = 0
        for v in members:
            covered |= self.closed[v]
        return covered == self.full

    def convex(self, members: list[int]) -> bool:
        mask = sum(1 << v for v in members)
        return all(not self.between[u][v] & ~mask for u, v in combinations(members, 2))

    def isometric(self, members: list[int]) -> bool:
        mask = sum(1 << v for v in members)
        for u in members:
            inside = self._bfs(u, mask)
            if any(inside[v] != self.dist[u][v] for v in members):
                return False
        return True

    def _component_labels(self, mask: int) -> list[list[int]]:
        """Per vertex v of ``mask``: component labels of ``mask`` minus
        N[v], -1 outside it."""
        labels = []
        for v in range(self.n):
            label = [-1] * self.n
            if mask >> v & 1:
                rest = mask & ~self.closed[v]
                for src in range(self.n):
                    if rest >> src & 1 and label[src] < 0:
                        for w, d in enumerate(self._bfs(src, rest)):
                            if d >= 0:
                                label[w] = src
            labels.append(label)
        return labels

    def _pair_in(self, labels, mask: int, x: int, y: int) -> bool:
        """Every x,y-path inside ``mask`` dominates ``mask``: removing the
        closed neighborhood of a vertex that sees neither x nor y must
        separate x from y."""
        for v in range(self.n):
            if not mask >> v & 1:
                continue
            hood = self.closed[v]
            if hood >> x & 1 or hood >> y & 1:
                continue
            if labels[v][x] == labels[v][y]:
                return False
        return True

    def dominating_pair(self, x: int, y: int) -> bool:
        return self._pair_in(self._component_labels(self.full), self.full, x, y)

    def has_dominating_pair(self, mask: int) -> bool:
        """Some pair of ``mask`` is a dominating pair of the subgraph it induces."""
        labels = self._component_labels(mask)
        members = [v for v in range(self.n) if mask >> v & 1]
        return any(self._pair_in(labels, mask, x, y)
                   for i, x in enumerate(members) for y in members[i:])

    def connected(self, mask: int) -> bool:
        src = (mask & -mask).bit_length() - 1
        return sum(1 << w for w, d in enumerate(self._bfs(src, mask)) if d >= 0) == mask

    def chordal(self) -> bool:
        """Maximum cardinality search: the graph is chordal exactly when
        each vertex's earlier-visited neighbors form a clique."""
        weight = [0] * self.n
        visited = 0
        for _ in range(self.n):
            v = max((u for u in range(self.n) if not visited >> u & 1), key=weight.__getitem__)
            earlier = self.closed[v] & visited
            for w in range(self.n):
                if earlier >> w & 1 and earlier & ~self.closed[w]:
                    return False
            visited |= 1 << v
            for w in self.nbrs[v]:
                weight[w] += 1
        return True

    def split(self) -> bool:
        """Hammer-Simeone degree-sequence test for a split graph."""
        degrees = sorted((len(ns) for ns in self.nbrs), reverse=True)
        m = max([i for i, d in enumerate(degrees, start=1) if d >= i - 1], default=0)
        return sum(degrees[:m]) == m * (m - 1) + sum(degrees[m:])

    def smallest_isometric_dominating(self, limit: int) -> int | None:
        """Size of the smallest isometric dominating set with at most
        ``limit`` vertices, or None.  Isometric sets are connected, so
        only connected sets are grown."""
        level = {1 << v for v in range(self.n)}
        for size in range(1, limit + 1):
            for mask in level:
                members = [v for v in range(self.n) if mask >> v & 1]
                if self.dominating(members) and self.isometric(members):
                    return size
            if size < limit:
                level = {mask | 1 << w for mask in level
                         for v in range(self.n) if mask >> v & 1
                         for w in self.nbrs[v] if not mask >> w & 1}
        return None

    def minima(self, properties: tuple[str, ...]) -> dict[str, int]:
        """Smallest dominating set size with each property, by exhaustion."""
        test = {"dominating": lambda s: True, "convex": self.convex, "isometric": self.isometric}
        found: dict[str, int] = {}
        for k in range(1, self.n + 1):
            for combo in combinations(range(self.n), k):
                if not self.dominating(list(combo)):
                    continue
                for prop in properties:
                    if prop not in found and test[prop](list(combo)):
                        found[prop] = k
                if len(found) == len(properties):
                    return found
        raise CheckError("the whole vertex set must satisfy every property")


def _check_solution(inst: Instance, fields: dict, prop: str) -> int:
    witness = fields["witness"]
    _require(all(0 <= v < inst.n for v in witness) and len(set(witness)) == len(witness),
             "witness names vertices outside the graph")
    _require(fields["value"] == len(witness), "value differs from witness size")
    _require(inst.dominating(witness), "witness does not dominate")
    if prop == "convex":
        _require(inst.convex(witness), "witness is not convex")
    elif prop == "isometric":
        _require(inst.isometric(witness), "witness is not isometric")
    return fields["value"]


def _check_pair(inst: Instance, pair: list[int]) -> int:
    x, y = pair
    _require(inst.dominating_pair(x, y), "reported pair is not a dominating pair")
    return inst.dist[x][y]


def check_convex(inst: Instance, record: dict) -> None:
    value = _check_solution(inst, record, "convex")
    if inst.n <= ORACLE_BOUND:
        _require(value == inst.minima(("convex",))["convex"], "value is not the optimum")


def check_isometric(inst: Instance, record: dict) -> None:
    value = _check_solution(inst, record, "isometric")
    d = _check_pair(inst, record["pair"])
    _require(record["stage"] in (1, 2, 3, 4, 5), "unknown stage")
    _require((record["stage"] == 1) == (value <= SMALL_IDSET),
             "stage 1 must answer exactly the values up to 4")
    smaller = inst.smallest_isometric_dominating(min(value - 1, SMALL_IDSET))
    _require(smaller is None, f"an isometric dominating set of size {smaller} exists")
    if record["stage"] >= 2:
        _require(d - 1 <= value <= d + 1, "value outside [d(x,y)-1, d(x,y)+1]")
    if inst.n <= ORACLE_BOUND:
        _require(value == inst.minima(("isometric",))["isometric"], "value is not the optimum")


def check_audit(inst: Instance, record: dict) -> None:
    truth = inst.minima(("dominating", "convex", "isometric"))
    for key, prop in (("domination", "dominating"), ("convex", "convex"),
                      ("isometric", "isometric"), ("hull4", "convex"), ("staged", "isometric")):
        if key in record:
            value = _check_solution(inst, record[key], prop)
            _require(value == truth[prop], f"{key} value is not the optimum")

    chordal = inst.chordal()
    _require(record["chordal"] == chordal, "chordality claim is wrong")
    split = inst.split()
    _require(record["split"] == split, "split claim is wrong")
    if record["pair"] is None:
        _require(not inst.has_dominating_pair(inst.full), "a dominating pair exists")
    else:
        _check_pair(inst, record["pair"])
    _require(("staged" in record) == (record["pair"] is not None),
             "staged result must be present exactly when a pair exists")

    if record["chordal_dp"]:
        _require(chordal, "chordal_dp claimed on a graph that is not chordal")
    elif chordal:
        # a connected induced subgraph with no dominating pair rules the class out
        forbidden = sum(1 << v for v in record["forbidden"])
        _require(inst.connected(forbidden) and not inst.has_dominating_pair(forbidden),
                 "forbidden subgraph is not connected or has a dominating pair")
    _require(("hull4" in record) == record["chordal_dp"],
             "hull4 result must be present exactly when chordal_dp holds")

    reports = record.get("gadget", [])
    expect = [truth["convex"] - 1, truth["convex"]] if split and inst.n <= GADGET_MAX_N else []
    _require([report["k"] for report in reports] == expect, "gadget checks missing or extra")
    for report in reports:
        _require(report["equivalent"], "gadget equivalence failed")
        _require(report["gamma_con_input"] == truth["convex"], "gadget input value is wrong")


CHECKS = {
    "convex-verified": check_convex,
    "convex-trusted": check_convex,
    "isometric": check_isometric,
    "audit": check_audit,
}


def check(workload: str, text: str, line: str) -> None:
    """Raise CheckError unless ``line`` is a correct output for ``text``."""
    record = json.loads(line)
    _require(record.get("status") == "ok", "record status is not ok")
    CHECKS[workload](Instance(text), record)
