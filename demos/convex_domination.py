"""Minimum convex dominating sets via hulls of at most four seed vertices.

Walks a few named graphs and a batch of sparse random interval graphs,
comparing the polynomial hull sweep against the exponential oracle, and
shows the closure trace behind one witness.  Interval graphs are chordal dominating
pair graphs: they are chordal and AT-free, and every induced subgraph of an
AT-free graph is AT-free and has a dominating pair.
"""

import random
from itertools import combinations

from convdom import (
    Graph,
    convex_hull,
    gamma_con_bruteforce,
    gamma_con_hull4,
    make_path,
    make_star,
    mask_of,
    vertices_of,
)


def sparse_interval(n, rng):
    """Interval graph on ``n`` vertices with a long diameter.

    Each interval has length 2-6 and starts at most 4 units left of the
    right end of the span covered so far, so it meets an earlier interval
    (the graph is connected) and the span keeps growing.
    """
    spans = []
    right = 0
    for _ in range(n):
        start = rng.randint(max(0, right - 4), right)
        spans.append((start, start + rng.randint(2, 6)))
        right = max(right, spans[-1][1])
    return Graph.from_edges(n, [
        (i, j)
        for (i, (a, b)), (j, (c, d)) in combinations(enumerate(spans), 2)
        if a <= d and c <= b
    ])


def show(name, g):
    fast = gamma_con_hull4(g)
    slow = gamma_con_bruteforce(g)
    print(f"{name}: gamma_con = {fast.value} (oracle {slow.value})")
    print(f"  seed {vertices_of(fast.seed)} -> witness {vertices_of(fast.witness)}")
    print(f"  certificate: dominating={fast.certificate.dominating}"
          f" convex={fast.certificate.convex}")


def main():
    print("== named graphs ==")
    show("star K1,4", make_star(5))
    show("path P6", make_path(6))

    print()
    print("== hull closure trace on P6 from seed {1, 4} ==")
    trace = convex_hull(make_path(6), mask_of([1, 4]))
    print(f"  seed     : {vertices_of(trace.seed)}")
    for i, added in enumerate(trace.added_per_round(), start=1):
        print(f"  round {i}  : +{list(added)}")
    print(f"  hull     : {vertices_of(trace.hull)}")

    print()
    print("== sparse random interval graphs ==")
    rng = random.Random(7)
    agreements = 0
    for i in range(20):
        n = 6 + i % 6
        g = sparse_interval(n, rng)
        fast = gamma_con_hull4(g, trust=True)
        slow = gamma_con_bruteforce(g)
        agreements += fast.value == slow.value
        print(f"  n={g.n:2d} m={g.edge_count:2d}  hull4={fast.value}  oracle={slow.value}"
              f"  seed={vertices_of(fast.seed)}")
    print(f"agreement on {agreements}/20 instances")


if __name__ == "__main__":
    main()
