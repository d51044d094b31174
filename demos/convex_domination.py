"""Minimum convex dominating sets via hulls of at most four seed vertices.

Walks a few named graphs and a batch of random interval graphs, comparing
the polynomial hull sweep against the exponential oracle, and shows the
closure trace behind one witness.  Interval graphs are chordal dominating
pair graphs: they are chordal and AT-free, and every induced subgraph of an
AT-free graph is AT-free and has a dominating pair.
"""

import random

from convdom import (
    convex_hull,
    gamma_con_bruteforce,
    gamma_con_hull4,
    make_path,
    make_star,
    mask_of,
    random_interval,
    vertices_of,
)


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
    print("== random interval graphs ==")
    rng = random.Random(7)
    agreements = 0
    for i in range(20):
        n = 6 + i % 6
        g = random_interval(n, rng.getrandbits(63))
        fast = gamma_con_hull4(g, trust=True)
        slow = gamma_con_bruteforce(g)
        agreements += fast.value == slow.value
        print(f"  n={g.n:2d} m={g.edge_count:2d}  hull4={fast.value}  oracle={slow.value}"
              f"  seed={vertices_of(fast.seed)}")
    print(f"agreement on {agreements}/20 instances")


if __name__ == "__main__":
    main()
