"""The staged isometric domination algorithm, one stage at a time.

Every weak dominating pair graph pins gamma_iso between d(x,y)-1 and
d(x,y)+1 once sets of size four are exhausted; the demo shows fixtures
where each stage of the search is the one that fires.
"""

from convdom import (
    DominatingPair,
    Graph,
    find_dominating_pair,
    gamma_iso_bruteforce,
    gamma_iso_pair,
    is_dominating_pair,
    make_cycle,
    make_path,
    vertices_of,
)

STAGED_EDGES = [(0, 1), (0, 6), (0, 8), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 7)]
STAGE4_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (5, 10),
    (6, 7), (7, 8), (8, 9), (9, 10), (1, 7), (2, 8), (3, 9), (4, 9),
]


def show(name, g, x, y):
    assert is_dominating_pair(g, x, y)
    d = g.distances[x][y]
    result = gamma_iso_pair(g, DominatingPair(x, y, True))
    oracle = gamma_iso_bruteforce(g).value
    print(f"{name}: pair ({x},{y}) at distance {d}")
    print(f"  stage {result.stage} fired: gamma_iso = {result.value} (oracle {oracle}),"
          f" witness {vertices_of(result.witness)}")
    print(f"  sandwich: {d - 1} <= {result.value} <= {d + 1}")


def main():
    print("== stage 1: some set of at most four vertices already works ==")
    show("cycle C6", make_cycle(6), 0, 3)

    print()
    print("== stages 2, 3, 5: same graph, different dominating pairs ==")
    g = Graph.from_edges(9, STAGED_EDGES)
    show("corridor graph", g, 6, 7)   # dominating path at distance d-2
    show("corridor graph", g, 0, 7)   # leftovers confined to one endpoint side
    show("corridor graph", g, 0, 5)   # only the x,y-geodesic itself remains

    print()
    print("== stage 4: only a path at distance d(x,y)-1 dominates ==")
    show("two-corridor graph", Graph.from_edges(11, STAGE4_EDGES), 0, 5)

    print()
    print("== the pair scan picks the first verified pair ==")
    for n in (7, 9, 11):
        g = make_path(n)
        pair = find_dominating_pair(g)
        result = gamma_iso_pair(g, pair)
        print(f"  P{n}: pair ({pair.x},{pair.y}), gamma_iso = {result.value},"
              f" stage {result.stage}")


if __name__ == "__main__":
    main()
