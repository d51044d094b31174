"""The split-graph gadget behind the convex-domination hardness reduction.

Given a connected split graph, the gadget appends three vertices: ``x``
joined to every original vertex, ``y`` joined to the clique side and to a
pendant ``y'``.  The output is a chordal weak dominating pair graph whose
convex domination number is exactly one more than the input's, which makes
the construction a polynomial reduction; ``verify_gadget_equivalence``
checks the biconditional by brute force at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import SolverResult, gamma_con_bruteforce
from .errors import PreconditionError, SizeGuardError, WrongClassError
from .graph import Graph, iter_bits, require_connected
from .recognition import (
    SplitPartition,
    is_chordal,
    is_dominating_pair,
    is_valid_split_partition,
    split_partition,
)

GADGET_INPUT_DEFAULT_BOUND = 11


@dataclass(frozen=True)
class GadgetOutput:
    """The constructed gadget with its three special vertices.

    ``source_map[i]`` is the gadget id of input vertex ``i`` (the identity,
    recorded so emitted files stay self-describing).
    """

    graph: Graph
    x: int
    y: int
    y_prime: int
    source_map: tuple[int, ...]


def build_np_gadget(g_prime: Graph, partition: SplitPartition) -> GadgetOutput:
    """Construct the three-vertex augmentation of a connected split graph.

    The partition's clique side must be a maximum clique (the hardness
    argument leans on that); anything else is refused rather than repaired.
    All structural invariants are re-verified before the gadget is returned.
    """
    require_connected(g_prime, "build_np_gadget")
    if not is_valid_split_partition(g_prime, partition):
        raise PreconditionError("invalid split partition for the input graph")
    reference = split_partition(g_prime)
    if reference is None:
        raise WrongClassError("input graph is not a split graph")
    if partition.clique.bit_count() != reference.clique.bit_count():
        raise PreconditionError("partition clique side is not a maximum clique")

    n = g_prime.n
    x, y, y_prime = n, n + 1, n + 2
    edges = list(g_prime.edges())
    edges += [(v, x) for v in range(n)]
    edges += [(v, y) for v in iter_bits(partition.clique)]
    edges.append((y, y_prime))
    gadget = Graph.from_edges(n + 3, edges)

    if gadget.adj[x] != (1 << n) - 1:
        raise RuntimeError("gadget invariant broken: x must see every original vertex")
    if gadget.adj[y] != partition.clique | (1 << y_prime):
        raise RuntimeError("gadget invariant broken: y must see the clique and y'")
    if gadget.adj[y_prime] != 1 << y:
        raise RuntimeError("gadget invariant broken: y' must see only y")
    if not is_chordal(gadget).chordal:
        raise RuntimeError("gadget invariant broken: output is not chordal")
    if not is_dominating_pair(gadget, x, y):
        raise RuntimeError("gadget invariant broken: (x, y) is not a dominating pair")
    return GadgetOutput(gadget, x, y, y_prime, tuple(range(n)))


@dataclass(frozen=True)
class EquivalenceReport:
    """Brute-force audit of the reduction claim for one (graph, k) pair."""

    k: int
    input_within_k: bool
    gadget_within_k_plus_1: bool
    input_result: SolverResult
    gadget_result: SolverResult
    gadget: GadgetOutput

    @property
    def holds(self) -> bool:
        return self.input_within_k == self.gadget_within_k_plus_1


def verify_gadget_equivalence(g_prime: Graph, k: int) -> EquivalenceReport:
    """Check "input has a CD-set of size <= k iff gadget has one of size <= k+1".

    Both sides are decided by the brute-force solver, so the input must stay
    small enough for it even after the three-vertex augmentation.
    """
    if k < 0:
        raise PreconditionError("k must be non-negative")
    if g_prime.n > GADGET_INPUT_DEFAULT_BOUND:
        raise SizeGuardError(
            f"gadget verification bound {GADGET_INPUT_DEFAULT_BOUND} exceeded (n={g_prime.n})"
        )
    partition = split_partition(g_prime)
    if partition is None:
        raise WrongClassError("input graph is not a split graph")
    gadget = build_np_gadget(g_prime, partition)
    inner = _gamma_con_cached(g_prime)
    outer = _gamma_con_cached(gadget.graph)
    return EquivalenceReport(
        k=k,
        input_within_k=inner.value <= k,
        gadget_within_k_plus_1=outer.value <= k + 1,
        input_result=inner,
        gadget_result=outer,
        gadget=gadget,
    )


# A k sweep over one split graph needs two entries: the graph and its gadget.
GAMMA_CACHE_SIZE = 8
_GAMMA_CACHE: dict[Graph, SolverResult] = {}


def _gamma_con_cached(g: Graph) -> SolverResult:
    # verify_gadget_equivalence is called once per k; the optima only depend
    # on the graph, so share them across the k sweep.  The oldest entry is
    # evicted first, so a long-lived process does not grow without bound.
    result = _GAMMA_CACHE.get(g)
    if result is None:
        result = gamma_con_bruteforce(g)
        _GAMMA_CACHE[g] = result
        if len(_GAMMA_CACHE) > GAMMA_CACHE_SIZE:
            del _GAMMA_CACHE[next(iter(_GAMMA_CACHE))]
    return result
