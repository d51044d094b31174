"""Convex and isometric domination of (weak) dominating pair graphs.

Exact solvers backed by convex hulls of small seeds and a staged
shortest-path search, the graph-class recognizers they rely on, the
split-graph hardness gadget, and brute-force oracles that cross-check
everything at desk scale.
"""

from .convexity import HullTrace, convex_hull, is_convex, is_isometric
from .domination import (
    Certificate,
    SolverResult,
    certify,
    gamma_bruteforce,
    gamma_con_bruteforce,
    gamma_con_hull4,
    gamma_iso,
    gamma_iso_bruteforce,
    gamma_iso_pair,
)
from .edgelist import dump, parse, serialize
from .errors import (
    ConvdomError,
    InvalidVertexError,
    NoPathError,
    ParseError,
    PreconditionError,
    SizeGuardError,
    WrongClassError,
)
from .generators import (
    GenSpec,
    RNG_ALGORITHM,
    make_A1,
    make_Bn,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    random_chordal,
    random_connected,
    random_interval,
    random_split,
)
from .graph import Graph, is_dominating, iter_bits, mask_of, vertices_of
from .recognition import (
    ChordalDpResult,
    ChordalityResult,
    DominatingPair,
    ForbiddenWitness,
    SplitPartition,
    contains_induced,
    find_dominating_pair,
    is_chordal,
    is_chordal_dp_graph,
    is_dominating_pair,
    is_dp_graph_bruteforce,
    is_valid_split_partition,
    split_partition,
    verify_witness,
)
from .reduction import EquivalenceReport, GadgetOutput, build_np_gadget, verify_gadget_equivalence

__version__ = "0.3.0"
