"""Interval 6-colorings of (3,4)-biregular bipartite multigraphs.

A proper edge coloring is an interval coloring when the colors at every
vertex form a consecutive run of integers. This package builds interval
6-colorings of (3,4)-biregular bipartite multigraphs from proper path
factors (spanning sets of disjoint paths with endpoints on the degree-3
side and lengths 2, 4, 6, or 8), provides two independent routes for
finding such factors, and ships brute-force oracles plus a CLI for
searching instance space.
"""

__version__ = "0.1.0"

from .bigraph import BipartiteMultigraph, Vertex, build, xv, yv
from .checker import (
    EdgeColoring,
    Path,
    PathFactor,
    SubgraphCertificate,
    check_full_3regular,
    check_interval,
    check_proper,
    check_proper_path_factor,
)
from .coloring import color_from_factor, color_summary
from .errors import BudgetExceeded, InvariantError
from .generators import (
    claw_triple_graph,
    eight_triples_graph,
    independent_obstruction,
    no_mixed_transversal_instance,
    random_34_biregular,
    spread_obstruction,
    subset_graph_6,
    two_eight_triples,
    two_switch,
)
from .oracle import (
    oracle_full_3regular,
    oracle_interval_coloring,
    oracle_path_factor,
)
from .pathfactor import (
    SearchResult,
    find_y_cover,
    p7_factor_via_24,
    pivot_path_factor,
    search_full_3regular,
    search_proper_path_factor,
)
from .transversal import (
    FGraph,
    MixedTransversal,
    TripleSystem,
    build_f,
    factor_from_mixed_transversal,
    find_independent_transversal,
    find_mixed_transversal,
    find_spread_transversal,
    is_spread,
    proper_3_edge_color,
)

__all__ = [
    "BipartiteMultigraph",
    "Vertex",
    "build",
    "xv",
    "yv",
    "EdgeColoring",
    "Path",
    "PathFactor",
    "SubgraphCertificate",
    "check_proper",
    "check_interval",
    "check_proper_path_factor",
    "check_full_3regular",
    "color_from_factor",
    "color_summary",
    "InvariantError",
    "BudgetExceeded",
    "subset_graph_6",
    "eight_triples_graph",
    "claw_triple_graph",
    "two_switch",
    "two_eight_triples",
    "random_34_biregular",
    "independent_obstruction",
    "spread_obstruction",
    "no_mixed_transversal_instance",
    "oracle_path_factor",
    "oracle_interval_coloring",
    "oracle_full_3regular",
    "find_y_cover",
    "p7_factor_via_24",
    "search_proper_path_factor",
    "pivot_path_factor",
    "search_full_3regular",
    "SearchResult",
    "FGraph",
    "TripleSystem",
    "MixedTransversal",
    "proper_3_edge_color",
    "build_f",
    "is_spread",
    "find_independent_transversal",
    "find_spread_transversal",
    "find_mixed_transversal",
    "factor_from_mixed_transversal",
]
