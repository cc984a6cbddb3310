"""Interval 6-coloring of a (3,4)-biregular graph from a proper path factor.

The factor's edges take colors from {1, 2, 5, 6} and the leftover edges
take {3, 4}. Around the leftover subgraph (cycles and X-to-X paths) the
two middle colors simply alternate; a leftover path starts with 3 at the
endpoint the link-graph 2-coloring calls A. Along each factor path the
colors run 2,1,2,1,... while passing interior vertices colored A, then
5,6,5,... for the rest, which meets every vertex with a consecutive
block: interior A-vertices see {1,2,3}, interior B-vertices {4,5,6},
factor endpoints {2,3,4} or {3,4,5}, and Y-vertices one of {1,2,3,4},
{2,3,4,5}, {3,4,5,6}.

The construction double-checks its own output and raises InvariantError
rather than return a bad coloring.
"""

from __future__ import annotations

from .bigraph import BipartiteMultigraph, Vertex
from .checker import (
    EdgeColoring,
    PathFactor,
    interval_violation,
    vertex_colors,
)
from .errors import InvariantError
from .pathfactor import _pgraph_from_q, build_q, two_color_pgraph

PALETTE = 6
FACTOR_COLORS = frozenset({1, 2, 5, 6})
LEFTOVER_COLORS = frozenset({3, 4})


def _factor_path_colors(length: int, a_interior: int) -> list[int]:
    """Colors along a factor path oriented A-side first.

    With t = a_interior, edge i gets 2/1 (alternating, starting 2) while
    i <= 2t and 5/6 (alternating, starting 5) after, so the run always
    opens on 2 and closes on 5.
    """
    cut = 2 * a_interior
    out = []
    for i in range(length):
        if i <= cut:
            out.append(2 - (i % 2))
        else:
            out.append(5 + ((i - cut - 1) % 2))
    return out


def color_from_factor(g: BipartiteMultigraph, factor: PathFactor) -> EdgeColoring:
    """Interval 6-coloring built from a proper path factor."""
    qd = build_q(g, factor)  # also checks the graph and the factor
    side = two_color_pgraph(_pgraph_from_q(factor, qd))

    colors = [0] * len(g.edges)

    for cyc in qd.cycles:
        low = cyc.index(min(cyc))
        for pos in range(len(cyc)):
            colors[cyc[(low + pos) % len(cyc)]] = 3 + (pos % 2)

    for qp in qd.paths:
        eids = list(qp.edges)
        if side[qp.vertices[0].index] != "A":
            eids.reverse()
        for pos, eid in enumerate(eids):
            colors[eid] = 3 + (pos % 2)

    for p in factor.paths:
        interior = [p.vertices[i].index for i in range(2, p.length - 1, 2)]
        eids = list(p.edges)
        if p.length in (2, 4):
            if eids[0] > eids[-1]:
                eids.reverse()
        elif side[interior[0]] != "A":
            eids.reverse()
        t = sum(1 for w in interior if side[w] == "A")
        for eid, c in zip(eids, _factor_path_colors(p.length, t)):
            colors[eid] = c

    if 0 in colors:
        raise InvariantError("construction left an edge uncolored")
    on_factor = factor.edge_ids()
    for eid, c in enumerate(colors):
        want = FACTOR_COLORS if eid in on_factor else LEFTOVER_COLORS
        if c not in want:
            raise InvariantError(f"edge {eid} got color {c}, outside {sorted(want)}")
    out = EdgeColoring(tuple(colors), PALETTE)
    try:
        bad = interval_violation(g, out)
    except ValueError as exc:  # the coloring is total and in range, so only a clash raises
        raise InvariantError("construction produced a color clash") from exc
    if bad is not None:
        v, got = bad
        raise InvariantError(f"colors {got} at {v.label} are not consecutive")
    return out


def color_summary(g: BipartiteMultigraph, coloring: EdgeColoring) -> dict[Vertex, tuple[int, ...]]:
    """Sorted color set at every vertex, keyed by vertex."""
    return {v: tuple(vertex_colors(g, coloring, v)) for v in g.vertices()}
