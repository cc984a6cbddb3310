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

The construction runs on the node-id kernels of `pathfactor`: the
leftover split (`build_q`, which also checks the graph and the factor,
and walks each cycle and path with `bigraph._split`), the link graph
over X ids (`build_pgraph`) and its breadth-first 2-coloring into a side
array (`two_color_pgraph`). Colors are written straight into one list,
and no `Vertex` or `Path` object is built. It double-checks its own output
(every edge colored, factor edges in {1, 2, 5, 6} and leftover edges in
{3, 4}, then the interval property through `checker.finish_coloring`)
and raises InvariantError rather than return a bad coloring.
"""

from __future__ import annotations

from .bigraph import BipartiteMultigraph, Vertex
from .checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    PathFactor,
    finish_coloring,
    vertex_colors,
)
from .errors import InvariantError
from .pathfactor import build_pgraph, build_q, two_color_pgraph

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


# _FACTOR_RUNS[length][t]: _factor_path_colors for every t a path of that length can have
_FACTOR_RUNS = {length: [_factor_path_colors(length, t) for t in range(length // 2)] for length in FACTOR_LENGTHS}
# per color: 1 for a factor color, 0 for a leftover color, 2 for neither
_COLOR_KIND = bytes(1 if c in FACTOR_COLORS else 0 if c in LEFTOVER_COLORS else 2 for c in range(256))


def color_from_factor(g: BipartiteMultigraph, factor: PathFactor) -> EdgeColoring:
    """Interval 6-coloring built from a proper path factor."""
    on_factor, cycles, q_paths = build_q(g, factor)  # also checks the graph and the factor
    inner, links = build_pgraph(g.x_count, factor, q_paths)
    side = two_color_pgraph(g.x_count, inner, links)  # link-graph side per X id: 1 for A, 2 for B

    colors = [0] * len(g.edges)

    # Leftover cycles and paths have even length, so 3 and 4 alternate
    # around a cycle from its lowest edge id and along a path from its A-end.
    runs = [(cyc, 3 + cyc.index(min(cyc)) % 2) for cyc in cycles]
    runs += [(eids, 3 if side[nodes[0]] == 1 else 4) for nodes, eids in q_paths]
    for eids, first in runs:
        for eid in eids[::2]:
            colors[eid] = first
        for eid in eids[1::2]:
            colors[eid] = 7 - first

    for p in factor.paths:
        eids, verts = p.edges, p.vertices
        length = len(eids)
        sides = [side[verts[i].index] for i in range(2, length - 1, 2)]
        if length in (2, 4):
            if eids[0] > eids[-1]:
                eids = eids[::-1]
        elif sides[0] != 1:
            eids = eids[::-1]
        for eid, c in zip(eids, _FACTOR_RUNS[length][sides.count(1)]):
            colors[eid] = c

    kinds = bytes(colors).translate(_COLOR_KIND)
    if kinds != on_factor:  # an uncolored edge (color 0) is of neither kind
        if 0 in colors:
            raise InvariantError("construction left an edge uncolored")
        eid = next(e for e, (kind, f) in enumerate(zip(kinds, on_factor)) if kind != f)
        want = FACTOR_COLORS if on_factor[eid] else LEFTOVER_COLORS
        raise InvariantError(f"edge {eid} got color {colors[eid]}, outside {sorted(want)}")
    return finish_coloring(g, EdgeColoring(tuple(colors), PALETTE), "construction")


def color_summary(g: BipartiteMultigraph, coloring: EdgeColoring) -> dict[Vertex, tuple[int, ...]]:
    """Sorted color set at every vertex, keyed by vertex."""
    return {v: tuple(vertex_colors(g, coloring, v)) for v in g.vertices()}
