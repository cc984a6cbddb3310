"""Certificates and their checkers.

Everything a construction can hand back is a certificate: an edge
coloring, a path factor, or an edge-set subgraph. The checkers here are
the ground truth the rest of the library (and its tests) verify against.
They run over integer node ids (X-vertex i is node i, Y-vertex j is node
x_count + j) with flag arrays and per-vertex color bitmasks, and build
`Vertex` labels only for the messages they return. One pass over the
edges decides both properness and the interval property of an edge
coloring. The direct `Vertex`-based readings of the definitions are kept
as references in tests/test_certify_kernels.py, which checks that both
give the same answers and messages.

Every route that builds a certificate returns it through the finish for
its kind (`finish_factor`, `finish_subgraph`, `finish_coloring`), which
re-checks it with the checker `verify` uses and raises InvariantError
naming the route (a coloring gap names the vertex); these are plain
calls, so they also run under `python -O`.

Conventions: a malformed certificate (dangling edge id, vertex out of
range, partial coloring) raises ValueError; a well-formed certificate
that simply fails the property returns False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bigraph import _LABELS, BipartiteMultigraph, Vertex, _strict_int, node_vertex, parse_vertex, vertex_tables
from .errors import InvariantError

FACTOR_LENGTHS = (2, 4, 6, 8)


def _length_set(lengths: Iterable[int]) -> frozenset[int]:
    """`lengths` as a set, once it is a nonempty subset of FACTOR_LENGTHS;
    otherwise ValueError. The factor searches take their lengths here."""
    allowed = frozenset(lengths)
    if not allowed or not allowed <= set(FACTOR_LENGTHS):
        raise ValueError(f"lengths must be a nonempty subset of {FACTOR_LENGTHS}")
    return allowed


@dataclass(frozen=True)
class Path:
    """A walk written as alternating vertices and edge ids.

    vertices[i] and vertices[i+1] are joined by edges[i]; the number of
    edges is the path's length.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PathFactor:
    paths: tuple[Path, ...]

    def edge_ids(self) -> frozenset[int]:
        return frozenset(e for p in self.paths for e in p.edges)


@dataclass(frozen=True)
class EdgeColoring:
    """Total map edge id -> color, stored positionally."""

    colors: tuple[int, ...]
    palette_size: int


@dataclass(frozen=True)
class SubgraphCertificate:
    edge_set: frozenset[int]


def _validate_coloring(g: BipartiteMultigraph, coloring: EdgeColoring) -> None:
    colors, palette = coloring.colors, coloring.palette_size
    if len(colors) > g.edge_count:
        raise ValueError(f"coloring covers {len(colors)} edges, graph has {g.edge_count}")
    if len(colors) < g.edge_count:
        missing = list(range(len(colors), g.edge_count))
        raise ValueError(f"partial coloring: edges {missing} uncolored")
    if colors and not (1 <= min(colors) and max(colors) <= palette):
        bad = [eid for eid, c in enumerate(colors) if not (1 <= c <= palette)]
        raise ValueError(f"colors outside 1..{palette} on edges {bad}")


def vertex_colors(g: BipartiteMultigraph, coloring: EdgeColoring, v: Vertex) -> list[int]:
    """Colors incident to v, sorted, multiplicities kept."""
    adj = g.x_adj if v.side == "X" else g.y_adj
    return sorted([coloring.colors[eid] for eid, _ in adj[v.index]])


def _coloring_scan(
    g: BipartiteMultigraph, coloring: EdgeColoring
) -> tuple[bool, tuple[Vertex, tuple[int, ...]] | None]:
    """(proper, first vertex whose colors are not consecutive, with its colors).

    One pass over the edges keeps a color bitmask per vertex and stops at
    the first color clash (a bit already set); the gap, searched in
    X-then-Y vertex order, is only meaningful when the coloring is proper.
    """
    _validate_coloring(g, coloring)
    xmask = [0] * g.x_count
    ymask = [0] * g.y_count
    for (x, y), c in zip(g.edges, coloring.colors):
        bit = 1 << c
        mx, my = xmask[x], ymask[y]
        if (mx | my) & bit:
            return False, None
        xmask[x] = mx | bit
        ymask[y] = my | bit
    for side, masks in (("X", xmask), ("Y", ymask)):
        for index, m in enumerate(masks):
            if ((m | (m - 1)) + 1) & m:  # set bits are not one run
                v = Vertex(side, index)  # adjacency is built only when a gap shows
                return True, (v, tuple(vertex_colors(g, coloring, v)))
    return True, None


def check_proper(g: BipartiteMultigraph, coloring: EdgeColoring) -> bool:
    """No color repeats at any vertex. Partial colorings are an error."""
    return _coloring_scan(g, coloring)[0]


def interval_violation(g: BipartiteMultigraph, coloring: EdgeColoring) -> tuple[Vertex, tuple[int, ...]] | None:
    """First vertex whose incident colors are not consecutive, with its colors.

    Properness is a precondition (consecutiveness of a multiset with
    repeats is not meaningful), so an improper coloring raises, even when
    an earlier vertex already has a gap.
    """
    proper, gap = _coloring_scan(g, coloring)
    if not proper:
        raise ValueError("coloring is not proper; interval property undefined")
    return gap


def check_interval(g: BipartiteMultigraph, coloring: EdgeColoring) -> bool:
    """Proper and, at every vertex, the incident colors form a consecutive run."""
    return interval_violation(g, coloring) is None


def path_factor_violation(g: BipartiteMultigraph, factor: PathFactor) -> str | None:
    """Why `factor` is not a proper path factor of g, or None if it is one.

    Checks, in order: each path is a real path of g (edge ids join the
    stated vertices, no vertex repeats), every path has both endpoints on
    the X side with length in {2,4,6,8}, the paths are pairwise
    vertex-disjoint, edge-disjoint, and together cover every vertex.
    A path with a vertex count that does not match its edges, an unknown
    vertex or an edge id outside the graph raises ValueError.
    """
    n, ny, m = g.x_count, g.y_count, g.edge_count
    graph_edges = g.edges
    seen_nodes = bytearray(n + ny)  # node ids: X-vertex i is i, Y-vertex j is n + j
    seen_edges = bytearray(m)
    covered = 0
    for pi, p in enumerate(factor.paths):
        verts, eids = p.vertices, p.edges
        if len(verts) != len(eids) + 1:
            raise ValueError(f"path has {len(verts)} vertices but {len(eids)} edges")
        nodes = []
        for v in verts:
            side, index = v
            if side == "X" and 0 <= index < n:
                nodes.append(index)
            elif side == "Y" and 0 <= index < ny:
                nodes.append(n + index)
            else:
                raise ValueError(f"path mentions unknown vertex {v!r}")
        for eid in eids:
            if not (0 <= eid < m):
                raise ValueError(f"path references edge {eid}, graph has {m}")
        if len(eids) not in FACTOR_LENGTHS:
            return f"path {pi} has length {len(eids)}, allowed {FACTOR_LENGTHS}"
        if nodes[0] >= n or nodes[-1] >= n:
            return f"path {pi} does not have both endpoints on the X side"
        if len(set(nodes)) != len(nodes):
            return f"path {pi} repeats a vertex"
        for i, eid in enumerate(eids):
            x, y = graph_edges[eid]
            a, b = nodes[i], nodes[i + 1]
            if not ((a == x and b == n + y) or (b == x and a == n + y)):
                return f"path {pi}: edge {eid} joins x{x},y{y}, not {verts[i].label},{verts[i + 1].label}"
            if seen_edges[eid]:
                return f"edge {eid} used twice"
            seen_edges[eid] = 1
        for i, u in enumerate(nodes):
            if seen_nodes[u]:
                return f"vertex {verts[i].label} lies on two paths"
            seen_nodes[u] = 1
        covered += len(nodes)
    if covered < len(seen_nodes):
        uncovered = [node_vertex(n, u).label for u, s in enumerate(seen_nodes) if not s]
        return f"vertices not covered: {', '.join(uncovered[:8])}"
    return None


def check_proper_path_factor(g: BipartiteMultigraph, factor: PathFactor) -> bool:
    """Spanning collection of disjoint paths, X-endpoints, lengths in {2,4,6,8}."""
    return path_factor_violation(g, factor) is None


def check_full_3regular(g: BipartiteMultigraph, cert: SubgraphCertificate) -> bool:
    """Edge set whose subgraph is 3-regular on all of Y, degree 0 or 3 on X.

    Only defined over (3,4)-biregular graphs; anything else raises.
    """
    if not g.biregular34:
        raise ValueError("full 3-regular subgraphs are defined over (3,4)-biregular graphs")
    m = g.edge_count
    xdeg = [0] * g.x_count
    ydeg = [0] * g.y_count
    for eid in cert.edge_set:
        if not (0 <= eid < m):
            raise ValueError(f"certificate references edge {eid}, graph has {m}")
        x, y = g.edges[eid]
        xdeg[x] += 1
        ydeg[y] += 1
    return ydeg.count(3) == len(ydeg) and xdeg.count(0) + xdeg.count(3) == len(xdeg)


# --- finishes ------------------------------------------------------------
#
# A certificate that fails its checker here is a bug, not bad input, so
# the finishes raise InvariantError rather than ValueError.

def node_path(x_count: int, nodes: Sequence[int], eids: Sequence[int]) -> Path:
    """The path through node ids `nodes` (X-vertex i is i, Y-vertex j is
    x_count + j) along edge ids `eids`, over the shared vertex tables.
    Callers pass the node ids of one graph's walks, so the largest is
    below that graph's vertex count, and the tables grow at most to it."""
    xs, ys = vertex_tables(x_count, max(nodes, default=-1) + 1 - x_count)
    return Path(tuple([xs[u] if u < x_count else ys[u - x_count] for u in nodes]), tuple(eids))


def finish_factor(g: BipartiteMultigraph, factor: PathFactor, route: str) -> PathFactor:
    """`factor`, once `path_factor_violation` passes it; otherwise
    InvariantError("<route> failed: <why>")."""
    why = path_factor_violation(g, factor)
    if why is not None:
        raise InvariantError(f"{route} failed: {why}")
    return factor


def finish_subgraph(g: BipartiteMultigraph, dropped: Iterable[int], route: str) -> SubgraphCertificate:
    """The subgraph of every edge whose X-end is not in `dropped`, once
    `check_full_3regular` passes it; otherwise InvariantError."""
    drop = set(dropped)
    cert = SubgraphCertificate(frozenset(eid for eid, (x, _) in enumerate(g.edges) if x not in drop))
    if not check_full_3regular(g, cert):
        raise InvariantError(f"{route} failed: not a full 3-regular subgraph")
    return cert


def finish_coloring(g: BipartiteMultigraph, coloring: EdgeColoring, route: str) -> EdgeColoring:
    """`coloring`, once `interval_violation` finds it proper with no gap;
    otherwise InvariantError. Routes hand over total colorings within
    their palette, so a ValueError from the check means a color clash."""
    try:
        gap = interval_violation(g, coloring)
    except ValueError as exc:
        raise InvariantError(f"{route} produced a color clash") from exc
    if gap is not None:
        v, got = gap
        raise InvariantError(f"{route} failed: colors {got} at {v.label} are not consecutive")
    return coloring


# --- serialization -----------------------------------------------------
#
# Paths travel as interleaved arrays ["x0", 3, "y1", 7, "x2"]: vertex
# labels at even positions, edge ids at odd ones.

def factor_to_dict(factor: PathFactor) -> dict:
    paths = []
    for p in factor.paths:
        seq: list = [None] * (2 * len(p.edges) + 1)
        seq[::2] = [f"{side.lower()}{index}" for side, index in p.vertices]  # Vertex.label
        seq[1::2] = p.edges
        paths.append(seq)
    return {"paths": paths}


def factor_from_dict(d: dict) -> PathFactor:
    """The factor a factor_to_dict() object describes. A label is looked up
    in the shared vertex tables, sized first to the object's label count,
    and int edge ids are read directly; anything else goes through
    parse_vertex or _strict_int, which reject it with their own messages."""
    paths = []
    labels = _LABELS
    try:
        seqs = d["paths"]
        if type(seqs) is list:  # a proper factor names each vertex once, so both sides fit
            count = sum([(len(seq) + 1) // 2 for seq in seqs if type(seq) is list])
            vertex_tables(count, count)
        for seq in seqs:
            if len(seq) % 2 == 0 or len(seq) < 3:
                raise ValueError(f"path array of length {len(seq)} cannot alternate vertex/edge")
            verts = []
            for item in seq[::2]:
                if type(item) is str:  # anything else could be unhashable
                    v = labels.get(item)
                    if v is not None:
                        verts.append(v)
                        continue
                verts.append(parse_vertex(item))
            eids = seq[1::2]
            for i, item in enumerate(eids):
                if type(item) is not int:
                    _strict_int(item, f"edge id at position {2 * i + 1}")
            paths.append(Path(tuple(verts), tuple(eids)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factor object: {exc}") from exc
    return PathFactor(tuple(paths))


def coloring_to_dict(coloring: EdgeColoring) -> dict:
    return {"palette_size": coloring.palette_size, "colors": list(coloring.colors)}


def coloring_from_dict(d: dict) -> EdgeColoring:
    try:
        colors = tuple(d["colors"])
        if not set(map(type, colors)) <= {int}:  # a bool or float fails; _strict_int names the first
            for c in colors:
                _strict_int(c, "color")
        return EdgeColoring(colors, _strict_int(d["palette_size"], "palette_size"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coloring object: {exc}") from exc


def cert_to_dict(cert: SubgraphCertificate) -> dict:
    return {"edges": sorted(cert.edge_set)}


def cert_from_dict(d: dict) -> SubgraphCertificate:
    try:
        eids = [_strict_int(e, "edge id") for e in d["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed subgraph object: {exc}") from exc
    seen: set[int] = set()
    for eid in eids:
        if eid in seen:
            raise ValueError(f"edge id {eid} listed twice")
        seen.add(eid)
    return SubgraphCertificate(frozenset(seen))
