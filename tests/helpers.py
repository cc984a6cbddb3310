"""Random instance builders shared by several test modules, and the
certificate kernels' node-id output lifted into `Path` objects and named
tuples, the form the tests compare."""

import random
import sys
from contextlib import contextmanager
from typing import NamedTuple

from interval6 import bigraph
from interval6.bigraph import BipartiteMultigraph, build, node_vertex
from interval6.checker import Path, PathFactor, node_path
from interval6.pathfactor import build_pgraph, build_q, p3_half_factor, two_color_pgraph


def random_24_biregular(m: int, rng: random.Random) -> BipartiteMultigraph:
    """Configuration-model multigraph with 2m X-vertices of degree 2 and m Y-vertices of degree 4."""
    y_stubs = [j for j in range(m) for _ in range(4)]
    rng.shuffle(y_stubs)
    return build(2 * m, m, [(s // 2, y_stubs[s]) for s in range(4 * m)])


def random_cover_admitting(k: int, rng: random.Random) -> BipartiteMultigraph:
    """(3,4)-biregular graph that certainly has a Y-set exactly covering X.

    Takes a random (2,4)-biregular graph on 4k X-vertices and adds k new
    Y-vertices wired to a random partition of X into quadruples.
    """
    h = random_24_biregular(2 * k, rng)
    order = list(range(4 * k))
    rng.shuffle(order)
    edges = list(h.edges)
    for j in range(k):
        for x in order[4 * j : 4 * j + 4]:
            edges.append((x, 2 * k + j))
    return build(4 * k, 3 * k, edges)


def random_core_admitting(k: int, rng: random.Random) -> BipartiteMultigraph:
    """(3,4)-biregular graph that certainly has a full 3-regular subgraph.

    A configuration-model 3-regular core on 3k + 3k vertices plus k new
    X-vertices wired to a random partition of Y into triples.
    """
    y_stubs = [j for j in range(3 * k) for _ in range(3)]
    rng.shuffle(y_stubs)
    edges = [(s // 3, y_stubs[s]) for s in range(9 * k)]
    order = list(range(3 * k))
    rng.shuffle(order)
    for i in range(k):
        for y in order[3 * i : 3 * i + 3]:
            edges.append((3 * k + i, y))
    return build(4 * k, 3 * k, edges)


def disjoint_k43(copies: int) -> BipartiteMultigraph:
    """`copies` disjoint K_{4,3}; each has a single length-6 path as its factor."""
    return build(4 * copies, 3 * copies, [
        (4 * c + i, 3 * c + j) for c in range(copies) for i in range(4) for j in range(3)
    ])


@contextmanager
def recursion_limit(n: int):
    """Run the block with room for at most `n` Python frames above the
    caller's own depth, so any recursion that grows with input size fails
    at once rather than only on huge inputs. The old limit comes back on
    exit."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@contextmanager
def cold_vertex_tables():
    """Run the block with the shared vertex tables and label dict empty;
    the old ones come back on exit."""
    xs, ys, labels = bigraph._XS, bigraph._YS, dict(bigraph._LABELS)
    bigraph._XS, bigraph._YS = [], []
    bigraph._LABELS.clear()
    try:
        yield
    finally:
        bigraph._XS, bigraph._YS = xs, ys
        bigraph._LABELS.clear()
        bigraph._LABELS.update(labels)


# --- the certificate kernels' output, lifted ------------------------------


class QDecomposition(NamedTuple):
    """The leftover subgraph: cycles as edge ids in walk order, X-to-X paths."""

    cycles: tuple[tuple[int, ...], ...]
    paths: tuple[Path, ...]


class PEdge(NamedTuple):
    u: int  # X-side vertex index
    v: int
    kind: str  # "a": same length-6 path; "b": distance 4 in a length-8 path; "c": leftover path ends


class PGraph(NamedTuple):
    """The link graph: sorted interior X ids and its edges."""

    vertices: tuple[int, ...]
    edges: tuple[PEdge, ...]


class HalfFactor(NamedTuple):
    """Length-2 paths centred on the Y-vertices, in Y order, with ascending X-ends."""

    edge_set: frozenset[int]
    paths: tuple[Path, ...]


def q_decomposition(g: BipartiteMultigraph, factor: PathFactor) -> QDecomposition:
    """`build_q`'s cycles and paths, each path as a `Path`."""
    _, cycles, paths = build_q(g, factor)
    return QDecomposition(tuple(map(tuple, cycles)), tuple(node_path(g.x_count, *p) for p in paths))


def p_graph(g: BipartiteMultigraph, factor: PathFactor) -> PGraph:
    """`build_pgraph` of the factor, over the leftover split `build_q` gives."""
    _, _, q_paths = build_q(g, factor)
    inner, links = build_pgraph(g.x_count, factor, q_paths)
    return PGraph(tuple(inner), tuple(PEdge(*e) for e in links))


def pgraph_sides(pg: PGraph) -> dict[int, str]:
    """`two_color_pgraph` of `pg`, as X id -> "A" | "B" over its vertices.

    The side array spans the vertices; a link end beyond them is not a
    vertex, and raises KeyError before any side is read."""
    side = two_color_pgraph(max(pg.vertices, default=-1) + 1, pg.vertices, pg.edges)
    return {u: "AB"[side[u] - 1] for u in pg.vertices}


def half_factor(h: BipartiteMultigraph, parity: int = 0) -> HalfFactor:
    """`p3_half_factor` of `h`, each Y-vertex's pair as a length-2 `Path`."""
    pairs = p3_half_factor(h.x_count, h.y_count, h.edges, parity)
    n = h.x_count
    paths = tuple(node_path(n, (h.edges[e1][0], n + y, h.edges[e2][0]), (e1, e2)) for y, (e1, e2) in enumerate(pairs))
    return HalfFactor(frozenset(e for pair in pairs for e in pair), paths)


def vertex_components(g: BipartiteMultigraph) -> list[list[bigraph.Vertex]]:
    """`components` of the graph's node adjacency, as `Vertex` lists."""
    return [[node_vertex(g.x_count, u) for u in comp] for comp in bigraph.components(g.node_adj)]
