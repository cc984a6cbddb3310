"""Bipartite multigraphs with stable integer edge ids.

Everything in this library runs over one concrete representation. The two
sides of the bipartition are index ranges: X-side vertices 0..x_count-1
and Y-side vertices 0..y_count-1. An edge is an (x, y) pair stored at a
fixed position in the edge list, and that position is the edge's id.
Parallel edges are therefore distinct objects, and certificates (path
factors, colorings, subgraphs) can reference edges unambiguously.

Graphs are immutable after build(), the one validator of counts and edges
(from_dict hands it the edge list). delete_y returns a new graph together
with index maps back to the original.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import InvariantError


class Vertex(NamedTuple):
    side: str  # "X" or "Y"
    index: int

    @property
    def label(self) -> str:
        return f"{self.side.lower()}{self.index}"


# One shared Vertex per vertex: _XS[i] is Vertex("X", i), _YS[j] is
# Vertex("Y", j), and _LABELS maps each one's label ("x12") to it. Only
# vertex_tables grows them, to a graph's own vertex counts or to the
# number of labels in an input being parsed, never to an index read from
# input. It builds a new list and rebinds it, so a table a caller holds
# keeps its meaning while another call grows the next one; _LABELS is only
# ever updated in place. Nothing relies on identity: a shared Vertex
# equals, and hashes as, a fresh one.
_XS: list[Vertex] = []
_YS: list[Vertex] = []
_LABELS: dict[str, Vertex] = {}


def _table_grown(table: list[Vertex], side: str, count: int) -> list[Vertex]:
    """`table` extended to at least `count` entries (doubling), with the new labels registered."""
    lo, hi = len(table), max(count, 2 * len(table))
    new = tuple.__new__  # skips the Python-level Vertex.__new__ NamedTuple generates
    grown = [new(Vertex, (side, i)) for i in range(lo, hi)]
    prefix = side.lower()
    _LABELS.update(zip([f"{prefix}{i}" for i in range(lo, hi)], grown))
    return table + grown


def vertex_tables(x_count: int, y_count: int) -> tuple[list[Vertex], list[Vertex]]:
    """The shared X and Y tables, holding at least `x_count` and `y_count` vertices."""
    global _XS, _YS
    xs, ys = _XS, _YS
    if len(xs) < x_count:
        xs = _XS = _table_grown(xs, "X", x_count)
    if len(ys) < y_count:
        ys = _YS = _table_grown(ys, "Y", y_count)
    return xs, ys


# xv, yv and node_vertex look a vertex up in the shared tables and build
# it only when its index lies outside them, so xv(-1) is Vertex("X", -1).
def xv(i: int) -> Vertex:
    xs = _XS
    if type(i) is int and 0 <= i < len(xs):
        return xs[i]
    return tuple.__new__(Vertex, ("X", i))


def yv(j: int) -> Vertex:
    ys = _YS
    if type(j) is int and 0 <= j < len(ys):
        return ys[j]
    return tuple.__new__(Vertex, ("Y", j))


# A label is its vertex's one spelling: ASCII digits (\d also takes other
# scripts' digits) with no leading zero, so "x01" does not alias x1.
_LABEL_RE = re.compile(r"([xy])(0|[1-9][0-9]*)")


def node_vertex(x_count: int, node: int) -> Vertex:
    """The vertex with node id `node` (see BipartiteMultigraph.node_adj)."""
    return xv(node) if node < x_count else yv(node - x_count)


def parse_vertex(label: str) -> Vertex:
    m = _LABEL_RE.fullmatch(label)  # the whole label, so "x1\n" fails
    if not m:
        raise ValueError(f"bad vertex label {label!r}")
    return Vertex(m.group(1).upper(), int(m.group(2)))


@dataclass(frozen=True)
class BipartiteMultigraph:
    x_count: int
    y_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    # Adjacency is cached per instance; edge lists are kept in edge-id
    # order so every traversal that walks them is deterministic.
    @cached_property
    def x_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.x_count)]
        for eid, (x, y) in enumerate(self.edges):
            adj[x].append((eid, y))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def y_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.y_count)]
        for eid, (x, y) in enumerate(self.edges):
            adj[y].append((eid, x))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def node_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Edges at every vertex as (edge id, other end) over node ids.

        X-vertex i is node i and Y-vertex j is node x_count + j, so node
        order is vertex order; each list is in edge-id order.
        """
        n = self.x_count
        return tuple(tuple((eid, n + j) for eid, j in a) for a in self.x_adj) + self.y_adj

    @cached_property
    def biregular34(self) -> bool:
        """Whether the graph is (3,4)-biregular; the degrees are counted once per graph."""
        return is_biregular(self, 3, 4)

    def degree(self, v: Vertex) -> int:
        if v.side == "X":
            return len(self.x_adj[v.index])
        return len(self.y_adj[v.index])

    def vertices(self) -> list[Vertex]:
        xs, ys = vertex_tables(self.x_count, self.y_count)
        return xs[: self.x_count] + ys[: self.y_count]

    def incident(self, v: Vertex) -> tuple[tuple[int, Vertex], ...]:
        """Edges at v as (edge id, other endpoint), in edge-id order."""
        xs, ys = vertex_tables(self.x_count, self.y_count)
        if v.side == "X":
            return tuple([(eid, ys[j]) for eid, j in self.x_adj[v.index]])
        return tuple([(eid, xs[i]) for eid, i in self.y_adj[v.index]])

    def endpoints(self, eid: int) -> tuple[Vertex, Vertex]:
        x, y = self.edges[eid]
        return xv(x), yv(y)


def build(x_count: int, y_count: int, edges: Sequence[tuple[int, int]]) -> BipartiteMultigraph:
    """Build a graph, checking for nonnegative counts and pairs of in-range int (not bool) endpoints.

    Edge ids are the positions in `edges`; the list is kept as given.
    """
    if x_count < 0 or y_count < 0:
        raise ValueError("vertex counts must be nonnegative")
    clean = []
    for pos, pair in enumerate(edges):
        try:
            x, y = pair
        except ValueError:
            raise ValueError(f"edge {pos} is not an (x, y) pair") from None
        if type(x) is not int or type(y) is not int:  # the common case skips both calls
            _strict_int(x, "edge endpoint")
            _strict_int(y, "edge endpoint")
        if not (0 <= x < x_count and 0 <= y < y_count):
            raise ValueError(f"edge {pos} joins ({x}, {y}), outside 0..{x_count - 1} x 0..{y_count - 1}")
        clean.append((x, y))
    return BipartiteMultigraph(x_count, y_count, tuple(clean))


def is_biregular(g: BipartiteMultigraph, a: int, b: int) -> bool:
    """True when every X-vertex has degree a and every Y-vertex degree b (counted over g.edges)."""
    xdeg = [0] * g.x_count
    ydeg = [0] * g.y_count
    for x, y in g.edges:
        xdeg[x] += 1
        ydeg[y] += 1
    return xdeg.count(a) == g.x_count and ydeg.count(b) == g.y_count


def biregular34_k(g: BipartiteMultigraph) -> int:
    """The scale k of a (3,4)-biregular graph (|X| = 4k, |Y| = 3k); raises otherwise."""
    if not g.biregular34:
        raise ValueError("graph is not (3,4)-biregular")
    k, rem = divmod(g.x_count, 4)
    if rem or g.y_count != 3 * k:
        # unreachable: 3|X| = edges = 4|Y| forces |X| = 4k, |Y| = 3k
        raise ValueError("side sizes inconsistent with (3,4)-biregularity")
    return k


def is_simple(g: BipartiteMultigraph) -> bool:
    return len(set(g.edges)) == len(g.edges)


def components(adj: Sequence[Sequence[tuple[int, int]]]) -> list[list[int]]:
    """Connected components of a node-id adjacency, as sorted node lists.

    `adj[u]` lists (edge id, other end) pairs, as in
    BipartiteMultigraph.node_adj. Components are ordered by smallest node,
    and a node with no edges is its own component.
    """
    seen = [False] * len(adj)
    out: list[list[int]] = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # breadth first: comp is the queue
            for _, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        out.append(comp)
    return out


def _split(
    n: int, size: int, edges: Sequence[tuple[int, int]], eids: Sequence[int]
) -> tuple[list[list[int]], list[tuple[list[int], list[int]]]]:
    """An edge set in which every node has degree 1 or 2, split into cycles and paths.

    `edges` lists (x, y) pairs by edge id and `eids` picks the set's edges
    in ascending order; X-vertex i is node i and Y-vertex j is node n + j,
    out of `size` nodes. Each cycle is its edge ids in walk order and each
    path its (node ids, edge ids). Components come in order of their
    smallest node; a cycle is walked from its smallest node along its lower
    edge id, and a path from its smaller end. A node of degree 0 or above 2
    raises InvariantError before any walk.
    """
    # Every node keeps its lower edge id in lo and the other in hi (-1 at
    # degree 1). An edge's far end is its node-id sum minus the near end.
    lo = [-1] * size
    hi = [-1] * size
    ends = [0] * len(edges)
    for eid in eids:
        x, y = edges[eid]
        y += n
        ends[eid] = x + y
        if lo[x] < 0:
            lo[x] = eid
        else:
            hi[x] = eid
        if lo[y] < 0:
            lo[y] = eid
        else:
            hi[y] = eid
    # degree 0 leaves lo at -1; above 2, the slots hold fewer edges than the node has
    if -1 in lo or 2 * size - hi.count(-1) != 2 * len(eids):
        deg = [0] * size
        for eid in eids:
            deg[edges[eid][0]] += 1
            deg[n + edges[eid][1]] += 1
        u = next(u for u, d in enumerate(deg) if not 1 <= d <= 2)
        raise InvariantError(f"degree {deg[u]} at {node_vertex(n, u).label}; a path-and-cycle split needs 1 or 2")

    def walk(u: int, eid: int) -> tuple[list[int], list[int]]:
        """From u along eid to the next degree-1 node, or back to u."""
        nodes, out = [u], []
        cur = u
        while True:
            out.append(eid)
            cur = ends[eid] - cur
            if cur == u:
                return nodes, out
            nodes.append(cur)
            nxt = lo[cur]
            if nxt == eid:
                nxt = hi[cur]
                if nxt < 0:
                    return nodes, out
            eid = nxt

    seen = bytearray(size)
    cycles: list[list[int]] = []
    paths: list[tuple[list[int], list[int]]] = []
    u = seen.find(0)
    while u >= 0:  # u is the smallest node of the next component
        nodes, path = walk(u, lo[u])
        last = nodes[-1]
        if hi[u] >= 0 and hi[last] >= 0:  # stopped at a node of degree 2, so back at u: a cycle
            cycles.append(path)
        else:
            if hi[u] >= 0:  # u is inside a path: its other half ends at the other end
                back, back_path = walk(u, hi[u])
                if back[-1] < last:
                    nodes, path, back, back_path = back, back_path, nodes, path
                nodes.reverse()
                nodes += back[1:]
                path.reverse()
                path += back_path
            paths.append((nodes, path))
        for v in nodes:
            seen[v] = 1
        u = seen.find(0, u + 1)
    return cycles, paths


def eulerian_circuit(g: BipartiteMultigraph, component: Iterable[int]) -> list[int]:
    """Closed walk through every edge of one component, as edge ids.

    `component` must be the node ids of one connected component (as
    `components(g.node_adj)` lists them); every vertex in it must have
    even degree, otherwise a ValueError names an offending vertex. The
    walk begins at the lowest vertex that has edges and always leaves
    along the lowest unused edge id, so the circuit is deterministic.
    """
    n = g.x_count
    adj = g.node_adj
    nodes = sorted(set(component))
    for u in nodes:
        if len(adj[u]) % 2:
            raise ValueError(f"vertex {node_vertex(n, u).label} has odd degree {len(adj[u])}")
    carriers = [u for u in nodes if adj[u]]
    if not carriers:
        return []
    inside = bytearray(len(adj))
    for u in nodes:
        inside[u] = 1
    # Hierholzer's walk: a node leaves by its first unused edge in `adj`
    # order, and an edge id is written when the walk backs out of it
    used = bytearray(g.edge_count)
    untried = [iter(a) for a in adj]  # per node: the edges its scans have not passed
    stack = [carriers[0]]  # the open walk; entries[i] led to stack[i + 1]
    entries: list[int] = []
    rev: list[int] = []
    v = carriers[0]
    while True:
        for eid, w in untried[v]:
            if not used[eid]:
                break
        else:
            stack.pop()
            if not entries:
                break
            rev.append(entries.pop())
            v = stack[-1]
            continue
        used[eid] = 1
        if not inside[w]:
            raise ValueError(f"edge leaves the given component at {node_vertex(n, w).label}")
        stack.append(w)
        entries.append(eid)
        v = w
    if len(rev) != sum(len(adj[u]) for u in carriers) // 2:
        raise ValueError("component argument is not connected")
    rev.reverse()
    return rev


def is_two_edge_connected(g: BipartiteMultigraph) -> bool:
    """Connected and bridgeless. Parallel edges are never bridges."""
    n = g.x_count + g.y_count
    if n == 0:
        return False
    adj = g.node_adj
    disc = [0] + [-1] * (n - 1)  # discovery times; the search starts at node 0
    low = [0] * n
    timer = 1
    # iterative DFS over node ids, one (node, entry edge, untried edges)
    # frame per depth; skip only the edge id we arrived by, so a parallel
    # companion still gives a back edge
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, pedge, edges = stack[-1]
        for eid, w in edges:
            if eid == pedge:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, eid, iter(adj[w])))
                break
            low[v] = min(low[v], disc[w])
        else:  # v is finished; fold into parent if any
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] > disc[pv]:
                    return False  # the entry edge of v is a bridge
    return timer == n  # the search from node 0 reached every node


def delete_y(g: BipartiteMultigraph, ys: Iterable[int]) -> tuple[BipartiteMultigraph, tuple[int, ...], tuple[int, ...]]:
    """New graph without the given Y-vertices.

    Returns (h, edge_map, y_map): edge_map[new_eid] = old edge id and
    y_map[new_y] = old y index. X-side indexing is unchanged.
    """
    drop = set(ys)
    for j in drop:
        if not (0 <= j < g.y_count):
            raise ValueError(f"no Y-vertex {j}")
    y_map = [j for j in range(g.y_count) if j not in drop]
    back = {old: new for new, old in enumerate(y_map)}
    new_edges = []
    edge_map = []
    for eid, (x, y) in enumerate(g.edges):
        if y in drop:
            continue
        new_edges.append((x, back[y]))
        edge_map.append(eid)
    h = BipartiteMultigraph(g.x_count, len(y_map), tuple(new_edges))
    return h, tuple(edge_map), tuple(y_map)


# --- serialization -----------------------------------------------------

def to_dict(g: BipartiteMultigraph) -> dict:
    return {
        "x_count": g.x_count,
        "y_count": g.y_count,
        "edges": [[x, y] for x, y in g.edges],
    }


def _strict_int(value, what: str) -> int:
    """`value` itself when it is an int and not a bool; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def from_dict(d: dict) -> BipartiteMultigraph:
    """The graph a to_dict() object describes, checked by build().

    One rule is this loader's own: a non-integer anywhere in the object
    wins over every count, arity and range error.
    """
    try:
        x_count = _strict_int(d["x_count"], "x_count")
        y_count = _strict_int(d["y_count"], "y_count")
        edges = d["edges"]
        try:
            return build(x_count, y_count, edges)
        except (ValueError, TypeError):
            # build() stops at or before the first non-integer endpoint, so
            # only a failed build can leave one unreported
            for e in edges:
                for v in e:
                    _strict_int(v, "edge endpoint")
            raise
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc


def to_json(g: BipartiteMultigraph) -> str:
    return json.dumps(to_dict(g))


def from_json(text: str) -> BipartiteMultigraph:
    return from_dict(json.loads(text))


# Edge colors 1..6 rendered into DOT output.
DOT_PALETTE = {
    1: "#e41a1c",
    2: "#377eb8",
    3: "#4daf4a",
    4: "#984ea3",
    5: "#ff7f00",
    6: "#a65628",
}


def to_dot(g: BipartiteMultigraph, edge_colors: Sequence[int] | dict[int, int] | None = None) -> str:
    """DOT text: X-vertices as circles, Y as squares, parallel edges separate.

    With `edge_colors` (colors 1..6 indexed by edge id: a coloring's `colors`
    or a dict), edges are drawn in a fixed palette, labeled with their color.
    """
    lines = ["graph G {", "  rankdir=LR;"]
    lines.append("  { rank=same; " + " ".join(f"x{i};" for i in range(g.x_count)) + " }")
    lines.append("  { rank=same; " + " ".join(f"y{j};" for j in range(g.y_count)) + " }")
    for i in range(g.x_count):
        lines.append(f'  x{i} [shape=circle, label="x{i}"];')
    for j in range(g.y_count):
        lines.append(f'  y{j} [shape=square, label="y{j}"];')
    for eid, (x, y) in enumerate(g.edges):
        if edge_colors is None:
            lines.append(f"  x{x} -- y{y};")
        else:
            c = edge_colors[eid]
            tint = DOT_PALETTE.get(c, "#000000")
            lines.append(f'  x{x} -- y{y} [color="{tint}", label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
