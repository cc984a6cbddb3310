"""Brute-force reference implementations.

Everything here answers the same questions as the constructive modules
but by a structurally different route, so the two sides can be tested
against each other. These run in time exponential in the graph size and
are only meant for small instances; they take no node budget. They run
over node ids (Y-vertex j is node x_count + j) on explicit stacks, so no
recursion depth grows with the input, and read factor paths off with
`bigraph`'s component routine and trail walker. Each answer leaves
through its `checker` finish, re-checked as the constructions' are.
tests/test_oracle.py keeps the recursive originals as references.
"""

from __future__ import annotations

from itertools import combinations

from .bigraph import BipartiteMultigraph, _node_components, _trail, biregular34_k
from .checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    PathFactor,
    SubgraphCertificate,
    finish_coloring,
    finish_factor,
    finish_subgraph,
    node_path,
)


class _Dsu:
    """Union-find with rollback (union by size, no compression)."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[int] = []

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append(rb)
        return True

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            rb = self.trail.pop()
            ra = self.parent[rb]
            self.size[ra] -= self.size[rb]
            self.parent[rb] = rb

    def comp_size(self, a: int) -> int:
        return self.size[self.find(a)]


def oracle_path_factor(
    g: BipartiteMultigraph, lengths: tuple[int, ...] = FACTOR_LENGTHS
) -> PathFactor | None:
    """Exhaustive proper path factor search by per-Y edge pairs.

    In any proper path factor every Y-vertex is interior, hence keeps
    exactly 2 of its 4 edges. The search assigns those pairs Y by Y,
    in `combinations` order on an explicit stack (no recursion),
    rejecting cycles and oversized components with a union-find, then
    reads the surviving paths off the chosen edge set.
    """
    biregular34_k(g)
    allowed = frozenset(lengths)
    if not allowed or not allowed <= set(FACTOR_LENGTHS):
        raise ValueError(f"lengths must be a nonempty subset of {FACTOR_LENGTHS}")
    cap = max(allowed) + 1  # vertices on the longest allowed path

    n, ny = g.x_count, g.y_count
    pairs = [list(combinations([eid for eid, _ in a], 2)) for a in g.y_adj]
    xdeg = [0] * n
    dsu = _Dsu(n + ny)  # Y-vertex j is node n + j
    chosen: list[int] = []
    tried = [0] * ny  # per depth j: one past the pair placed at Y-vertex j, 0 while none is
    marks = [0] * ny  # per depth j: the union-find mark before that pair
    j = 0
    while j >= 0:
        if j == ny:
            if 0 not in xdeg:  # every X-vertex is on a path
                factor = _read_paths(g, chosen, allowed)
                if factor is not None:
                    return finish_factor(g, factor, "path factor oracle")
            j -= 1
            continue
        t = tried[j]
        if t:  # undo the previous try
            e2, e1 = chosen.pop(), chosen.pop()
            xdeg[g.edges[e1][0]] -= 1
            xdeg[g.edges[e2][0]] -= 1
            dsu.rollback(marks[j])
        while t < len(pairs[j]):
            e1, e2 = pairs[j][t]
            t += 1
            x1, x2 = g.edges[e1][0], g.edges[e2][0]
            if xdeg[x1] >= 2 or xdeg[x2] >= 2 or (x1 == x2 and xdeg[x1] >= 1):
                continue
            mark = dsu.mark()
            if dsu.union(x1, n + j) and dsu.union(x2, n + j) and dsu.comp_size(n + j) <= cap:
                xdeg[x1] += 1
                xdeg[x2] += 1
                chosen += (e1, e2)
                marks[j] = mark
                break
            dsu.rollback(mark)
        else:
            t = 0
        tried[j] = t
        j += 1 if t else -1
    return None


def _read_paths(g: BipartiteMultigraph, chosen: list[int], allowed: frozenset[int]) -> PathFactor | None:
    """The paths an edge set of maximum degree 2 forms, ordered by their
    smaller X-end and walked from it; None when the set holds a cycle, a
    path ending on the Y side or a length outside `allowed`."""
    n = g.x_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + g.y_count)]
    for eid in chosen:
        x, y = g.edges[eid]
        adj[x].append((eid, n + y))
        adj[n + y].append((eid, x))
    used = bytearray(g.edge_count)
    walks = []
    for comp in _node_components(adj):
        ends = [u for u in comp if len(adj[u]) == 1]  # ascending, X-vertices first
        if not ends and not adj[comp[0]]:
            continue  # a vertex no chosen edge touches
        if len(ends) != 2 or ends[1] >= n:
            return None  # a cycle, or a path with a Y-end
        nodes, eids = _trail(adj, used, ends[0])
        if len(eids) not in allowed:
            return None
        walks.append((nodes, eids))
    walks.sort()  # by smaller X-end: the ends differ
    return PathFactor(tuple(node_path(n, *w) for w in walks))


def oracle_interval_coloring(g: BipartiteMultigraph, palette: int) -> EdgeColoring | None:
    """Exhaustive proper interval coloring search, edge by edge.

    Colors edges in id order. A partial assignment survives only while
    each vertex's colors are distinct and span at most its degree, so the
    set can still finish as a consecutive block inside the palette.
    """
    if palette < 1:
        raise ValueError("palette must be positive")
    adj = g.node_adj
    if any(len(a) > palette for a in adj):
        return None  # proper needs deg distinct colors
    n = g.x_count
    colors = [0] * len(g.edges)
    at: list[list[int]] = [[] for _ in adj]  # colors so far at each node id

    def fits(u: int, c: int) -> bool:
        # colors at a vertex must stay distinct and span at most its degree
        got = at[u]
        if c in got:
            return False
        return max(got + [c]) - min(got + [c]) <= len(adj[u]) - 1

    # Explicit stack (no recursion): the depth is the edge id, and
    # colors[eid] holds the color being tried there, 0 before the first.
    eid = 0
    while 0 <= eid < len(g.edges):
        x, y = g.edges[eid]
        u, w = x, n + y
        c = colors[eid]
        if c:  # undo the previous try
            at[w].pop()
            at[u].pop()
        c += 1
        while c <= palette and not (fits(u, c) and fits(w, c)):
            c += 1
        if c <= palette:
            colors[eid] = c
            at[u].append(c)
            at[w].append(c)
            eid += 1
        else:
            colors[eid] = 0
            eid -= 1
    if eid < 0:
        return None
    return finish_coloring(g, EdgeColoring(tuple(colors), palette), "coloring oracle")


def oracle_full_3regular(g: BipartiteMultigraph) -> SubgraphCertificate | None:
    """Exhaustive search over deleted X-sets for a full 3-regular subgraph.

    Dropping an X-set S keeps Y-degrees at 3 exactly when every Y-vertex
    has exactly one edge (with multiplicity) into S; |S| = k then follows
    from edge counting. Tries all k-subsets in ascending order.
    """
    k = biregular34_k(g)
    into: list[dict[int, int]] = []
    for i in range(g.x_count):
        cnt: dict[int, int] = {}
        for _, j in g.x_adj[i]:
            cnt[j] = cnt.get(j, 0) + 1
        into.append(cnt)
    for drop in combinations(range(g.x_count), k):
        hits = [0] * g.y_count
        ok = True
        for i in drop:
            for j, m in into[i].items():
                hits[j] += m
                if hits[j] > 1:
                    ok = False
                    break
            if not ok:
                break
        if ok and all(h == 1 for h in hits):
            return finish_subgraph(g, drop, "full 3-regular oracle")
    return None
