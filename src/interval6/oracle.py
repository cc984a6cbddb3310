"""Brute-force reference implementations.

Everything here answers the same questions as the constructive modules
but by a structurally different route, so the two sides can be tested
against each other. These run in time exponential in the graph size and
are only meant for small instances; they take no node budget. They run
over node ids (Y-vertex j is node x_count + j) on explicit stacks, so no
recursion depth grows with the input. The factor oracle keeps each path's
ends and length in plain lists and walks the found paths with `bigraph`'s
trail walker. Each answer leaves
through its `checker` finish, re-checked as the constructions' are.
tests/test_oracle.py keeps the recursive originals as references.
"""

from __future__ import annotations

from itertools import combinations

from .bigraph import BipartiteMultigraph, _trail, biregular34_k
from .checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    PathFactor,
    SubgraphCertificate,
    _length_set,
    finish_coloring,
    finish_factor,
    finish_subgraph,
    node_path,
)


def oracle_path_factor(
    g: BipartiteMultigraph, lengths: tuple[int, ...] = FACTOR_LENGTHS
) -> PathFactor | None:
    """Exhaustive proper path factor search by per-Y edge pairs.

    In any proper path factor every Y-vertex is interior, hence keeps
    exactly 2 of its 4 edges. The search assigns those pairs Y by Y,
    in `combinations` order on an explicit stack (no recursion). Each
    X-vertex at a path end holds the path's other end and its length
    (an uncovered one is its own end, at length 0), so a pair that
    would make an X-vertex's third edge, close a cycle or merge a path
    longer than the longest allowed is skipped at once, and undoing a
    pair restores four entries.

    An X-vertex is final once its highest-index Y-neighbour holds a
    pair: its path can no longer grow there. A pair that leaves a final
    X-vertex uncovered, or a path of disallowed length between two final
    ends, is undone before the search goes deeper, so every complete
    assignment it reaches is a factor and the first one is returned.

    A factor of a graph with |X| = 4k has k paths holding all 6k edges,
    so c_l paths of length l give c_8 = 2·c_2 + c_4 and
    3·c_2 + 2·c_4 + c_6 = k. When no such counts use only allowed
    lengths (for k >= 1: without 6, the set needs 8 and a solution of
    3·c_2 + 2·c_4 = k), the answer is None without a search.
    """
    k = biregular34_k(g)
    allowed = _length_set(lengths)
    if k and 6 not in allowed and not (8 in allowed and any(
            (k - 3 * c2) % 2 == 0 and (k == 3 * c2 or 4 in allowed)
            for c2 in range(k // 3 + 1 if 2 in allowed else 1))):
        return None  # no k allowed lengths sum to 6k
    longest = max(allowed)

    n, ny = g.x_count, g.y_count
    ex = [x for x, _ in g.edges]
    pairs = [list(combinations([eid for eid, _ in a], 2)) for a in g.y_adj]
    last = [max(j for _, j in a) for a in g.x_adj]  # per X-vertex: the Y-neighbour that makes it final
    final_at: list[list[int]] = [[] for _ in range(ny)]
    for x, j in enumerate(last):
        final_at[j].append(x)
    xdeg = [0] * n
    end = list(range(n))  # at a path end: the other end
    plen = [0] * n  # at a path end: the path's length
    chosen: list[int] = []
    tried = [0] * ny  # per depth j: one past the pair placed at Y-vertex j, 0 while none is
    j = 0
    while j >= 0:
        if j == ny:
            return finish_factor(g, _read_paths(g, chosen, end), "path factor oracle")
        t = tried[j]
        if t:  # undo the previous try
            for x in (ex[chosen.pop()], ex[chosen.pop()]):  # x is a path end again
                xdeg[x] -= 1
                a = end[x] if xdeg[x] else x  # its old partner, itself if uncovered
                end[a], plen[a] = x, plen[x] if xdeg[x] else 0
        while t < len(pairs[j]):
            e1, e2 = pairs[j][t]
            t += 1
            x1, x2 = ex[e1], ex[e2]
            if xdeg[x1] >= 2 or xdeg[x2] >= 2 or x1 == x2 or end[x1] == x2:
                continue
            a, b, merged = end[x1], end[x2], plen[x1] + plen[x2] + 2
            if merged > longest:
                continue
            xdeg[x1] += 1
            xdeg[x2] += 1
            end[a], end[b], plen[a], plen[b] = b, a, merged, merged
            chosen += (e1, e2)
            break
        else:
            t = 0
        tried[j] = t
        if t and any(last[x] <= j and (xdeg[x] == 0 or xdeg[x] == 1 and last[end[x]] <= j
                                       and plen[x] not in allowed) for x in (a, *final_at[j])):
            continue  # a final X-vertex is uncovered, or a closed path has a disallowed length
        j += 1 if t else -1
    return None


def _read_paths(g: BipartiteMultigraph, chosen: list[int], end: list[int]) -> PathFactor:
    """The paths of the factor `chosen`, each walked from its smaller
    X-end (`end` pairs them up), in the order of those ends."""
    n = g.x_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + g.y_count)]
    for eid in chosen:
        x, y = g.edges[eid]
        adj[x].append((eid, n + y))
        adj[n + y].append((eid, x))
    used = bytearray(g.edge_count)
    return PathFactor(tuple(node_path(n, *_trail(adj, used, x))
                            for x in range(n) if len(adj[x]) == 1 and x < end[x]))


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
