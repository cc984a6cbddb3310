"""Brute-force reference implementations.

The coloring and subgraph oracles answer the same questions as the
constructive modules but by a structurally different route, so the two
sides can be tested against each other. They run in time exponential in
the graph size and are only meant for small instances; they take no node
budget. They run over node ids (Y-vertex j is node x_count + j) on
explicit stacks, so no recursion depth grows with the input.

The factor oracle is `pathfactor.search_proper_path_factor` run without
a cap, so it is no independent check of that search:
`pathfactor.pivot_path_factor` is.

Each answer leaves through its `checker` finish, re-checked as the
constructions' are. tests/test_oracle.py keeps the recursive originals
as references.
"""

from __future__ import annotations

from itertools import combinations

from .bigraph import BipartiteMultigraph, biregular34_k
from .checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    PathFactor,
    SubgraphCertificate,
    finish_coloring,
    finish_subgraph,
)
from .pathfactor import search_proper_path_factor


def oracle_path_factor(
    g: BipartiteMultigraph, lengths: tuple[int, ...] = FACTOR_LENGTHS
) -> PathFactor | None:
    """`search_proper_path_factor` uncapped: its first factor, or None if none exists."""
    return search_proper_path_factor(g, None, lengths).factor


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
