"""Brute-force reference implementations.

Everything here answers the same questions as the constructive modules
but by a structurally different route, so the two sides can be tested
against each other. These run in time exponential in the graph size and
are only meant for small instances.
"""

from __future__ import annotations

from itertools import combinations

from .bigraph import BipartiteMultigraph, biregular34_k, xv, yv
from .checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    Path,
    PathFactor,
    SubgraphCertificate,
    check_full_3regular,
    check_interval,
    check_proper,
    check_proper_path_factor,
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
    rejecting cycles and oversized components with a union-find, then
    reads the surviving paths off the chosen edge set.
    """
    biregular34_k(g)
    allowed = frozenset(lengths)
    if not allowed or not allowed <= set(FACTOR_LENGTHS):
        raise ValueError(f"lengths must be a nonempty subset of {FACTOR_LENGTHS}")
    cap = max(allowed) + 1  # vertices on the longest allowed path

    xdeg = [0] * g.x_count
    dsu = _Dsu(g.x_count + g.y_count)

    def ynode(j: int) -> int:
        return g.x_count + j

    chosen: list[int] = []

    def place(j: int) -> bool:
        if j == g.y_count:
            return all(d >= 1 for d in xdeg) and _read_paths(g, chosen, allowed) is not None
        for e1, e2 in combinations([eid for eid, _ in g.y_adj[j]], 2):
            x1, x2 = g.edges[e1][0], g.edges[e2][0]
            if xdeg[x1] >= 2 or xdeg[x2] >= 2 or (x1 == x2 and xdeg[x1] >= 1):
                continue
            mark = dsu.mark()
            if not dsu.union(x1, ynode(j)) or not dsu.union(x2, ynode(j)):
                dsu.rollback(mark)
                continue
            if dsu.comp_size(ynode(j)) > cap:
                dsu.rollback(mark)
                continue
            xdeg[x1] += 1
            xdeg[x2] += 1
            chosen.extend((e1, e2))
            if place(j + 1):
                return True
            chosen.pop()
            chosen.pop()
            xdeg[x1] -= 1
            xdeg[x2] -= 1
            dsu.rollback(mark)
        return False

    if not place(0):
        return None
    factor = _read_paths(g, chosen, allowed)
    assert factor is not None and check_proper_path_factor(g, factor)
    return factor


def _read_paths(g: BipartiteMultigraph, chosen: list[int], allowed: frozenset[int]) -> PathFactor | None:
    adj: dict[tuple[str, int], list[tuple[int, tuple[str, int]]]] = {}
    for eid in chosen:
        x, y = g.edges[eid]
        adj.setdefault(("X", x), []).append((eid, ("Y", y)))
        adj.setdefault(("Y", y), []).append((eid, ("X", x)))
    ends = sorted(v for v, lst in adj.items() if len(lst) == 1)
    if any(side != "X" for side, _ in ends):
        return None
    paths = []
    seen_edges: set[int] = set()
    for end in ends:
        if adj[end][0][0] in seen_edges:
            continue
        verts = [end]
        eids = []
        cur = end
        while True:
            step = next(((e, w) for e, w in adj[cur] if e not in seen_edges), None)
            if step is None:
                break
            seen_edges.add(step[0])
            eids.append(step[0])
            verts.append(step[1])
            cur = step[1]
        if len(eids) not in allowed:
            return None
        paths.append(
            Path(
                tuple(xv(i) if s == "X" else yv(i) for s, i in verts),
                tuple(eids),
            )
        )
    if len(seen_edges) != len(chosen):
        return None  # a cycle survived
    return PathFactor(tuple(paths))


def oracle_interval_coloring(g: BipartiteMultigraph, palette: int) -> EdgeColoring | None:
    """Exhaustive proper interval coloring search, edge by edge.

    Colors edges in id order. A partial assignment survives only while
    each vertex's colors are distinct and span at most its degree, so the
    set can still finish as a consecutive block inside the palette.
    """
    if palette < 1:
        raise ValueError("palette must be positive")
    if any(g.degree(v) > palette for v in g.vertices()):
        return None  # proper needs deg distinct colors
    colors = [0] * len(g.edges)
    at: dict[tuple[str, int], list[int]] = {}
    for i in range(g.x_count):
        at[("X", i)] = []
    for j in range(g.y_count):
        at[("Y", j)] = []

    def fits(key: tuple[str, int], c: int, deg: int) -> bool:
        # colors at a vertex must stay distinct and span at most deg
        got = at[key]
        if c in got:
            return False
        return max(got + [c]) - min(got + [c]) <= deg - 1

    # Explicit stack (no recursion): the depth is the edge id, and
    # colors[eid] holds the color being tried there, 0 before the first.
    eid = 0
    while 0 <= eid < len(g.edges):
        x, y = g.edges[eid]
        kx, ky = ("X", x), ("Y", y)
        dx, dy = len(g.x_adj[x]), len(g.y_adj[y])
        c = colors[eid]
        if c:  # undo the previous try
            at[ky].pop()
            at[kx].pop()
        c += 1
        while c <= palette and not (fits(kx, c, dx) and fits(ky, c, dy)):
            c += 1
        if c <= palette:
            colors[eid] = c
            at[kx].append(c)
            at[ky].append(c)
            eid += 1
        else:
            colors[eid] = 0
            eid -= 1
    if eid < 0:
        return None
    out = EdgeColoring(tuple(colors), palette)
    assert check_proper(g, out) and check_interval(g, out)
    return out


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
            cert = SubgraphCertificate(
                frozenset(eid for eid, (x, _) in enumerate(g.edges) if x not in set(drop))
            )
            assert check_full_3regular(g, cert)
            return cert
    return None
