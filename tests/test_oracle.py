"""The explicit-stack oracles against their recursive originals and the pivot search."""

import ast
import random
import time
from itertools import combinations
from pathlib import Path as FilePath

import pytest

from helpers import disjoint_k43, random_24_biregular, recursion_limit

from interval6.bigraph import BipartiteMultigraph, biregular34_k, build, xv, yv
from interval6.checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    Path,
    PathFactor,
    check_interval,
    check_proper,
    check_proper_path_factor,
)
from interval6.generators import (
    claw_triple_graph,
    eight_triples_graph,
    random_34_biregular,
    subset_graph_6,
    two_eight_triples,
)
from interval6.oracle import oracle_interval_coloring, oracle_path_factor
from interval6.pathfactor import pivot_path_factor


def oracle_interval_coloring_recursive(g, palette):
    """The recursive `oracle_interval_coloring` the explicit-stack search
    replaced, kept verbatim as the reference whose answers it must
    reproduce."""
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

    def go(eid: int) -> bool:
        if eid == len(g.edges):
            return True
        x, y = g.edges[eid]
        kx, ky = ("X", x), ("Y", y)
        dx, dy = len(g.x_adj[x]), len(g.y_adj[y])
        for c in range(1, palette + 1):
            if fits(kx, c, dx) and fits(ky, c, dy):
                colors[eid] = c
                at[kx].append(c)
                at[ky].append(c)
                if go(eid + 1):
                    return True
                at[ky].pop()
                at[kx].pop()
                colors[eid] = 0
        return False

    if not go(0):
        return None
    out = EdgeColoring(tuple(colors), palette)
    assert check_proper(g, out) and check_interval(g, out)
    return out


def k34():
    return build(4, 3, [(i, j) for i in range(4) for j in range(3)])


def test_interval_oracle_matches_recursive_on_small_graphs():
    # K_{4,3} and the claw multigraph at the 5- and 6-color palettes of
    # the acceptance criteria (5 is impossible, 6 colors them), and
    # small (2,4)-biregular multigraphs at every palette from 2 to 6.
    rng = random.Random(29)
    graphs = [k34(), claw_triple_graph()] + [random_24_biregular(m, rng) for m in (1, 1, 2, 2, 3)]
    outcomes = set()
    for g in graphs:
        for palette in range(2, 7):
            got = oracle_interval_coloring(g, palette)
            assert got == oracle_interval_coloring_recursive(g, palette)
            outcomes.add(got is None)
    assert outcomes == {True, False}
    assert oracle_interval_coloring(k34(), 5) is None
    assert oracle_interval_coloring(k34(), 6) is not None


def test_interval_oracle_handles_an_edgeless_graph():
    assert oracle_interval_coloring(build(1, 1, []), 1) == EdgeColoring((), 1)


def test_interval_oracle_needs_a_positive_palette():
    for palette in (0, -6):
        with pytest.raises(ValueError, match="^palette must be positive$"):
            oracle_interval_coloring(build(1, 1, []), palette)


def test_interval_oracle_does_not_recurse():
    """A path of 3000 edges: the recursive search took one frame per edge."""
    n = 1500
    edges = [e for i in range(n) for e in ((i, i), (i + 1, i))]
    g = build(n + 1, n, edges)
    with recursion_limit(60):
        got = oracle_interval_coloring(g, 2)
    assert got is not None and len(got.colors) == 2 * n


# The rollback union-find the library's path-end search replaced, kept
# verbatim for the recursive reference below.
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


def oracle_path_factor_recursive(
    g: BipartiteMultigraph, lengths: tuple[int, ...] = FACTOR_LENGTHS
) -> PathFactor | None:
    """The recursive `oracle_path_factor` the explicit-stack search
    replaced, kept verbatim (reading paths with `read_paths_reference`)
    as the reference whose answers it must reproduce."""
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
            return all(d >= 1 for d in xdeg) and read_paths_reference(g, chosen, allowed) is not None
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
    factor = read_paths_reference(g, chosen, allowed)
    assert factor is not None and check_proper_path_factor(g, factor)
    return factor


def read_paths_reference(g: BipartiteMultigraph, chosen: list[int], allowed: frozenset[int]) -> PathFactor | None:
    """The `_read_paths` with its own ("X", x)-keyed adjacency and walk,
    kept verbatim as the reference for the shared-walker version."""
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


LENGTH_SETS = ((2, 4, 6, 8), (6,), (2, 4), (6, 8))


def test_path_oracle_matches_recursive_on_seeded_graphs():
    # random k=1 and k=2 graphs, simple and multigraph, and the shipped
    # families, under every length set; the subset graph under (2, 4)
    # is left out: the recursive reference still needs about 15 s to
    # exhaust it
    graphs = [
        random_34_biregular(k, seed=s, simple_only=simple)
        for k in (1, 2) for s in range(12) for simple in (True, False)
    ]
    shipped = [eight_triples_graph(), claw_triple_graph(), two_eight_triples()[0]]
    found = 0
    for g in graphs + shipped:
        for lengths in LENGTH_SETS:
            got = oracle_path_factor(g, lengths)
            assert got == oracle_path_factor_recursive(g, lengths)
            found += got is not None
    subset = subset_graph_6()[0]
    for lengths in ((2, 4, 6, 8), (6,), (6, 8)):
        assert oracle_path_factor(subset, lengths) == oracle_path_factor_recursive(subset, lengths)
    assert 0 < found < len(graphs + shipped) * len(LENGTH_SETS)


ALL_LENGTH_SETS = [ls for r in range(1, 5) for ls in combinations(FACTOR_LENGTHS, r)]


def test_path_oracle_finds_exactly_when_the_pivot_search_does():
    # every nonempty length set on random k=1 and k=2 graphs, simple and
    # multigraph: the two searches share no code past the length set
    outcomes = set()
    for k in (1, 2):
        for s in range(12):
            for simple in (True, False):
                g = random_34_biregular(k, seed=s, simple_only=simple)
                for lengths in ALL_LENGTH_SETS:
                    none = oracle_path_factor(g, lengths) is None
                    res = pivot_path_factor(g, max_nodes=None, lengths=lengths)
                    assert none == (res.status == "none"), (k, s, simple, lengths)
                    outcomes.add(none)
    assert outcomes == {True, False}


def test_path_oracle_refutes_the_subset_graph_by_counting():
    # k=5 paths must hold 30 edges: no 5 lengths from these sets sum to that
    subset = subset_graph_6()[0]
    for lengths in ((2, 4), (2, 8), (4, 8), (8,)):
        assert oracle_path_factor(subset, lengths) is None


def test_path_oracle_returns_the_empty_factor_of_the_empty_graph():
    for lengths in ALL_LENGTH_SETS:
        assert oracle_path_factor(build(0, 0, []), lengths) == PathFactor(())


def test_path_oracle_rejects_a_disallowed_length_when_the_path_closes():
    # a path of length 2 or 4 is refused as it closes; refused only at
    # complete assignments, this took 12,502 of them and about 0.4 s
    g = two_eight_triples()[0]
    start = time.perf_counter()
    got = oracle_path_factor(g, (6, 8))
    assert time.perf_counter() - start < 0.05
    assert got is not None and check_proper_path_factor(g, got)
    assert {p.length for p in got.paths} <= {6, 8}


def test_path_oracle_does_not_recurse():
    """400 copies of K_{4,3}: the recursive search took one frame per Y-vertex."""
    g = disjoint_k43(400)
    with recursion_limit(60):
        got = oracle_path_factor(g)
    assert got is not None and check_proper_path_factor(g, got)
    assert [p.length for p in got.paths] == [6] * 400
    assert oracle_path_factor(disjoint_k43(3)) == oracle_path_factor_recursive(disjoint_k43(3))


def test_oracle_reaches_no_private_pathfactor_name():
    """The oracle calls `pathfactor` through its public surface only."""
    source = FilePath(__file__).resolve().parent.parent / "src" / "interval6" / "oracle.py"
    private = [
        alias.name
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module in ("pathfactor", "interval6.pathfactor")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
