"""The explicit-stack interval coloring oracle against its recursive original."""

import random

from helpers import random_24_biregular, recursion_limit

from interval6.bigraph import build
from interval6.checker import EdgeColoring, check_interval, check_proper
from interval6.generators import claw_triple_graph
from interval6.oracle import oracle_interval_coloring


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


def test_interval_oracle_does_not_recurse():
    """A path of 3000 edges: the recursive search took one frame per edge."""
    n = 1500
    edges = [e for i in range(n) for e in ((i, i), (i + 1, i))]
    g = build(n + 1, n, edges)
    with recursion_limit(60):
        got = oracle_interval_coloring(g, 2)
    assert got is not None and len(got.colors) == 2 * n
