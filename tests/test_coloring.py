import random

import pytest
from helpers import PGraph, QDecomposition, p_graph, pgraph_sides, q_decomposition, random_cover_admitting

from interval6.bigraph import BipartiteMultigraph, build, xv, yv
from interval6.checker import EdgeColoring, PathFactor, check_interval, check_proper
from interval6.coloring import FACTOR_COLORS, LEFTOVER_COLORS, color_from_factor, color_summary
from interval6.generators import random_34_biregular, subset_graph_6
from interval6.pathfactor import p7_factor_via_24, search_proper_path_factor


def k34():
    return build(4, 3, [(i, j) for j in range(3) for i in range(4)])


def consecutive(colors):
    return sorted(colors) == list(range(min(colors), max(colors) + 1))


def assert_valid(g, factor, coloring):
    # recomputed from scratch instead of through the checker module
    assert coloring.palette_size == 6
    assert len(coloring.colors) == g.edge_count
    on_factor = factor.edge_ids()
    for eid, c in enumerate(coloring.colors):
        assert c in (FACTOR_COLORS if eid in on_factor else LEFTOVER_COLORS)
    for v in g.vertices():
        got = [coloring.colors[eid] for eid, _ in g.incident(v)]
        assert len(got) == len(set(got))
        assert consecutive(got)


def test_subset_graph_coloring():
    g, factor = subset_graph_6()
    coloring = color_from_factor(g, factor)
    assert_valid(g, factor, coloring)
    assert check_proper(g, coloring) and check_interval(g, coloring)
    side = pgraph_sides(p_graph(g, factor))
    for p in factor.paths:
        for i in range(2, p.length - 1, 2):
            w = p.vertices[i].index
            got = {coloring.colors[eid] for eid, _ in g.incident(xv(w))}
            assert got == ({1, 2, 3} if side[w] == "A" else {4, 5, 6})
        for end in (p.vertices[0], p.vertices[-1]):
            got = {coloring.colors[eid] for eid, _ in g.incident(end)}
            assert got in ({2, 3, 4}, {3, 4, 5})
    for j in range(g.y_count):
        got = {coloring.colors[eid] for eid, _ in g.incident(yv(j))}
        assert got in ({1, 2, 3, 4}, {2, 3, 4, 5}, {3, 4, 5, 6})
        assert {3, 4} <= got


def test_coloring_is_deterministic():
    g, factor = subset_graph_6()
    a = color_from_factor(g, factor)
    b = color_from_factor(g, factor)
    assert a.colors == b.colors


def test_k34_coloring_via_constructed_factor():
    g = k34()
    factor = p7_factor_via_24(g)
    coloring = color_from_factor(g, factor)
    assert_valid(g, factor, coloring)


def test_coloring_on_cover_instances():
    rng = random.Random(424242)
    for _ in range(30):
        g = random_cover_admitting(rng.randrange(1, 5), rng)
        factor = p7_factor_via_24(g)
        coloring = color_from_factor(g, factor)
        assert_valid(g, factor, coloring)


def test_coloring_on_searched_factors_all_lengths():
    # multigraph samples so short and long paths both come up
    rng = random.Random(31337)
    lengths_seen = set()
    colored = 0
    for _ in range(80):
        g = random_34_biregular(rng.choice([1, 2, 3]), seed=rng.randrange(10**9), simple_only=False)
        res = search_proper_path_factor(g, max_nodes=500_000)
        if res.status != "found":
            continue
        coloring = color_from_factor(g, res.factor)
        assert_valid(g, res.factor, coloring)
        colored += 1
        lengths_seen |= {p.length for p in res.factor.paths}
    assert colored >= 60
    assert lengths_seen == {2, 4, 6, 8}


def test_rejects_invalid_factor():
    g, factor = subset_graph_6()
    broken = type(factor)(factor.paths[:-1])
    with pytest.raises(ValueError):
        color_from_factor(g, broken)
    h = k34()
    with pytest.raises(ValueError):
        color_from_factor(h, factor)


def test_empty_graph_colors_with_nothing_to_split():
    # k = 0: no vertices, so the leftover split has no component to start from
    g, factor = BipartiteMultigraph(0, 0, ()), PathFactor(())
    assert q_decomposition(g, factor) == QDecomposition((), ())
    assert p_graph(g, factor) == PGraph((), ())
    assert color_from_factor(g, factor) == EdgeColoring((), 6)


def test_color_summary():
    g, factor = subset_graph_6()
    coloring = color_from_factor(g, factor)
    summary = color_summary(g, coloring)
    assert set(summary) == set(g.vertices())
    for v, cols in summary.items():
        assert cols == tuple(sorted(coloring.colors[eid] for eid, _ in g.incident(v)))
        assert len(cols) == g.degree(v)
