import hashlib
import json
import random
from itertools import combinations

import pytest
from helpers import (
    PEdge,
    PGraph,
    half_factor,
    p_graph,
    pgraph_sides,
    q_decomposition,
    random_24_biregular,
    random_cover_admitting,
)

from interval6.bigraph import build, delete_y, is_biregular
from interval6.checker import check_proper_path_factor, factor_to_dict
from interval6.coloring import color_from_factor
from interval6.errors import InvariantError
from interval6.generators import claw_triple_graph, eight_triples_graph, subset_graph_6
from interval6.oracle import oracle_full_3regular
from interval6.pathfactor import (
    build_q,
    find_y_cover,
    p3_half_factor,
    p7_factor_via_24,
    pivot_path_factor,
    search_full_3regular,
    search_proper_path_factor,
)


def k34():
    return build(4, 3, [(i, j) for j in range(3) for i in range(4)])


def interior_x(factor):
    out = set()
    for p in factor.paths:
        for i in range(2, p.length - 1, 2):
            out.add(p.vertices[i].index)
    return out


def link_kinds(pg, u):
    """Kinds of the link edges at u."""
    return [e.kind for e in pg.edges if u in (e.u, e.v)]


def test_build_q_degrees_and_shapes():
    g, factor = subset_graph_6()
    qd = q_decomposition(g, factor)
    q_edges = [eid for c in qd.cycles for eid in c] + [e for p in qd.paths for e in p.edges]
    assert len(q_edges) == len(set(q_edges)) == len(g.edges) - 30
    ydeg = [0] * g.y_count
    xdeg = [0] * g.x_count
    for eid in q_edges:
        x, y = g.edges[eid]
        xdeg[x] += 1
        ydeg[y] += 1
    assert all(d == 2 for d in ydeg)
    assert set(xdeg) <= {1, 2}
    for c in qd.cycles:
        assert len(c) % 2 == 0
    for p in qd.paths:
        assert p.vertices[0].side == "X" and p.vertices[-1].side == "X"
    # path ends are exactly the degree-1 leftovers, i.e. the factor interiors
    assert {p.vertices[0].index for p in qd.paths} | {
        p.vertices[-1].index for p in qd.paths
    } == {i for i in range(g.x_count) if xdeg[i] == 1} == interior_x(factor)


def test_build_q_rejects_bad_factor():
    g, factor = subset_graph_6()
    broken = type(factor)(factor.paths[:-1])
    with pytest.raises(ValueError):
        build_q(g, broken)


def test_pgraph_subset_graph_counts():
    g, factor = subset_graph_6()
    pg = p_graph(g, factor)
    assert set(pg.vertices) == interior_x(factor)
    assert len(pg.vertices) == 10
    kinds = sorted(e.kind for e in pg.edges)
    assert kinds.count("a") == 5
    assert kinds.count("b") == 0
    assert kinds.count("c") == 5
    for u in pg.vertices:
        ks = link_kinds(pg, u)
        assert ks.count("c") == 1
        assert ks.count("a") + ks.count("b") <= 1


def test_pgraph_on_random_cover_instances():
    rng = random.Random(20260817)
    hits = 0
    for _ in range(25):
        g = random_cover_admitting(rng.randrange(1, 4), rng)
        res = search_proper_path_factor(g, max_nodes=200_000)
        if res.status != "found":
            continue
        hits += 1
        pg = p_graph(g, res.factor)
        assert set(pg.vertices) == interior_x(res.factor)
        for u in pg.vertices:
            ks = link_kinds(pg, u)
            assert ks.count("c") == 1
    assert hits >= 15


def test_two_color_pgraph_proper():
    g, factor = subset_graph_6()
    pg = p_graph(g, factor)
    side = pgraph_sides(pg)
    assert set(side) == set(pg.vertices)
    for e in pg.edges:
        assert side[e.u] != side[e.v]
    # deterministic and rooted at the smallest vertex of each component
    assert pgraph_sides(pg) == side
    assert side[min(pg.vertices)] == "A"


def test_two_color_pgraph_odd_cycle():
    pg = PGraph((1, 2, 3), (PEdge(1, 2, "c"), PEdge(2, 3, "a"), PEdge(1, 3, "c")))
    with pytest.raises(InvariantError):
        pgraph_sides(pg)


def test_half_factor_parity_classes():
    h = build(4, 2, [(i, j) for j in range(2) for i in range(4)])
    lo = half_factor(h, parity=0)
    hi = half_factor(h, parity=1)
    assert lo.edge_set | hi.edge_set == set(range(8))
    assert lo.edge_set.isdisjoint(hi.edge_set)
    for hf in (lo, hi):
        assert len(hf.paths) == 2
        for p in hf.paths:
            assert p.length == 2
            assert p.vertices[0].index <= p.vertices[2].index
        assert [p.vertices[1].index for p in hf.paths] == [0, 1]


def test_half_factor_random_instances():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(2, 7)
        h = random_24_biregular(m, rng)
        for parity in (0, 1):
            hf = half_factor(h, parity=parity)
            xdeg = [0] * h.x_count
            ydeg = [0] * h.y_count
            for eid in hf.edge_set:
                x, y = h.edges[eid]
                xdeg[x] += 1
                ydeg[y] += 1
            assert all(d == 1 for d in xdeg)
            assert all(d == 2 for d in ydeg)


def test_half_factor_input_errors():
    h = build(4, 2, [(i, j) for j in range(2) for i in range(4)])
    with pytest.raises(ValueError):
        p3_half_factor(h.x_count, h.y_count, h.edges, 2)
    with pytest.raises(ValueError):
        p3_half_factor(4, 3, k34().edges, 0)


def brute_force_y_cover(g):
    k = g.x_count // 4
    sets = [frozenset(i for _, i in g.y_adj[j]) for j in range(g.y_count)]
    for pick in combinations(range(g.y_count), k):
        union = set()
        for j in pick:
            union |= sets[j]
        if len(union) == g.x_count and all(len(sets[j]) == 4 for j in pick):
            if sum(len(sets[j]) for j in pick) == g.x_count:
                return pick
    return None


def test_find_y_cover_matches_brute_force():
    assert find_y_cover(k34()) == (0,)
    g6, _ = subset_graph_6()
    assert brute_force_y_cover(g6) is None
    assert find_y_cover(g6) is None
    g8 = eight_triples_graph()
    assert brute_force_y_cover(g8) is None
    assert find_y_cover(g8) is None
    rng = random.Random(99)
    for _ in range(30):
        g = random_cover_admitting(rng.randrange(1, 4), rng)
        got = find_y_cover(g)
        assert got is not None
        union = set()
        for j in got:
            nbrs = [i for _, i in g.y_adj[j]]
            assert len(set(nbrs)) == 4
            union |= set(nbrs)
        assert union == set(range(g.x_count))


def test_via24_on_k34():
    factor = p7_factor_via_24(k34())
    assert factor is not None
    assert check_proper_path_factor(k34(), factor)
    assert [p.length for p in factor.paths] == [6]


def test_via24_none_without_cover():
    g6, _ = subset_graph_6()
    assert p7_factor_via_24(g6) is None
    assert p7_factor_via_24(eight_triples_graph()) is None


def test_via24_on_random_cover_instances():
    rng = random.Random(1234)
    for _ in range(30):
        g = random_cover_admitting(rng.randrange(1, 5), rng)
        factor = p7_factor_via_24(g)
        assert factor is not None
        assert check_proper_path_factor(g, factor)
        assert all(p.length == 6 for p in factor.paths)
        assert len(factor.paths) == g.x_count // 4


def test_via24_certificates_pinned():
    # sha256 of the factors and colorings that the via24 pipeline with its
    # old parity x rotation retry ladder produced on these graphs (k up to
    # 40, multigraphs included); the one-pass pipeline must match it.
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for _ in range(200):
        g = random_cover_admitting(rng.randrange(1, 41), rng)
        factor = p7_factor_via_24(g)
        digest.update(json.dumps(factor_to_dict(factor), sort_keys=True).encode())
        digest.update(bytes(color_from_factor(g, factor).colors))
    assert digest.hexdigest() == "593ca66ecdde7849651cf589b0c1ea1f0397d4c0fd90b3c0502e131e6bac727a"


def test_search_finds_subset_graph_factor():
    g, _ = subset_graph_6()
    res = search_proper_path_factor(g)
    assert res.status == "found"
    assert check_proper_path_factor(g, res.factor)
    assert res.nodes > 0


def test_search_restricted_lengths():
    g8 = eight_triples_graph()
    res = search_proper_path_factor(g8, lengths=(6,))
    assert res.status == "found"
    assert all(p.length == 6 for p in res.factor.paths)
    with pytest.raises(ValueError):
        search_proper_path_factor(g8, lengths=(3,))


def test_search_claw_has_no_factor():
    res = search_proper_path_factor(claw_triple_graph())
    assert res.status == "none"
    assert res.factor is None


def test_search_budget_exhaustion():
    g, _ = subset_graph_6()
    res = search_proper_path_factor(g, max_nodes=3)
    assert res.status == "unknown"
    assert res.factor is None
    assert res.nodes == 4


def test_search_agrees_with_oracle_on_small_instances():
    rng = random.Random(2026)
    from interval6.generators import random_34_biregular

    for trial in range(60):
        k = rng.choice([1, 1, 2])
        g = random_34_biregular(k, seed=rng.randrange(10**9), simple_only=False)
        res = search_proper_path_factor(g, max_nodes=500_000)
        ref = pivot_path_factor(g, max_nodes=500_000)
        assert res.status in ("found", "none")
        assert res.status == ref.status
        if res.status == "found":
            assert check_proper_path_factor(g, res.factor)


def test_full_3regular_search_matches_oracle():
    g6, _ = subset_graph_6()
    assert search_full_3regular(g6) is None
    assert oracle_full_3regular(g6) is None
    g8 = eight_triples_graph()
    assert search_full_3regular(g8) is None
    assert oracle_full_3regular(g8) is None
    claw = claw_triple_graph()
    got = search_full_3regular(claw)
    ref = oracle_full_3regular(claw)
    assert got is not None and ref is not None
    assert got.edge_set == ref.edge_set == frozenset(range(3, 12))
    rng = random.Random(55)
    from interval6.generators import random_34_biregular

    for _ in range(40):
        g = random_34_biregular(rng.choice([1, 2]), seed=rng.randrange(10**9), simple_only=False)
        got = search_full_3regular(g)
        ref = oracle_full_3regular(g)
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.edge_set == ref.edge_set


def test_delete_cover_leaves_24_biregular():
    rng = random.Random(321)
    for _ in range(10):
        g = random_cover_admitting(rng.randrange(1, 4), rng)
        cover = find_y_cover(g)
        h, _, _ = delete_y(g, cover)
        assert is_biregular(h, 2, 4)
