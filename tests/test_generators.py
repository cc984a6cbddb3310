import random
from itertools import combinations

import pytest

from interval6.bigraph import build, biregular34_k, is_simple, is_two_edge_connected
from interval6.checker import PathFactor, check_proper_path_factor
from interval6.generators import (
    claw_triple_graph,
    eight_triples_graph,
    random_34_biregular,
    subset_graph_6,
    two_switch,
)
from interval6.pathfactor import search_proper_path_factor


def test_subset_graph_shape():
    g, factor = subset_graph_6()
    assert (g.x_count, g.y_count, g.edge_count) == (20, 15, 60)
    assert biregular34_k(g) == 5
    assert is_simple(g)
    assert check_proper_path_factor(g, factor)
    assert [p.length for p in factor.paths] == [6] * 5
    # x0 is the lexicographically first triple {1,2,3}
    nbrs = {j for _, j in g.x_adj[0]}
    pairs = list(combinations(range(1, 7), 2))
    assert nbrs == {pairs.index(p) for p in [(1, 2), (1, 3), (2, 3)]}


def test_subset_graph_deterministic():
    g1, f1 = subset_graph_6()
    g2, f2 = subset_graph_6()
    assert g1.edges == g2.edges
    assert f1 == f2


def test_eight_triples_shape():
    g = eight_triples_graph()
    assert (g.x_count, g.y_count, g.edge_count) == (8, 6, 24)
    assert biregular34_k(g) == 2
    assert is_simple(g)
    hoods = [frozenset(j for _, j in g.x_adj[i]) for i in range(8)]
    assert len(set(hoods)) == 7  # one duplicated neighborhood
    assert not any(a.isdisjoint(b) for a, b in combinations(hoods, 2))


def test_claw_triple_shape():
    g = claw_triple_graph()
    assert (g.x_count, g.y_count, g.edge_count) == (4, 3, 12)
    assert biregular34_k(g) == 1
    assert not is_simple(g)
    assert sorted(g.edges) == sorted(
        [(0, 0), (0, 1), (0, 2)] + [(i, i - 1) for i in range(1, 4) for _ in range(3)]
    )


def test_random_biregular_determinism():
    a = random_34_biregular(3, seed=11)
    b = random_34_biregular(3, seed=11)
    assert a.edges == b.edges
    assert a.edges != random_34_biregular(3, seed=12).edges


def test_random_biregular_properties():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randrange(1, 5)
        g = random_34_biregular(k, seed=rng.randrange(10**9))
        assert biregular34_k(g) == k
        assert is_simple(g)
        h = random_34_biregular(k, seed=rng.randrange(10**9), simple_only=False)
        assert biregular34_k(h) == k


def reference_random_34_biregular(k: int, seed: int, simple_only: bool = True):
    """The generator loop that built and tested every draw, kept as the reference."""
    rng = random.Random(seed)
    y_stubs = [j for j in range(3 * k) for _ in range(4)]
    for _ in range(10_000):
        rng.shuffle(y_stubs)
        edges = [(s // 3, y_stubs[s]) for s in range(12 * k)]
        g = build(4 * k, 3 * k, edges)
        if not simple_only or is_simple(g):
            return g
    raise ValueError(f"no simple sample found for k={k}, seed={seed} in 10000 draws")


def test_random_biregular_matches_reference():
    # k = 25 and 100 shuffle 300 and 1,200 stubs: draws of up to 11 bits
    # against `random.Random.shuffle` on the interpreter running the tests
    cases = [(k, seed) for k in range(1, 7) for seed in range(100)]
    cases += [(k, seed) for k in (10, 25, 100) for seed in range(5)]
    for k, seed in cases:
        for simple in (True, False):
            want = reference_random_34_biregular(k, seed, simple_only=simple)
            assert random_34_biregular(k, seed, simple_only=simple) == want, (k, seed, simple)


def test_random_biregular_k1_simple_is_complete():
    g = random_34_biregular(1, seed=3)
    assert sorted(g.edges) == [(i, j) for i in range(4) for j in range(3)]


def test_two_switch_splices_subset_graphs():
    g1, f1 = subset_graph_6()
    used = f1.edge_ids()
    e1 = next(e for e in range(g1.edge_count) if e not in used)
    e2 = next(e for e in range(g1.edge_count) if e not in used and e != e1)
    g, f = two_switch(g1, f1, e1, g1, f1, e2)
    assert (g.x_count, g.y_count, g.edge_count) == (40, 30, 120)
    assert biregular34_k(g) == 10
    assert is_two_edge_connected(g)
    assert check_proper_path_factor(g, f)
    assert [p.length for p in f.paths] == [6] * 10
    x1, y1 = g1.edges[e1]
    x2, y2 = g1.edges[e2]
    assert g.edges[e1] == (x1, 15 + y2)
    assert g.edges[60 + e2] == (20 + x2, y1)


def test_two_switch_rejects_factor_edges():
    g1, f1 = subset_graph_6()
    on = min(f1.edge_ids())
    off = next(e for e in range(g1.edge_count) if e not in f1.edge_ids())
    with pytest.raises(ValueError):
        two_switch(g1, f1, on, g1, f1, off)
    with pytest.raises(ValueError):
        two_switch(g1, f1, off, g1, f1, g1.edge_count)


def test_two_switch_needs_a_proper_factor_of_sixes():
    g1, f1 = subset_graph_6()
    off = next(e for e in range(g1.edge_count) if e not in f1.edge_ids())
    with pytest.raises(ValueError, match="^second factor is not a proper path factor$"):
        two_switch(g1, f1, off, g1, PathFactor(f1.paths[1:]), off)
    g2 = random_34_biregular(3, seed=0)  # 2-edge-connected, factor lengths 4, 6 and 8
    f2 = search_proper_path_factor(g2).factor
    assert sorted(p.length for p in f2.paths) == [4, 6, 8]
    off2 = next(e for e in range(g2.edge_count) if e not in f2.edge_ids())
    with pytest.raises(ValueError, match="^first factor must have all path lengths 6$"):
        two_switch(g2, f2, off2, g1, f1, off)


def test_random_34_biregular_needs_a_positive_k():
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            random_34_biregular(k, seed=0)


def test_two_switch_rejects_bridged_graph():
    g1, f1 = subset_graph_6()
    claw = claw_triple_graph()
    off = next(e for e in range(g1.edge_count) if e not in f1.edge_ids())
    with pytest.raises(ValueError):
        two_switch(claw, f1, 0, g1, f1, off)
