"""The per-Y factor search against the pivot search, its budget and its count rule.

`oracle_path_factor` is `search_proper_path_factor` run uncapped, so the
structurally different `pivot_path_factor` is the reference the search
is checked against here.
"""

import hashlib
import json
import time
from itertools import combinations, combinations_with_replacement

import pytest
from helpers import disjoint_k43, recursion_limit

from interval6.bigraph import biregular34_k, build
from interval6.checker import FACTOR_LENGTHS, check_proper_path_factor, factor_to_dict
from interval6.generators import claw_triple_graph, eight_triples_graph, random_34_biregular, subset_graph_6
from interval6.oracle import oracle_path_factor
from interval6.pathfactor import SearchResult, pivot_path_factor, search_proper_path_factor

ALL_LENGTH_SETS = [ls for r in range(1, 5) for ls in combinations(FACTOR_LENGTHS, r)]


def lengths_can_hold(k, lengths):
    """Whether some k paths with lengths in `lengths` hold 6k edges: a
    factor of a graph with 4k X- and 3k Y-vertices has k paths, one per
    surplus X-vertex, and holds all 6k edges."""
    return any(sum(c) == 6 * k for c in combinations_with_replacement(lengths, k))


def test_count_rule_refutes_exactly_the_length_sets_no_k_paths_fit():
    for k in (1, 2, 3, 4, 5):
        g = random_34_biregular(k, seed=k)
        for lengths in ALL_LENGTH_SETS:
            res = search_proper_path_factor(g, lengths=lengths)
            assert (res == SearchResult("none", None, 0)) == (not lengths_can_hold(k, lengths)), (k, lengths)


def test_search_finds_exactly_when_the_pivot_search_does():
    # every nonempty length set on random k = 1..3 graphs, simple and
    # multigraph, and on the claw and eight-triples graphs; at k = 3 the
    # sets that no 3 paths fit are left to the count-rule test above, as
    # the pivot search takes up to 10^6 nodes to refute each of them
    graphs = [
        random_34_biregular(k, seed=s, simple_only=simple)
        for k, seeds in ((1, 12), (2, 12), (3, 4)) for s in range(seeds) for simple in (True, False)
    ]
    outcomes = set()
    for g in graphs + [claw_triple_graph(), eight_triples_graph()]:
        k = biregular34_k(g)
        for lengths in ALL_LENGTH_SETS:
            if k == 3 and not lengths_can_hold(k, lengths):
                continue
            res = search_proper_path_factor(g, max_nodes=None, lengths=lengths)
            ref = pivot_path_factor(g, max_nodes=None, lengths=lengths)
            assert res.status == ref.status, (g, lengths)
            if res.status == "found":
                assert check_proper_path_factor(g, res.factor)
                assert {p.length for p in res.factor.paths} <= set(lengths)
            outcomes.add((res.status, res.nodes > 0))
    assert outcomes == {("found", True), ("none", True), ("none", False)}


def test_search_returns_the_uncapped_oracle_factor():
    for s in range(12):
        g = random_34_biregular(2, seed=s)
        for lengths in ALL_LENGTH_SETS:
            res = search_proper_path_factor(g, lengths=lengths)
            assert res.factor == oracle_path_factor(g, lengths)


def test_search_outcomes_pinned():
    # sha256 of (status, nodes, factor) as the search gave them when its
    # set-up read the cached `g.x_adj` and `g.y_adj`
    digest = hashlib.sha256()
    for k, seeds in ((3, 200), (4, 50)):
        for s in range(seeds):
            res = search_proper_path_factor(random_34_biregular(k, seed=s))
            factor = None if res.factor is None else factor_to_dict(res.factor)
            digest.update(json.dumps([res.status, res.nodes, factor], sort_keys=True).encode())
    assert digest.hexdigest() == "af354d8ca6ac52c6293c5a1d34eb791cbc128a24d27f58744892aa5be32677db"


def with_k43(g):
    """`g` with a disjoint K_{4,3} after it, whose only factor is one
    length-6 path: without 6 the search refutes it only after trying
    every assignment of `g`'s Y-vertices."""
    n, ny = g.x_count, g.y_count
    return build(n + 4, ny + 3, [*g.edges, *((n + i, ny + j) for i in range(4) for j in range(3))])


def test_capped_and_refuted_outcomes_pinned():
    # sha256 of (status, nodes, factor) under a cap: deep "unknown" and
    # "found" runs at k = 8 and 12, and "none" runs after a search on
    # restricted length sets at k <= 5; taken before the search's loop
    # body was rewritten (pair tuples holding their X-ends)
    runs = [(random_34_biregular(k, seed=s), FACTOR_LENGTHS) for k in (8, 12) for s in range(6)]
    runs += [(with_k43(random_34_biregular(k, seed=s)), lengths)
             for k in (2, 3, 4) for s in range(3) for lengths in ALL_LENGTH_SETS]
    runs += [(claw_triple_graph(), lengths) for lengths in ALL_LENGTH_SETS]
    digest = hashlib.sha256()
    statuses = set()
    for g, lengths in runs:
        res = search_proper_path_factor(g, max_nodes=20_000, lengths=lengths)
        statuses.add((res.status, res.nodes > 1_000))
        factor = None if res.factor is None else factor_to_dict(res.factor)
        digest.update(json.dumps([res.status, res.nodes, factor], sort_keys=True).encode())
    assert {("unknown", True), ("none", True), ("found", True)} <= statuses
    assert digest.hexdigest() == "7f02df25d3572e5af30db1c5e7bcae87f6c4d62b5956ca89939685648573fb2c"


@pytest.mark.parametrize("cap", range(13))
def test_search_stops_at_the_node_past_the_cap(cap):
    g = random_34_biregular(3, seed=4)  # 9 Y depths and the leaf: at least 10 nodes
    full = search_proper_path_factor(g, max_nodes=None)
    assert full.status == "found" and full.nodes > 12
    assert search_proper_path_factor(g, max_nodes=cap) == SearchResult("unknown", None, cap + 1)
    assert search_proper_path_factor(g, max_nodes=full.nodes) == full


def test_a_k2_factor_takes_at_least_seven_nodes():
    # 6 Y depths plus the leaf: what `hunt --max-nodes 6` relies on to bound out
    for s in range(20):
        res = search_proper_path_factor(random_34_biregular(2, seed=s))
        assert res.status != "found" or res.nodes >= 7


@pytest.mark.parametrize("lengths", [(2, 4), (2, 8), (4, 8), (8,)])
def test_impossible_length_sets_are_refuted_at_once(lengths):
    # k = 5 paths must hold 30 edges: no 5 lengths from these sets sum to that
    subset = subset_graph_6()[0]
    start = time.perf_counter()
    res = search_proper_path_factor(subset, lengths=lengths)
    assert time.perf_counter() - start < 0.01
    assert res == SearchResult("none", None, 0)


def test_search_does_not_recurse():
    """400 copies of K_{4,3}: 1,200 Y depths under a 60-frame limit."""
    g = disjoint_k43(400)
    with recursion_limit(60):
        res = search_proper_path_factor(g, max_nodes=None)
    assert res.status == "found" and res.nodes == 1201
    assert check_proper_path_factor(g, res.factor)
    assert [p.length for p in res.factor.paths] == [6] * 400
