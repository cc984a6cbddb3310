"""The iterative exact-cover engine against the recursive one it replaced.

Three searches run through `pathfactor._exact_cover`: `find_y_cover`
(Y-neighbourhoods partitioning X), `search_full_3regular`
(X-neighbourhoods partitioning Y) and the independent-transversal search
`transversal._independent_for` (one member per triple, at most one end
per F-edge). The engine must keep the old search order, so on every
instance it returns the same ids, and under a node cap it stops at the
same node with the same message. Secondary columns, which only the
transversal search uses, are checked against brute force.
"""

import random

import pytest
from helpers import random_core_admitting, random_cover_admitting

from interval6.bigraph import BipartiteMultigraph, build
from interval6.errors import BudgetExceeded
from interval6.generators import random_34_biregular
from interval6 import pathfactor
from interval6.pathfactor import _exact_cover, find_y_cover, search_full_3regular


def reference_exact_cover(
    universe: int,
    candidates: list[tuple[int, frozenset[int]]],
    max_nodes: int | None = None,
) -> tuple[int, ...] | None:
    """The recursive backtracking engine `_exact_cover` replaced.

    It rescans every uncovered element's usable sets at each node and
    recurses once per chosen set. Kept only as the reference whose search
    order (and so results and node counts) the iterative engine must
    reproduce.
    """
    owners: list[list[tuple[int, frozenset[int]]]] = [[] for _ in range(universe)]
    for cid, s in sorted(candidates):
        for el in s:
            owners[el].append((cid, s))
    covered = [False] * universe
    chosen: list[int] = []
    nodes = 0

    def usable(s: frozenset[int]) -> bool:
        return not any(covered[el] for el in s)

    def go() -> bool:
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExceeded(f"exact cover stopped after {nodes} nodes")
        best = None
        best_opts = None
        for el in range(universe):
            if covered[el]:
                continue
            opts = [cs for cs in owners[el] if usable(cs[1])]
            if best_opts is None or len(opts) < len(best_opts):
                best, best_opts = el, opts
                if not opts:
                    return False
        if best is None:
            return True
        for cid, s in best_opts:
            for el in s:
                covered[el] = True
            chosen.append(cid)
            if go():
                return True
            chosen.pop()
            for el in s:
                covered[el] = False
        return False

    return tuple(sorted(chosen)) if go() else None


def y_candidates(g: BipartiteMultigraph) -> list[tuple[int, frozenset[int]]]:
    sets = [(j, frozenset(i for _, i in g.y_adj[j])) for j in range(g.y_count)]
    return [(j, s) for j, s in sets if len(s) == 4]


def x_candidates(g: BipartiteMultigraph) -> list[tuple[int, frozenset[int]]]:
    sets = [(i, frozenset(j for _, j in g.x_adj[i])) for i in range(g.x_count)]
    return [(i, s) for i, s in sets if len(s) == 3]


def problems():
    """(universe, candidates) from planted covers and cores and random graphs."""
    rng = random.Random(2024)
    out = []
    for k in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
        g = random_cover_admitting(k, rng)
        out.append((g.x_count, y_candidates(g)))
    for k in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 25):
        g = random_core_admitting(k, rng)
        out.append((g.y_count, x_candidates(g)))
    for k in (1, 2, 3, 4, 6):
        g = random_34_biregular(k, seed=rng.randrange(10**9), simple_only=False)
        out.append((g.x_count, y_candidates(g)))
        out.append((g.y_count, x_candidates(g)))
    return out


def outcome(engine, universe, candidates, max_nodes=None, **kw):
    try:
        return engine(universe, candidates, max_nodes=max_nodes, **kw)
    except BudgetExceeded as exc:
        return f"budget: {exc}"


def test_same_answers_as_reference():
    for universe, candidates in problems():
        want = reference_exact_cover(universe, candidates)
        assert _exact_cover(universe, candidates) == want


@pytest.mark.parametrize("cap", [1, 3, 50])
def test_same_budget_stops_as_reference(cap):
    stops = 0
    for universe, candidates in problems():
        want = outcome(reference_exact_cover, universe, candidates, cap)
        assert outcome(_exact_cover, universe, candidates, cap) == want
        stops += isinstance(want, str)
    assert stops > 0


def test_public_searches_match_reference():
    rng = random.Random(7)
    for _ in range(10):
        g = random_cover_admitting(rng.randrange(1, 30), rng)
        assert find_y_cover(g) == reference_exact_cover(g.x_count, y_candidates(g))
    for _ in range(10):
        g = random_core_admitting(rng.randrange(1, 12), rng)
        want = reference_exact_cover(g.y_count, x_candidates(g))
        cert = search_full_3regular(g)
        assert want is not None and cert is not None
        dropped = {x for eid, (x, _) in enumerate(g.edges) if eid not in cert.edge_set}
        assert tuple(sorted(dropped)) == want


def test_empty_universe_and_no_candidates():
    assert _exact_cover(0, []) == reference_exact_cover(0, []) == ()
    assert _exact_cover(2, []) is None
    assert _exact_cover(2, [(5, frozenset({0, 1})), (1, frozenset({0}))]) == (5,)


def test_cover_depth_does_not_recurse():
    """A forced chain of k choices: deep enough to overflow a recursive search."""
    k = 1500
    edges = []
    for i in range(4 * k):
        edges.append((i, i // 4))  # the cover vertex y(i // 4)
        edges += [(i, k + i // 2)] * 2  # a double edge to y'(i // 2): never a candidate
    g = build(4 * k, 3 * k, edges)
    assert find_y_cover(g) == tuple(range(k))


def test_find_y_cover_hands_the_engine_the_y_adj_candidates(monkeypatch):
    """The candidates come from one pass over the edges; ids, order and
    sets (down to their iteration order) are those of the Y adjacency."""
    seen = []
    monkeypatch.setattr(pathfactor, "_exact_cover", lambda universe, cands, max_nodes=None: seen.append(cands))
    rng = random.Random(12)
    graphs = [random_cover_admitting(rng.randrange(1, 30), rng) for _ in range(10)]
    graphs += [random_34_biregular(k, seed=rng.randrange(10**9), simple_only=False) for k in (1, 2, 3, 5, 8)]
    for g in graphs:
        find_y_cover(g)
        assert [(j, list(s)) for j, s in seen.pop()] == [(j, list(s)) for j, s in y_candidates(g)]


def wide_problems():
    """Seeded random set systems: universe 1-25, up to 120 sets of 2-6
    elements, each element in about 15 sets at the median and up to 36, so
    the engine's scan over live counts runs well past the callers' 4."""
    rng = random.Random(14)
    out = []
    for _ in range(300):
        universe = rng.randint(1, 25)
        candidates = []
        for cid in rng.sample(range(200), rng.randint(0, min(120, 6 * universe))):
            size = rng.randint(min(2, universe), min(universe, 6))
            candidates.append((cid, frozenset(rng.sample(range(universe), size))))
        out.append((universe, candidates))
    return out


def test_wide_multiplicities_match_reference():
    found = most = 0
    for universe, candidates in wide_problems():
        want = reference_exact_cover(universe, candidates)
        assert _exact_cover(universe, candidates) == want
        found += want is not None
        counts = [sum(el in s for _, s in candidates) for el in range(universe)]
        most = max(most, *counts)
    assert found > 0 and most >= 20


@pytest.mark.parametrize("cap", [1, 3, 50])
def test_wide_multiplicities_stop_like_reference(cap):
    stops = 0
    for universe, candidates in wide_problems():
        want = outcome(reference_exact_cover, universe, candidates, cap)
        assert outcome(_exact_cover, universe, candidates, cap) == want
        stops += isinstance(want, str)
    assert stops > 0


def test_byte_counts_cap_an_element_at_254_candidates():
    """Live counts are bytes, with one value above the largest kept for
    covered elements, so 254 candidates per element is the most."""
    fits = [(cid, frozenset({0})) for cid in range(254)]
    assert _exact_cover(1, fits) == reference_exact_cover(1, fits) == (0,)
    over = [(cid, frozenset({0})) for cid in range(255)]
    with pytest.raises(ValueError, match="255 candidates"):
        _exact_cover(1, over)


def secondary_problems():
    """Seeded random set systems: universe 1-14, of which a prefix of
    0-universe elements is primary, and up to 30 sets of 1-4 elements."""
    rng = random.Random(16)
    out = []
    for _ in range(400):
        universe = rng.randint(1, 14)
        primary = rng.randint(0, universe)
        candidates = []
        for cid in rng.sample(range(60), rng.randint(0, 30)):
            size = rng.randint(1, min(universe, 4))
            candidates.append((cid, frozenset(rng.sample(range(universe), size))))
        out.append((universe, primary, candidates))
    return out


def packings(candidates):
    """Every subfamily of pairwise-disjoint sets, as (ids, union)."""
    out = [((), frozenset())]
    for cid, s in candidates:
        out += [(ids + (cid,), union | s) for ids, union in out if not union & s]
    return out


def covers(universe, primary, candidates, ids):
    """True when the sets `ids` cover each primary element once and each
    secondary element at most once."""
    counts = [0] * universe
    sets = dict(candidates)
    for cid in ids:
        for el in sets[cid]:
            counts[el] += 1
    return counts[:primary] == [1] * primary and max(counts, default=0) <= 1


def test_secondary_columns_match_brute_force():
    found = missing = 0
    for universe, primary, candidates in secondary_problems():
        got = _exact_cover(universe, candidates, primary=primary)
        exists = any(union >= set(range(primary)) for _, union in packings(candidates))
        assert (got is not None) == exists
        if got is not None:
            assert list(got) == sorted(got) and covers(universe, primary, candidates, got)
        found += exists
        missing += not exists
    assert found > 50 and missing > 50


def test_secondary_columns_stop_at_the_node_past_the_cap():
    """Each run needs some number n of nodes: every cap below n raises at
    node cap + 1, and every cap from n on returns the uncapped answer."""
    stops = 0
    for universe, primary, candidates in secondary_problems():
        want = _exact_cover(universe, candidates, primary=primary)
        outcomes = [outcome(_exact_cover, universe, candidates, cap, primary=primary) for cap in range(1, 12)]
        n = next((cap for cap, got in enumerate(outcomes, 1) if not isinstance(got, str)), 12)
        assert outcomes[:n - 1] == [f"budget: exact cover stopped after {cap + 1} nodes" for cap in range(1, n)]
        assert outcomes[n - 1:] == [want] * (12 - n)
        stops += n > 1
    assert stops > 100
