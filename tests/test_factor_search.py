"""The iterative pivot search against the recursive one it replaced.

`pathfactor.pivot_path_factor` must walk the same search tree
as the recursive `Vertex` search below: on every graph, node cap and
length set it returns an equal `SearchResult` (status, factor and node
count). The iterative kernel also has no recursion depth to run out of.
"""

import random

import pytest

from interval6.bigraph import BipartiteMultigraph, Vertex, biregular34_k, xv
from interval6.checker import FACTOR_LENGTHS, Path, PathFactor, check_proper_path_factor
from interval6.errors import BudgetExceeded
from interval6.generators import claw_triple_graph, eight_triples_graph, random_34_biregular
from interval6.pathfactor import SearchResult, pivot_path_factor


def reference_search(
    g: BipartiteMultigraph,
    max_nodes: int | None = 10_000_000,
    lengths: tuple[int, ...] = FACTOR_LENGTHS,
) -> SearchResult:
    """The recursive search `pivot_path_factor` replaced.

    It walks `Vertex` objects through `g.incident` and recurses once per
    search step, so its depth grows with the number of path vertices.
    Kept only as the reference whose search order (and so statuses,
    factors and node counts) the iterative kernel must reproduce.
    """
    biregular34_k(g)
    allowed = frozenset(lengths)
    if not allowed or not allowed <= set(FACTOR_LENGTHS):
        raise ValueError(f"lengths must be a nonempty subset of {FACTOR_LENGTHS}")
    longest = max(allowed)

    xcov = [False] * g.x_count
    ycov = [False] * g.y_count
    committed: list[Path] = []
    nodes = 0

    def covered(v: Vertex) -> bool:
        return xcov[v.index] if v.side == "X" else ycov[v.index]

    def set_cover(v: Vertex, val: bool) -> None:
        if v.side == "X":
            xcov[v.index] = val
        else:
            ycov[v.index] = val

    def feasible() -> bool:
        for j in range(g.y_count):
            if ycov[j]:
                continue
            if len({i for _, i in g.y_adj[j] if not xcov[i]}) < 2:
                return False
        for i in range(g.x_count):
            if not xcov[i] and not any(not ycov[j] for _, j in g.x_adj[i]):
                return False
        return True

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExceeded(f"factor search stopped after {nodes} nodes")

    def solve() -> bool:
        tick()
        pivot = next((i for i in range(g.x_count) if not xcov[i]), None)
        if pivot is None:
            return not any(not c for c in ycov)
        xcov[pivot] = True
        ok = grow_right(xv(pivot), [xv(pivot)], [])
        xcov[pivot] = False
        return ok

    def grow_right(end: Vertex, rv: list[Vertex], re_: list[int]) -> bool:
        tick()
        if end.side == "X" and re_:
            if grow_left(rv[0], [], [], rv, re_):
                return True
        if len(re_) < longest:
            for eid, w in g.incident(end):
                if not covered(w):
                    set_cover(w, True)
                    rv.append(w)
                    re_.append(eid)
                    if grow_right(w, rv, re_):
                        return True
                    re_.pop()
                    rv.pop()
                    set_cover(w, False)
        return False

    def grow_left(end: Vertex, lv: list[Vertex], le: list[int], rv, re_) -> bool:
        tick()
        total = len(le) + len(re_)
        if end.side == "X" and total in allowed:
            verts = tuple(reversed(lv)) + tuple(rv)
            eids = tuple(reversed(le)) + tuple(re_)
            committed.append(Path(verts, eids))
            if feasible() and solve():
                return True
            committed.pop()
        if total < longest:
            for eid, w in g.incident(end):
                if covered(w):
                    continue
                if not le and eid < re_[0]:
                    continue  # interior pivots: count each arm pair once
                set_cover(w, True)
                lv.append(w)
                le.append(eid)
                if grow_left(w, lv, le, rv, re_):
                    return True
                le.pop()
                lv.pop()
                set_cover(w, False)
        return False

    try:
        if solve():
            factor = PathFactor(tuple(committed))
            assert check_proper_path_factor(g, factor)
            return SearchResult("found", factor, nodes)
        return SearchResult("none", None, nodes)
    except BudgetExceeded:
        return SearchResult("unknown", None, nodes)


def graphs():
    """Seeded random graphs, k = 1..4, simple and multigraph."""
    rng = random.Random(2027)
    out = []
    for k in (1, 2, 3, 4):
        for simple in (True, False):
            out.append(random_34_biregular(k, seed=rng.randrange(10**9), simple_only=simple))
    return out


LENGTH_SETS = [(6,), (2, 4), (6, 8), FACTOR_LENGTHS]


@pytest.mark.parametrize("cap", [0, 1, 3, 50, 1000])
def test_same_results_as_reference_under_a_cap(cap):
    stops = 0
    for g in graphs() + [claw_triple_graph(), eight_triples_graph()]:
        for lengths in LENGTH_SETS:
            want = reference_search(g, max_nodes=cap, lengths=lengths)
            assert pivot_path_factor(g, max_nodes=cap, lengths=lengths) == want
            stops += want.status == "unknown"
    assert stops > 0


def test_same_results_as_reference_at_the_default_cap():
    statuses = set()
    for g in graphs():
        for lengths in LENGTH_SETS:
            if biregular34_k(g) == 4 and lengths == (2, 4):
                continue  # millions of nodes to "none" in the reference
            want = reference_search(g, lengths=lengths)
            assert pivot_path_factor(g, lengths=lengths) == want
            statuses.add(want.status)
    assert statuses == {"found", "none"}


def test_same_results_as_reference_on_named_graphs():
    claw = claw_triple_graph()
    want = reference_search(claw)
    assert want.status == "none"
    assert pivot_path_factor(claw) == want
    eight = eight_triples_graph()
    for lengths in LENGTH_SETS:
        want = reference_search(eight, lengths=lengths)
        assert pivot_path_factor(eight, lengths=lengths) == want


def test_unbounded_search_matches_reference():
    g = graphs()[2]
    assert pivot_path_factor(g, max_nodes=None) == reference_search(g, max_nodes=None)


def test_deep_search_stops_at_the_cap_without_recursion():
    """Thousands of path vertices deep: the recursive search raises RecursionError here."""
    g = random_34_biregular(300, seed=2)
    assert pivot_path_factor(g, max_nodes=20_000) == SearchResult("unknown", None, 20_001)
    with pytest.raises(RecursionError):
        reference_search(g, max_nodes=20_000)
