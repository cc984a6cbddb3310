"""Tests for the transversal route to proper path-factors."""

import hashlib
import itertools
import math
import random
import time
from pathlib import Path

import pytest
from helpers import random_core_admitting, recursion_limit

from interval6 import transversal
from interval6.bigraph import build
from interval6.checker import check_full_3regular, check_proper_path_factor
from interval6.generators import (
    claw_triple_graph,
    independent_obstruction,
    no_mixed_transversal_instance,
    random_34_biregular,
    spread_obstruction,
    two_eight_triples,
)
from interval6.pathfactor import search_full_3regular
from interval6.transversal import (
    _gaps,
    _hall_refutes,
    _independent_for,
    _kuhn_round,
    _spread_for,
    _spread_violation,
    FEdge,
    FGraph,
    MixedTransversal,
    TransversalPart,
    TripleSystem,
    build_f,
    factor_from_mixed_transversal,
    find_independent_transversal,
    find_mixed_transversal,
    find_spread_transversal,
    fstar_components,
    is_spread,
    proper_3_edge_color,
)


def nine_cycle_instance():
    # Three X-vertices hit spaced triples of a 9-cycle on Y, and nine
    # more each cover three consecutive Y-vertices, so the subgraph is
    # forced and its link graph is a single directed 9-cycle.
    edges = []
    for j, trip in enumerate([(0, 2, 3), (1, 4, 6), (5, 7, 8)]):
        for y in trip:
            edges.append((j, y))
    for i in range(9):
        edges.extend([(3 + i, i), (3 + i, (i + 1) % 9), (3 + i, (i + 2) % 9)])
    return build(12, 9, edges)


def permutation_fgraph(n, rng):
    targets = list(range(n))
    rng.shuffle(targets)
    return FGraph(n, tuple(FEdge(u, v) for u, v in enumerate(targets)))


def disjoint_copies(f, ts, copies):
    """`copies` disjoint relabelled copies of one link structure."""
    n = f.n
    fedges = tuple(FEdge(e.u + c * n, e.v + c * n) for c in range(copies) for e in f.edges)
    triples = tuple(tuple(y + c * n for y in t) for c in range(copies) for t in ts.triples)
    return FGraph(n * copies, fedges), TripleSystem(triples)


def consecutive_triples(n):
    return TripleSystem(tuple((i, i + 1, i + 2) for i in range(0, n, 3)))


def forced_factor(monkeypatch, g, cert, mixed):
    """The factor the construction assembles from `mixed` instead of the
    transversal it would find; only a valid `mixed` may be forced."""
    with monkeypatch.context() as m:
        m.setattr(transversal, "find_mixed_transversal", lambda f, ts: mixed)
        return factor_from_mixed_transversal(g, cert)


def brute_independent(f, ts):
    adj = {y: set() for y in range(f.n)}
    looped = set()
    for e in f.edges:
        if e.u == e.v:
            looped.add(e.u)
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    for pick in itertools.product(*ts.triples):
        if any(y in looped for y in pick):
            continue
        if any(b in adj[a] for a, b in itertools.combinations(pick, 2)):
            continue
        return pick
    return None


def brute_spread(f, ts):
    for pick in itertools.product(*ts.triples):
        if is_spread(f, pick):
            return pick
    return None


def test_three_edge_color_on_claw():
    g = claw_triple_graph()
    cert = search_full_3regular(g)
    assert cert.edge_set == frozenset(range(3, 12))
    colors = proper_3_edge_color(g, cert.edge_set)
    assert set(colors) == set(range(3, 12))
    assert set(colors.values()) == {1, 2, 3}
    # each x has three parallel edges to one y; both sides see all colors
    for x in (1, 2, 3):
        eids = [eid for eid, _ in g.x_adj[x]]
        assert sorted(colors[e] for e in eids) == [1, 2, 3]


def test_three_edge_color_partitions_random():
    rng = random.Random(20)
    for _ in range(15):
        n = rng.randrange(3, 9)
        edges = []
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            edges.extend((i, perm[i]) for i in range(n))
        g = build(n, n, edges)
        colors = proper_3_edge_color(g, frozenset(range(len(edges))))
        again = proper_3_edge_color(g, frozenset(range(len(edges))))
        assert colors == again
        for c in (1, 2, 3):
            klass = [g.edges[e] for e, got in colors.items() if got == c]
            assert len(klass) == n
            assert len({x for x, _ in klass}) == n
            assert len({y for _, y in klass}) == n


def test_three_edge_color_rejects_unbalanced():
    g = claw_triple_graph()
    with pytest.raises(ValueError):
        proper_3_edge_color(g, frozenset(range(3)))


def _value_error(fn, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


def test_three_edge_color_messages_pinned():
    g = claw_triple_graph()
    assert _value_error(proper_3_edge_color, g, frozenset({12})) == "no edge 12"
    assert _value_error(proper_3_edge_color, g, frozenset({3, -1})) == "no edge -1"
    assert (_value_error(proper_3_edge_color, g, frozenset(range(3)))
            == "edge set does not induce a 3-regular subgraph")


def test_build_f_color_override_messages_pinned():
    g = nine_cycle_instance()
    cert = search_full_3regular(g)
    colors = proper_3_edge_color(g, cert.edge_set)
    e0 = min(colors)
    short = {e: c for e, c in colors.items() if e != e0}
    assert (_value_error(build_f, g, cert, colors=short)
            == "coloring does not cover the subgraph edge set")
    assert _value_error(build_f, g, cert, colors={**colors, e0: 4}) == "color 4 outside 1..3"
    at_x3 = [e for e in colors if g.edges[e][0] == 3]  # edges 9, 10, 11 to y0, y1, y2
    assert at_x3 == [9, 10, 11]
    assert (_value_error(build_f, g, cert, colors={**colors, 10: colors[9]})
            == "color 1 repeats at x3")
    swapped = {e: {1: 2, 2: 1, 3: 3}[colors[e]] for e in at_x3}  # proper at x3, not at its Y-ends
    assert _value_error(build_f, g, cert, colors={**colors, **swapped}) == "color 1 repeats at y1"


def test_fgraph_validation():
    with pytest.raises(ValueError):
        FGraph(2, (FEdge(0, 1), FEdge(0, 1)))
    with pytest.raises(ValueError):
        FGraph(2, (FEdge(0, 1),))
    with pytest.raises(ValueError):
        FGraph(1, (FEdge(0, 3),))


def test_fgraph_cycles_canonical():
    f = FGraph(3, (FEdge(0, 1), FEdge(1, 0), FEdge(2, 2)))
    assert f.cycles == ((0, 1), (2,))
    f = FGraph(4, (FEdge(1, 3), FEdge(3, 0), FEdge(0, 2), FEdge(2, 1)))
    assert f.cycles == ((0, 2, 1, 3),)
    assert f.out[2] == FEdge(2, 1)
    assert f.out[f.pred[2]] == FEdge(0, 2)


def fgraph_cycles_walk(f):
    """The cycle walk `FGraph.cycles` ran before it used the shared trail
    walker, kept verbatim as the reference."""
    seen = [False] * f.n
    out = []
    for start in range(f.n):
        if seen[start]:
            continue
        cyc = []
        w = start
        while not seen[w]:
            seen[w] = True
            cyc.append(w)
            w = f.out[w].v
        out.append(tuple(cyc))
    return tuple(out)


def f_neighbors_reference(f):
    """The neighbor sets and looped vertices `FGraph.neighbors` and
    `FGraph.looped` replaced, kept verbatim as the reference."""
    nbrs: dict[int, set[int]] = {y: set() for y in range(f.n)}
    looped: set[int] = set()
    for e in f.edges:
        if e.u == e.v:
            looped.add(e.u)
        else:
            nbrs[e.u].add(e.v)
            nbrs[e.v].add(e.u)
    return nbrs, looped


def test_fgraph_facts_match_references():
    rng = random.Random(30)
    loops = twos = 0
    for _ in range(300):
        f = permutation_fgraph(rng.randrange(1, 40), rng)
        assert f.cycles == fgraph_cycles_walk(f)
        nbrs, looped = f_neighbors_reference(f)
        assert [{f.out[y].v, f.pred[y]} - {y} for y in range(f.n)] == [nbrs[y] for y in range(f.n)]
        assert {y for y in range(f.n) if f.out[y].v == y} == looped
        loops += bool(looped)
        twos += any(len(c) == 2 for c in f.cycles)
    assert loops and twos


def test_triple_system_validation():
    with pytest.raises(ValueError):
        TripleSystem(((0, 2, 1),))
    with pytest.raises(ValueError):
        TripleSystem(((0, 1, 1),))
    with pytest.raises(ValueError):
        TripleSystem(((0, 1, 2), (2, 3, 4)))


def test_is_spread_on_nine_cycle():
    f = FGraph(9, tuple(FEdge(i, (i + 1) % 9) for i in range(9)))
    assert is_spread(f, (0, 1, 5))
    assert is_spread(f, (0, 4, 8))
    assert not is_spread(f, (0,))
    assert not is_spread(f, (0, 4))
    assert not is_spread(f, ())


def test_is_spread_direction_invariant():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randrange(4, 16)
        f = permutation_fgraph(n, rng)
        members = [y for y in range(n) if rng.random() < 0.4]
        reversed_f = FGraph(n, tuple(FEdge(e.v, e.u) for e in f.edges))
        assert is_spread(f, members) == is_spread(reversed_f, members)


def test_find_independent_matches_brute_force():
    rng = random.Random(22)
    found = 0
    for _ in range(150):
        n = rng.choice([6, 9, 12])
        f = permutation_fgraph(n, rng)
        ts = consecutive_triples(n)
        got = find_independent_transversal(f, ts)
        want = brute_independent(f, ts)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert all(got[i] in ts.triples[i] for i in range(len(ts.triples)))
            # re-check independence directly
            adj = {(e.u, e.v) for e in f.edges} | {(e.v, e.u) for e in f.edges}
            assert all((a, b) not in adj for a, b in itertools.combinations(got, 2))
            assert all((y, y) not in adj for y in got)
    assert found > 20


def test_find_spread_matches_brute_force():
    rng = random.Random(23)
    found = 0
    for _ in range(150):
        n = rng.choice([6, 9, 12])
        f = permutation_fgraph(n, rng)
        ts = consecutive_triples(n)
        got = find_spread_transversal(f, ts)
        want = brute_spread(f, ts)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert all(got[i] in ts.triples[i] for i in range(len(ts.triples)))
            assert is_spread(f, got)
    assert found > 20


def test_search_rejects_partial_triples():
    f = FGraph(9, tuple(FEdge(i, (i + 1) % 9) for i in range(9)))
    ts = TripleSystem(((0, 1, 2), (3, 4, 5)))
    with pytest.raises(ValueError):
        find_independent_transversal(f, ts)
    with pytest.raises(ValueError):
        find_spread_transversal(f, ts)


def test_independent_obstruction():
    for k in (6, 12):
        f, ts = independent_obstruction(k)
        assert f.n == 3 * k
        assert len(ts.triples) == k
        assert len(f.cycles) == k // 2 + k // 3
        assert find_independent_transversal(f, ts) is None
        got = find_spread_transversal(f, ts)
        assert got is not None
        assert is_spread(f, got)
    with pytest.raises(ValueError):
        independent_obstruction(4)


def test_spread_obstruction():
    for k in (4, 8):
        f, ts = spread_obstruction(k)
        assert f.n == 3 * k
        assert len(ts.triples) == k
        assert len(f.cycles) == 3 * k // 2
        assert find_spread_transversal(f, ts) is None
        got = find_independent_transversal(f, ts)
        assert got is not None
    with pytest.raises(ValueError):
        spread_obstruction(3)


def test_no_mixed_transversal_instance():
    f, ts = no_mixed_transversal_instance()
    assert f.n == 60
    assert len(ts.triples) == 20
    assert len(f.cycles) == 22
    comps = fstar_components(f, ts)
    assert len(comps) == 1
    assert find_mixed_transversal(f, ts) is None
    # the parts on their own are fine; only the splice is stuck
    f1, t1 = independent_obstruction(12)
    f2, t2 = spread_obstruction(8)
    assert find_mixed_transversal(f1, t1) is not None
    assert find_mixed_transversal(f2, t2) is not None


def test_fstar_components_split_and_join():
    f = FGraph(6, (FEdge(0, 1), FEdge(1, 2), FEdge(2, 0),
                   FEdge(3, 4), FEdge(4, 5), FEdge(5, 3)))
    assert fstar_components(f, TripleSystem(((0, 1, 2), (3, 4, 5)))) == (
        (0, 1, 2), (3, 4, 5))
    assert fstar_components(f, TripleSystem(((0, 1, 3), (2, 4, 5)))) == (
        (0, 1, 2, 3, 4, 5),)


def fstar_components_union_find(f, ts):
    """The union-find fstar_components used before it ran on the shared
    component routine, kept verbatim as the reference."""
    parent = list(range(f.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for e in f.edges:
        union(e.u, e.v)
    for t in ts.triples:
        union(t[0], t[1])
        union(t[0], t[2])
    groups: dict[int, list[int]] = {}
    for y in range(f.n):
        groups.setdefault(find(y), []).append(y)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def test_fstar_components_match_union_find():
    # Blocks of 3..12 vertices, each with its own permutation and triples,
    # under one random relabelling: several components, interleaved labels.
    rng = random.Random(24)
    sizes = set()
    for _ in range(300):
        blocks = [3 * rng.randrange(1, 5) for _ in range(rng.randrange(1, 6))]
        n = sum(blocks)
        label = list(range(n))
        rng.shuffle(label)
        fedges, triples, base = [], [], 0
        for size in blocks:
            block = permutation_fgraph(size, rng)
            fedges += [FEdge(label[base + e.u], label[base + e.v]) for e in block.edges]
            order = [label[base + y] for y in range(size)]
            rng.shuffle(order)
            triples += [tuple(sorted(order[i:i + 3])) for i in range(0, size, 3)]
            base += size
        f, ts = FGraph(n, tuple(fedges)), TripleSystem(tuple(triples))
        got = fstar_components(f, ts)
        assert got == fstar_components_union_find(f, ts)
        sizes.add(len(got))
    assert len(sizes) > 3  # split and joined structures both occur
    for f, ts in (independent_obstruction(12), spread_obstruction(8), no_mixed_transversal_instance()):
        assert fstar_components(f, ts) == fstar_components_union_find(f, ts)


def test_build_f_on_claw():
    g = claw_triple_graph()
    cert = search_full_3regular(g)
    f, ts = build_f(g, cert)
    assert ts.triples == ((0, 1, 2),)
    # parallel edges collapse to loops, one per subgraph x
    assert f.edges == (
        FEdge(0, 0, mid_x=1, edge1=3, edge2=4),
        FEdge(1, 1, mid_x=2, edge1=6, edge2=7),
        FEdge(2, 2, mid_x=3, edge1=9, edge2=10),
    )
    assert find_mixed_transversal(f, ts) is None
    assert factor_from_mixed_transversal(g, cert) is None


def test_build_f_on_nine_cycle():
    g = nine_cycle_instance()
    cert = search_full_3regular(g)
    assert cert is not None and check_full_3regular(g, cert)
    f, ts = build_f(g, cert)
    assert ts.triples == ((0, 2, 3), (1, 4, 6), (5, 7, 8))
    assert len(f.cycles) == 1 and set(f.cycles[0]) == set(range(9))
    assert sorted(e.mid_x for e in f.edges) == list(range(3, 12))
    for e in f.edges:
        assert g.edges[e.edge1] == (e.mid_x, e.u)
        assert g.edges[e.edge2] == (e.mid_x, e.v)


def test_build_f_rejects_bad_certificate():
    g = nine_cycle_instance()
    cert = search_full_3regular(g)
    from interval6.checker import SubgraphCertificate
    broken = SubgraphCertificate(cert.edge_set - {min(cert.edge_set)})
    with pytest.raises(ValueError):
        build_f(g, broken)


def test_factor_rejects_graph_not_34_biregular():
    # build_f's check_full_3regular is the degree check of this route
    from interval6.checker import SubgraphCertificate
    g = nine_cycle_instance()
    cert = search_full_3regular(g)
    x, y = g.edges[0]
    moved = build(g.x_count, g.y_count, [((x + 1) % g.x_count, y)] + list(g.edges[1:]))
    tiny = build(2, 1, [(0, 0), (1, 0)])
    for h, c in ((moved, cert), (tiny, SubgraphCertificate(frozenset()))):
        with pytest.raises(ValueError, match=r"\(3,4\)-biregular"):
            factor_from_mixed_transversal(h, c)


def test_factor_via_independent_case():
    g = nine_cycle_instance()
    cert = search_full_3regular(g)
    f, ts = build_f(g, cert)
    mixed = find_mixed_transversal(f, ts)
    assert mixed is not None
    assert [p.case for p in mixed.parts] == ["independent"]
    factor = factor_from_mixed_transversal(g, cert)
    assert check_proper_path_factor(g, factor)
    assert sorted(p.length for p in factor.paths) == [6, 6, 6]


def test_factor_via_spread_case(monkeypatch):
    g = nine_cycle_instance()
    cert = search_full_3regular(g)
    f, ts = build_f(g, cert)
    members = find_spread_transversal(f, ts)
    assert members == (0, 1, 5)
    forced = MixedTransversal(members, (TransversalPart((0, 1, 2), "spread"),))
    factor = forced_factor(monkeypatch, g, cert, forced)
    assert check_proper_path_factor(g, factor)
    assert sorted(p.length for p in factor.paths) == [2, 8, 8]
    # every path starts at a deleted-x vertex and steps onto its member
    starts = sorted(p.vertices[0].label for p in factor.paths)
    assert starts == ["x0", "x1", "x2"]
    seconds = sorted(p.vertices[1].index for p in factor.paths)
    assert seconds == [0, 1, 5]


def test_every_valid_whole_part_builds_a_factor(monkeypatch):
    # The nine-cycle's link structure is one F* component, so a part over
    # all three triples is the only part set a mixed transversal can
    # have. Each member choice that is independent or spread builds a
    # verified factor under that case.
    g = nine_cycle_instance()
    cert = search_full_3regular(g)
    f, ts = build_f(g, cert)
    assert len(fstar_components(f, ts)) == 1
    built = {"independent": 0, "spread": 0}
    for members in itertools.product(*ts.triples):
        valid = {"independent": not any(f.out[y].v in members for y in members),
                 "spread": is_spread(f, members)}
        for case in built:
            if valid[case]:
                mixed = MixedTransversal(members, (TransversalPart((0, 1, 2), case),))
                assert check_proper_path_factor(g, forced_factor(monkeypatch, g, cert, mixed))
                built[case] += 1
    assert built == {"independent": 8, "spread": 11}


def test_two_eight_triples_instance():
    g, factor = two_eight_triples()
    assert (g.x_count, g.y_count, g.edge_count) == (16, 12, 48)
    assert check_proper_path_factor(g, factor)
    assert sorted(p.length for p in factor.paths) == [6, 6, 6, 6]


def test_factor_from_transversal_on_random_instances():
    rng = random.Random(24)
    certs = 0
    factors = 0
    for _ in range(60):
        g = random_34_biregular(rng.choice([2, 3]), seed=rng.randrange(10**6))
        cert = search_full_3regular(g)
        if cert is None:
            continue
        certs += 1
        factor = factor_from_mixed_transversal(g, cert)
        if factor is None:
            continue
        factors += 1
        assert check_proper_path_factor(g, factor)
        assert all(p.length in (2, 4, 6, 8) for p in factor.paths)
    assert certs >= 10
    assert factors >= 10


def test_forced_spread_parts_build_verified_factors(monkeypatch):
    rng = random.Random(24)
    outcomes = set()
    for _ in range(60):
        g = random_core_admitting(rng.randrange(2, 6), rng)
        cert = search_full_3regular(g)
        f, ts = build_f(g, cert)
        members = tuple(rng.choice(t) for t in ts.triples)
        spread = is_spread(f, members)
        outcomes.add(spread)
        if spread:
            forced = MixedTransversal(members, (TransversalPart(tuple(range(len(ts.triples))), "spread"),))
            assert check_proper_path_factor(g, forced_factor(monkeypatch, g, cert, forced))
    assert outcomes == {True, False}


def test_forced_independent_parts_build_verified_factors(monkeypatch):
    # The reference reads the edge list: a part is independent unless a
    # member carries a loop (parallel edges of the core put loops into F)
    # or two members share an F-edge.
    rng = random.Random(31)
    outcomes = set()
    loops_alone = 0  # non-independent parts that only a looped member explains
    for _ in range(200):
        g = random_core_admitting(rng.randrange(2, 6), rng)
        cert = search_full_3regular(g)
        f, ts = build_f(g, cert)
        members = tuple(rng.choice(t) for t in ts.triples)
        chosen = set(members)
        looped = any(e.u == e.v and e.u in chosen for e in f.edges)
        shared = any(e.u != e.v and e.u in chosen and e.v in chosen for e in f.edges)
        loops_alone += looped and not shared
        independent = not (looped or shared)
        outcomes.add(independent)
        if independent:
            forced = MixedTransversal(members, (TransversalPart(tuple(range(len(ts.triples))), "independent"),))
            assert check_proper_path_factor(g, forced_factor(monkeypatch, g, cert, forced))
    assert outcomes == {True, False} and loops_alone


def test_factors_pinned_on_core_pool_and_random_cores(monkeypatch):
    # sha256 of the factors factor_from_mixed_transversal builds on the
    # planted cores of the first 12 rounds of the benchmark's seed-7
    # transversal_core pool and on 300 seeded random_core_admitting
    # graphs, on the latter also from one forced spread part over all
    # triples wherever a spread transversal exists; computed when the
    # assembly still keyed outside edges by (x, y) pairs.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    from interval6.bigraph import from_json

    pool = [from_json(inst.args[0]) for inst in workloads.build_pool("transversal_core", 7, rounds=12)
            if inst.pipeline is workloads.run_core]
    rng = random.Random(29)
    cores = [random_core_admitting(rng.randrange(2, 13), rng) for _ in range(300)]
    digest = hashlib.sha256()
    forced = 0
    for g, force in [(g, False) for g in pool] + [(g, True) for g in cores]:
        cert = search_full_3regular(g, max_nodes=workloads.CORE_MAX_NODES)
        factors = [factor_from_mixed_transversal(g, cert)]
        f, ts = build_f(g, cert)
        spread = find_spread_transversal(f, ts) if force else None
        if spread is not None:
            whole = TransversalPart(tuple(range(len(ts.triples))), "spread")
            factors.append(forced_factor(monkeypatch, g, cert, MixedTransversal(spread, (whole,))))
            forced += 1
        for factor in factors:
            paths = factor and [([v.label for v in p.vertices], p.edges) for p in factor.paths]
            digest.update(repr(paths).encode() + b"\n")
    assert (len(pool), forced) == (48, 229)
    assert digest.hexdigest() == "9ce8f50f5c192bec7ce5d4e94dcdd6932d5a810a887d984f96863d7f54f5700d"


def independent_for_recursive(f, ts, idxs):
    """The recursive `_independent_for` the explicit-stack search replaced,
    kept verbatim as the reference whose answers it must reproduce."""
    nbrs, looped = f_neighbors_reference(f)
    domains = {i: [y for y in ts.triples[i] if y not in looped] for i in idxs}
    chosen: dict[int, int] = {}

    def options(i: int) -> list[int]:
        banned = set()
        for m in chosen.values():
            banned |= nbrs[m]
        return [y for y in domains[i] if y not in banned]

    def go() -> bool:
        todo = [i for i in idxs if i not in chosen]
        if not todo:
            return True
        i = min(todo, key=lambda j: (len(options(j)), j))
        for y in options(i):
            chosen[i] = y
            if go():
                return True
            del chosen[i]
        return False

    return dict(chosen) if go() else None


def spread_for_recursive(f, ts, idxs, comp):
    """The recursive `_spread_for` the explicit-stack search replaced,
    kept verbatim as the reference whose answers it must reproduce."""
    cycles = [c for c in f.cycles if c[0] in comp]
    if len(cycles) > len(idxs):
        return None  # each cycle needs a member and triples give one each
    chosen: dict[int, int] = {}

    def feasible() -> bool:
        members = set(chosen.values())
        open_triples = {i for i in idxs if i not in chosen}
        total_need = 0
        for cyc in cycles:
            gaps = _gaps(cyc, members)
            if gaps is None:
                pots = {ts.triple_of[y] for y in cyc if ts.triple_of[y] in open_triples}
                if not pots:
                    return False
                total_need += math.ceil(len(cyc) / 4)
                continue
            for start, gap in gaps:
                if gap <= 3:
                    continue
                arc = [cyc[t % len(cyc)] for t in range(start, start + gap)]
                pots = {ts.triple_of[y] for y in arc if ts.triple_of[y] in open_triples}
                need = math.ceil((gap - 3) / 4)
                if len(pots) < need:
                    return False
                total_need += need
        return total_need <= len(open_triples)

    order = sorted(idxs)

    def go(at: int) -> bool:
        if at == len(order):
            return _spread_violation(cycles, set(chosen.values())) is None
        i = order[at]
        for y in ts.triples[i]:
            chosen[i] = y
            if feasible() and go(at + 1):
                return True
            del chosen[i]
        return False

    return dict(chosen) if go(0) else None


def assert_searches_match_reference(f, ts):
    """Both searches agree with their references on the full index set and
    on every F* component; returns the (independent, spread) outcomes seen."""
    runs = {tuple(range(len(ts.triples))): set(range(f.n))}
    for comp in fstar_components(f, ts):
        runs[tuple(sorted({ts.triple_of[y] for y in comp}))] = set(comp)
    seen = set()
    for idxs, comp in runs.items():
        got = _independent_for(f, ts, idxs)
        assert got == independent_for_recursive(f, ts, idxs)
        spread = _spread_for(f, ts, idxs)
        assert spread == spread_for_recursive(f, ts, idxs, comp)
        seen.add((got is not None, spread is not None))
    return seen


def test_searches_match_reference_on_shipped_structures():
    for k in range(6, 31, 6):
        assert_searches_match_reference(*independent_obstruction(k))
    for k in range(2, 21, 2):
        assert_searches_match_reference(*spread_obstruction(k))
    assert assert_searches_match_reference(*no_mixed_transversal_instance()) == {(False, False)}


def test_searches_match_reference_on_random_structures():
    # A permutation F-graph on 3m vertices (loops and 2-cycles occur at
    # these sizes) under a random partition into triples.
    rng = random.Random(25)
    seen, loops, twos = set(), 0, 0
    for _ in range(300):
        m = rng.randrange(1, 11)
        f = permutation_fgraph(3 * m, rng)
        order = list(range(3 * m))
        rng.shuffle(order)
        ts = TripleSystem(tuple(tuple(sorted(order[i:i + 3])) for i in range(0, 3 * m, 3)))
        seen |= assert_searches_match_reference(f, ts)
        loops += any(len(c) == 1 for c in f.cycles)
        twos += any(len(c) == 2 for c in f.cycles)
    assert {ind for ind, _ in seen} == {spread for _, spread in seen} == {True, False}
    assert loops and twos


def test_searches_match_reference_on_built_link_structures():
    rng = random.Random(26)
    seen = set()
    for _ in range(60):
        g = random_core_admitting(rng.randrange(2, 13), rng)
        seen |= assert_searches_match_reference(*build_f(g, search_full_3regular(g)))
    assert {ind for ind, _ in seen} == {spread for _, spread in seen} == {True, False}


def test_mixed_transversals_pinned_on_core_pool(monkeypatch):
    # sha256 of find_mixed_transversal's members and parts over the first
    # 12 rounds of the benchmark's seed-7 transversal_core pool (48 planted
    # cores at k=20/30 and 12 shipped link structures), computed with the
    # recursive searches.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    from interval6.bigraph import from_json

    digest = hashlib.sha256()
    for inst in workloads.build_pool("transversal_core", 7, rounds=12):
        if inst.pipeline is workloads.run_links:
            n, fedges, triples, _ = inst.args
            f = FGraph(n, tuple(FEdge(u, v) for u, v in fedges))
            ts = TripleSystem(triples)
        else:
            g = from_json(inst.args[0])
            f, ts = build_f(g, search_full_3regular(g, max_nodes=workloads.CORE_MAX_NODES))
        mixed = find_mixed_transversal(f, ts)
        digest.update(repr(mixed and (mixed.members, [tuple(p) for p in mixed.parts])).encode() + b"\n")
    assert digest.hexdigest() == "4ba81a642cb261952a74398a1693f29456a32d2411658f16b8417a0778319293"


def pool_cores(monkeypatch, rounds, prefix):
    """(F, triples) of each planted core whose label starts with
    `prefix`, over the first `rounds` rounds of the benchmark's seed-7
    transversal_core pool."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    from interval6.bigraph import from_json

    for inst in workloads.build_pool("transversal_core", 7, rounds=rounds):
        if inst.pipeline is workloads.run_core and inst.label.startswith(prefix):
            g = from_json(inst.args[0])
            yield build_f(g, search_full_3regular(g, max_nodes=workloads.CORE_MAX_NODES))


def test_spread_transversals_pinned_on_k20_cores(monkeypatch):
    # sha256 of find_spread_transversal over all of F on the 18 k=20 cores
    # of the pool's first 6 rounds, computed with the search that kept
    # per-cycle gap needs.
    digest = hashlib.sha256()
    cores = 0
    for f, ts in pool_cores(monkeypatch, 6, "k=20 "):
        digest.update(repr(find_spread_transversal(f, ts)).encode() + b"\n")
        cores += 1
    assert cores == 18
    assert digest.hexdigest() == "c4def8b44fcb7b1f58f0554f90c9808de0fcba7899c632c7c44fdf8215a50d74"


def test_spread_search_fast_on_k30_core(monkeypatch):
    """A k=30 core of the pool (F-cycles of 74, 12, 2 and 2 vertices, one
    F* component): the search that kept per-cycle gap needs took about
    7 s to return this transversal."""
    [(f, ts)] = pool_cores(monkeypatch, 12, "k=30 seed=6327202122991158305")
    got, dt = timed(find_spread_transversal, f, ts)
    assert got == (5, 11, 28, 9, 51, 10, 20, 3, 61, 84, 64, 48, 57, 53, 2,
                   43, 7, 83, 75, 62, 4, 44, 41, 8, 22, 52, 74, 25, 66, 73)
    assert dt < 2.0


def test_independent_search_does_not_recurse():
    """1200 triples: the recursive search raised RecursionError here (after
    about 25 s), one frame per chosen triple."""
    f, ts = spread_obstruction(1200)
    assert find_independent_transversal(f, ts) == tuple(t[0] for t in ts.triples)


def test_independent_search_linear_in_triples():
    """6000 triples: choosing the branching triple by a scan over every
    triple at each node took about 2 s, quadratic in the number of
    triples."""
    f, ts = spread_obstruction(6000)
    got, dt = timed(find_independent_transversal, f, ts)
    assert got == tuple(t[0] for t in ts.triples) and dt < 1.0


def test_spread_search_does_not_recurse():
    """1200 triples: the recursive search raised RecursionError here, one
    frame per chosen triple."""
    f, ts = independent_obstruction(1200)
    got = find_spread_transversal(f, ts)
    assert got is not None and is_spread(f, got)


def hall_refutes_for(f, ts, idxs):
    """`_hall_refutes` on the triples `idxs`, set up as `_independent_for` does."""
    domains = [[y for y in ts.triples[i] if f.out[y].v != y] for i in sorted(idxs)]
    return _hall_refutes(f, ts, domains)


def index_sets(f, ts):
    """The full triple index set and that of every F* component."""
    runs = [tuple(range(len(ts.triples)))]
    for comp in fstar_components(f, ts):
        runs.append(tuple(sorted({ts.triple_of[y] for y in comp})))
    return runs


def test_hall_check_refutes_only_unsolvable_triples():
    # The 300 seeded permutation structures of the reference test above
    # (m <= 10, loops and 2-cycles included), then the shipped obstructions
    # and spread structures: wherever the check refutes, the recursive
    # reference search finds nothing either.
    rng = random.Random(25)
    structures = []
    for _ in range(300):
        m = rng.randrange(1, 11)
        f = permutation_fgraph(3 * m, rng)
        order = list(range(3 * m))
        rng.shuffle(order)
        structures.append((f, TripleSystem(tuple(tuple(sorted(order[i:i + 3])) for i in range(0, 3 * m, 3)))))
    structures += [independent_obstruction(k) for k in range(6, 31, 6)]
    structures += [spread_obstruction(k) for k in range(2, 21, 2)]
    structures.append(no_mixed_transversal_instance())
    outcomes = set()
    for f, ts in structures:
        for idxs in index_sets(f, ts):
            refuted = hall_refutes_for(f, ts, idxs)
            if refuted:
                assert independent_for_recursive(f, ts, idxs) is None
            outcomes.add(refuted)
    assert outcomes == {True, False}


def test_hall_check_refutes_the_shipped_obstructions():
    for k in range(6, 61, 6):
        f, ts = independent_obstruction(k)
        assert hall_refutes_for(f, ts, range(k))
    f, ts = no_mixed_transversal_instance()
    (comp,) = fstar_components(f, ts)
    assert hall_refutes_for(f, ts, {ts.triple_of[y] for y in comp})
    for k in range(2, 21, 2):
        f, ts = spread_obstruction(k)
        assert not hall_refutes_for(f, ts, range(k))


def timed(call, *args):
    t0 = time.perf_counter()
    got = call(*args)
    return got, time.perf_counter() - t0


def test_independent_obstruction_refuted_at_scale():
    """3000 triples: exhausting the search tree took 19.9 s at 60 triples
    and grows about 18-fold per 12 more."""
    f, ts = independent_obstruction(3000)
    with recursion_limit(60):
        got, dt = timed(find_independent_transversal, f, ts)
    assert got is None and dt < 1.0


def test_mixed_transversal_decided_at_scale():
    # independent_obstruction(600) has no independent transversal but a
    # spread one; the mixed search must reach the spread case quickly.
    f, ts = independent_obstruction(600)
    with recursion_limit(60):
        got, dt = timed(find_mixed_transversal, f, ts)
    assert dt < 1.0
    assert [p.case for p in got.parts] == ["spread"] and is_spread(f, got.members)
    with recursion_limit(60):
        got, dt = timed(find_mixed_transversal, *no_mixed_transversal_instance())
    assert got is None and dt < 1.0


def test_mixed_transversal_linear_in_components():
    """800 components of 18 F-vertices each: deriving F's neighbors and
    cycles again for every component took 9.2 s (2.6 s for the spread
    obstruction), quadratic in the number of components."""
    f, ts = disjoint_copies(*independent_obstruction(6), 800)
    with recursion_limit(60):
        got, dt = timed(find_mixed_transversal, f, ts)
    assert dt < 1.0
    assert [p.case for p in got.parts] == ["spread"] * 800 and is_spread(f, got.members)
    f, ts = disjoint_copies(*spread_obstruction(2), 800)
    with recursion_limit(60):
        got, dt = timed(find_mixed_transversal, f, ts)
    assert dt < 1.0
    assert [p.case for p in got.parts] == ["independent"] * 800


def kuhn_round_recursive(xs, rem):
    """The recursive `_kuhn_round` the explicit-stack matching replaced,
    kept verbatim as the reference whose matchings it must reproduce."""
    match_y: dict[int, tuple[int, int]] = {}  # y -> (x, eid)
    pair_x: dict[int, int] = {}

    def augment(x: int, banned: set[int]) -> bool:
        for eid, y in rem[x]:
            if y in banned:
                continue
            banned.add(y)
            if y not in match_y or augment(match_y[y][0], banned):
                match_y[y] = (x, eid)
                pair_x[x] = eid
                return True
        return False

    for x in xs:
        augment(x, set())
    return pair_x


def random_3regular_rem(n, rng):
    """Option lists of a configuration-model 3-regular bipartite multigraph
    on n + n vertices, in the shape `proper_3_edge_color` builds."""
    y_stubs = [j for j in range(n) for _ in range(3)]
    rng.shuffle(y_stubs)
    rem = {}
    for eid, y in enumerate(y_stubs):
        rem.setdefault(eid // 3, []).append((eid, y))
    return rem


def test_kuhn_round_matches_recursive_on_random_cores():
    # Both rounds of proper_3_edge_color's peeling, as it runs them.
    rng = random.Random(27)
    for _ in range(200):
        rem = random_3regular_rem(rng.randrange(1, 40), rng)
        xs = sorted(rem)
        for _ in (1, 2):
            got = _kuhn_round(xs, rem)
            assert got == kuhn_round_recursive(xs, rem) and len(got) == len(xs)
            rem = {x: [(e, y) for e, y in rem[x] if e != got[x]] for x in xs}


def test_three_edge_coloring_pinned_to_recursive_matching(monkeypatch):
    rng = random.Random(28)
    cores = [random_core_admitting(rng.randrange(2, 31), rng) for _ in range(20)]
    certs = [search_full_3regular(g) for g in cores]
    got = [proper_3_edge_color(g, c.edge_set) for g, c in zip(cores, certs)]
    monkeypatch.setattr("interval6.transversal._kuhn_round", kuhn_round_recursive)
    assert got == [proper_3_edge_color(g, c.edge_set) for g, c in zip(cores, certs)]


def staircase_rem(n):
    """x_i owns y_i first and falls back to y_(i-1); x_0 falls back to the
    spare y_n, and a last x_(n+1) wants only y_(n-1). Matching x_(n+1)
    takes one augmenting path through all n earlier x-vertices."""
    rem = {i: [(2 * i, i), (2 * i + 1, i - 1 if i else n)] for i in range(n)}
    rem[n + 1] = [(2 * n + 2, n - 1)]
    return rem


def test_kuhn_round_does_not_recurse():
    n = 5000
    rem = staircase_rem(n)
    xs = sorted(rem)
    with recursion_limit(60):
        got = _kuhn_round(xs, rem)
    assert len(got) == len(xs)
    assert got[n + 1] == 2 * n + 2 and all(got[i] == 2 * i + 1 for i in range(n))
    with recursion_limit(n + 200):
        assert got == kuhn_round_recursive(xs, rem)


def test_kuhn_round_stops_when_unsaturable():
    # x2 has no augmenting path once x0 and x1 hold y0 and y1, so no
    # matching saturates the xs, and x3 is never tried.
    rem = {0: [(0, 0)], 1: [(1, 0), (2, 1)], 2: [(3, 0), (4, 1)], 3: [(5, 2)]}
    assert _kuhn_round([0, 1, 2, 3], rem) == {0: 0, 1: 2}
    assert len(kuhn_round_recursive([0, 1, 2, 3], rem)) == 3
