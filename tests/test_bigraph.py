import random
import sys
import threading

import pytest
from helpers import cold_vertex_tables, vertex_components

from interval6 import bigraph
from interval6.bigraph import (
    Vertex,
    build,
    components,
    delete_y,
    eulerian_circuit,
    is_biregular,
    is_simple,
    is_two_edge_connected,
    node_vertex,
    parse_vertex,
    vertex_tables,
    xv,
    yv,
)
from interval6.checker import node_path
from interval6.generators import claw_triple_graph, random_34_biregular


def k34():
    return build(4, 3, [(x, y) for x in range(4) for y in range(3)])


def walk_is_circuit(g, eids, expected_edges):
    """Every expected edge once, consecutive edges chainable, closed."""
    if sorted(eids) != sorted(expected_edges):
        return False
    if not eids:
        return True
    ends = [set(g.endpoints(e)) for e in eids]
    for start in ends[0]:
        pos = start
        ok = True
        for e_set in ends:
            if pos not in e_set:
                ok = False
                break
            others = e_set - {pos}
            pos = others.pop() if others else pos  # parallel loop-back
        if ok and pos in ends[0] and pos == start:
            return True
    return False


def test_build_rejects_bad_endpoints():
    with pytest.raises(ValueError, match="edge 1"):
        build(2, 2, [(0, 0), (2, 1)])
    with pytest.raises(ValueError):
        build(2, 2, [(0, -1)])
    # non-integer endpoints are rejected, not truncated
    with pytest.raises(ValueError, match="integer"):
        build(2, 2, [(0.5, 1), (True, 0)])
    with pytest.raises(ValueError, match="integer"):
        build(2, 2, [(0, 1), (True, 0)])
    with pytest.raises(ValueError, match="integer"):
        build(2, 2, [(1, 0.0)])


def test_adjacency_and_degrees():
    g = k34()
    assert g.edge_count == 12
    assert g.degree(xv(0)) == 3
    assert g.degree(yv(2)) == 4
    assert [eid for eid, _ in g.incident(xv(1))] == [3, 4, 5]
    assert g.endpoints(5) == (xv(1), yv(2))


def test_biregular_orientation_matters():
    g = k34()
    assert is_biregular(g, 3, 4)
    assert not is_biregular(g, 4, 3)
    assert bigraph.biregular34_k(g) == 1
    with pytest.raises(ValueError):
        bigraph.biregular34_k(build(1, 1, [(0, 0)]))


def test_simplicity():
    assert is_simple(k34())
    assert not is_simple(claw_triple_graph())


def test_vertex_labels_round_trip():
    assert parse_vertex("x3") == xv(3)
    assert parse_vertex("y12") == yv(12)
    assert parse_vertex(xv(7).label) == xv(7)
    with pytest.raises(ValueError):
        parse_vertex("z1")


def test_vertex_constructors_return_real_vertices():
    # xv, yv, node_vertex and node_path skip Vertex.__new__; what they
    # build must still be a Vertex, not a plain tuple
    built = [(xv(3), ("X", 3)), (yv(5), ("Y", 5)), (node_vertex(4, 2), ("X", 2)), (node_vertex(4, 6), ("Y", 2))]
    path = node_path(4, [0, 4, 1, 5, 3], [0, 1, 2, 3])
    built += zip(path.vertices, [("X", 0), ("Y", 0), ("X", 1), ("Y", 1), ("X", 3)])
    for v, (side, i) in built:
        ref = Vertex(side, i)
        assert type(v) is Vertex
        assert (v.side, v.index, v.label) == (side, i, ref.label)
        assert v == ref and hash(v) == hash(ref)
    assert path.edges == (0, 1, 2, 3)


def test_shared_vertices_equal_fresh_ones():
    vertex_tables(8, 8)
    for i in range(8):
        assert xv(i) is xv(i) and yv(i) is yv(i)
        for v, ref in ((xv(i), Vertex("X", i)), (yv(i), Vertex("Y", i))):
            assert type(v) is Vertex and v == ref and hash(v) == hash(ref)
            assert bigraph._LABELS[ref.label] is v
    # outside the tables (or not an int) a vertex is built as asked
    for i in (-1, -8, 10**12, True):
        assert xv(i) == Vertex("X", i) and yv(i) == Vertex("Y", i)
        assert type(xv(i)) is Vertex and xv(i).index is i
    assert xv(-1) == Vertex("X", -1)


def test_vertex_tables_grow_to_graph_counts_by_doubling():
    with cold_vertex_tables():
        assert xv(2) == Vertex("X", 2) and bigraph._XS == []  # a lookup never grows them
        g = k34()
        assert g.vertices() == [Vertex("X", i) for i in range(4)] + [Vertex("Y", j) for j in range(3)]
        assert (len(bigraph._XS), len(bigraph._YS)) == (4, 3)
        held = bigraph._XS
        xs, _ = vertex_tables(5, 0)
        assert len(xs) == 8 and held == [Vertex("X", i) for i in range(4)]  # grown into a new list
        assert xs == [Vertex("X", i) for i in range(8)] and xs is bigraph._XS
        assert sorted(bigraph._LABELS) == sorted([f"x{i}" for i in range(8)] + ["y0", "y1", "y2"])
        assert g.incident(yv(1)) == tuple((eid, xv(x)) for eid, (x, y) in enumerate(g.edges) if y == 1)


def test_concurrent_growth_keeps_every_index_aligned():
    # threads growing the tables at once: every table any of them gets
    # back holds Vertex(side, i) at index i, and so does the label dict
    bad: list[tuple] = []

    def grow(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(150):
            nx, ny = rng.randrange(1, 20_000), rng.randrange(1, 20_000)
            xs, ys = vertex_tables(nx, ny)
            i, j = rng.randrange(nx), rng.randrange(ny)
            if len(xs) < nx or len(ys) < ny or xs[i] != ("X", i) or ys[j] != ("Y", j):
                bad.append((nx, ny, i, j))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cold_vertex_tables():
            threads = [threading.Thread(target=grow, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not bad
            for side, table in (("X", bigraph._XS), ("Y", bigraph._YS)):
                assert table == [Vertex(side, i) for i in range(len(table))]
            assert all(parse_vertex(label) == v for label, v in bigraph._LABELS.items())
    finally:
        sys.setswitchinterval(old)


def test_vertex_labels_reject_near_misses():
    # Each of these names x1 only loosely: a trailing newline, non-ASCII
    # digits (Arabic-Indic one, fullwidth one), a leading zero.
    for bad in ("x1\n", "x\u0661", "x\uff11", "x01", " x1", "x1 ", "X1", "x", "1", "x-1", "x+1", ""):
        with pytest.raises(ValueError, match="bad vertex label"):
            parse_vertex(bad)
    assert parse_vertex("x0") == xv(0) and parse_vertex("y1234") == yv(1234)


def test_components_ordering_and_isolated_vertices():
    # two disjoint edges plus an isolated X and an isolated Y vertex
    g = build(3, 3, [(0, 1), (2, 0)])
    comps = vertex_components(g)
    assert comps == [
        [xv(0), yv(1)],
        [xv(1)],
        [xv(2), yv(0)],
        [yv(2)],
    ]


def test_eulerian_rejects_odd_degree():
    g = build(2, 1, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="odd degree"):
        eulerian_circuit(g, components(g.node_adj)[0])


def test_eulerian_on_four_cycle():
    g = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    circ = eulerian_circuit(g, components(g.node_adj)[0])
    assert walk_is_circuit(g, circ, range(4))
    assert circ == eulerian_circuit(g, components(g.node_adj)[0])  # deterministic
    assert circ[0] == 0  # leaves x0 by its lowest edge


def test_eulerian_with_parallel_edges():
    # one Y-vertex doubled to each of two X-vertices
    g = build(2, 1, [(0, 0), (0, 0), (1, 0), (1, 0)])
    circ = eulerian_circuit(g, components(g.node_adj)[0])
    assert walk_is_circuit(g, circ, range(4))


def test_eulerian_starts_at_lowest_vertex_with_edges():
    # x0 is isolated; the four-cycle's circuit leaves x1 by its lowest edge
    g = build(3, 2, [(1, 0), (1, 1), (2, 0), (2, 1)])
    assert components(g.node_adj)[0] == [0] and eulerian_circuit(g, [0]) == []  # [0] is x0
    circ = eulerian_circuit(g, components(g.node_adj)[1])
    assert walk_is_circuit(g, circ, range(4))
    assert circ[0] == 0 and g.edges[circ[-1]][0] == 1


def test_eulerian_rejects_a_component_missing_a_vertex():
    g = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(ValueError, match="edge leaves the given component at y0"):
        eulerian_circuit(g, [0, 1, 3])  # x0, x1, y1


def test_eulerian_rejects_disconnected_vertex_set():
    g = build(2, 2, [(0, 0), (0, 0), (1, 1), (1, 1)])
    with pytest.raises(ValueError):
        eulerian_circuit(g, range(g.x_count + g.y_count))


def brute_force_two_edge_connected(g):
    if len(components(g.node_adj)) != 1:
        return False
    for drop in range(g.edge_count):
        rest = [e for i, e in enumerate(g.edges) if i != drop]
        if len(components(build(g.x_count, g.y_count, rest).node_adj)) != 1:
            return False
    return True


def test_two_edge_connected_examples():
    assert not is_two_edge_connected(build(1, 1, [(0, 0)]))  # single edge
    assert is_two_edge_connected(build(1, 1, [(0, 0), (0, 0)]))  # doubled edge
    assert is_two_edge_connected(k34())
    assert not is_two_edge_connected(claw_triple_graph())  # x0's edges are bridges
    assert not is_two_edge_connected(build(2, 2, [(0, 0), (1, 1)]))  # disconnected
    assert is_two_edge_connected(build(1, 0, []))  # one vertex, no edge
    assert is_two_edge_connected(build(0, 1, []))
    assert not is_two_edge_connected(build(0, 0, []))  # no vertex
    assert not is_two_edge_connected(build(2, 0, []))  # two isolated vertices
    assert not is_two_edge_connected(build(1, 1, []))


def test_two_edge_connected_matches_brute_force():
    rng = random.Random(5)
    for trial in range(120):
        n_x = rng.randint(1, 4)
        n_y = rng.randint(1, 4)
        m = rng.randint(0, 10)
        edges = [(rng.randrange(n_x), rng.randrange(n_y)) for _ in range(m)]
        g = build(n_x, n_y, edges)
        assert is_two_edge_connected(g) == brute_force_two_edge_connected(g), (
            n_x,
            n_y,
            edges,
        )
    for k in (1, 2, 3):
        g = random_34_biregular(k, seed=k, simple_only=False)
        assert is_two_edge_connected(g) == brute_force_two_edge_connected(g)


def long_cycle(n):
    """One even cycle of 2n edges: X-vertex i is joined to Y-vertices i and (i + 1) mod n."""
    return build(n, n, [(i, (i + d) % n) for i in range(n) for d in (0, 1)])


def test_walks_on_a_deep_cycle():
    # 20,000 edges in one cycle: the bridge search and the Euler walk each
    # reach that depth on their explicit stacks
    g = long_cycle(10_000)
    assert is_two_edge_connected(g)
    for drop in (0, 1, 9_999, 10_000, 19_999):  # every edge of the path left behind is a bridge
        rest = build(g.x_count, g.y_count, g.edges[:drop] + g.edges[drop + 1:])
        assert not is_two_edge_connected(rest), drop
    circ = eulerian_circuit(g, range(g.x_count + g.y_count))
    assert walk_is_circuit(g, circ, range(g.edge_count))


def test_delete_y_maps_back():
    g = k34()
    h, edge_map, y_map = delete_y(g, [1])
    assert h.x_count == 4 and h.y_count == 2
    assert is_biregular(h, 2, 4)
    assert y_map == (0, 2)
    for new_eid, old_eid in enumerate(edge_map):
        x_new, y_new = h.edges[new_eid]
        x_old, y_old = g.edges[old_eid]
        assert x_new == x_old and y_map[y_new] == y_old
    with pytest.raises(ValueError):
        delete_y(g, [9])


def test_json_round_trip_preserves_edge_order():
    g = claw_triple_graph()
    h = bigraph.from_json(bigraph.to_json(g))
    assert (h.x_count, h.y_count, h.edges) == (g.x_count, g.y_count, g.edges)
    with pytest.raises(ValueError):
        bigraph.from_dict({"x_count": 1})


def test_from_json_rejects_non_integers():
    for edge in ("[0.7, 0.2]", "[true, false]", '["0", 0]'):
        with pytest.raises(ValueError, match="must be an integer"):
            bigraph.from_json(f'{{"x_count": 2, "y_count": 1, "edges": [{edge}]}}')
    with pytest.raises(ValueError, match="must be an integer"):
        bigraph.from_json('{"x_count": 2.0, "y_count": 1, "edges": []}')


def reference_from_dict(d):
    """The loader that type-checked every endpoint and then ran build(), kept as the reference."""
    try:
        return build(
            bigraph._strict_int(d["x_count"], "x_count"),
            bigraph._strict_int(d["y_count"], "y_count"),
            [tuple(bigraph._strict_int(v, "edge endpoint") for v in e) for e in d["edges"]],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc


MALFORMED_GRAPHS = [
    {"x_count": 2, "y_count": 1, "edges": [[0, 0], [1, 0]]},  # well formed
    {"x_count": 2, "y_count": 1, "edges": []},
    {"x_count": 2, "y_count": 1, "edges": [[0, 0.5]]},
    {"x_count": 2, "y_count": 1, "edges": [[True, 0]]},
    {"x_count": 2, "y_count": 1, "edges": [["1", 0]]},
    {"x_count": 2, "y_count": 1, "edges": [[None, 0]]},
    {"x_count": 2, "y_count": 1, "edges": [[2, 0]]},
    {"x_count": 2, "y_count": 1, "edges": [[0, -1]]},
    {"x_count": 2, "y_count": 1, "edges": [[0, 0, 0]]},
    {"x_count": 2, "y_count": 1, "edges": [[0]]},
    {"x_count": 2, "y_count": 1, "edges": [[]]},
    {"x_count": 2, "y_count": 1, "edges": [0]},
    {"x_count": 2, "y_count": 1, "edges": ["01"]},
    {"x_count": 2, "y_count": 1, "edges": 3},
    {"x_count": 2, "y_count": 1, "edges": [[5, 0], [0, 0, 0], [1, "a"]]},  # type error wins
    {"x_count": 2, "y_count": 1, "edges": [[5, 0], [0, 0, 0]]},  # first of range, arity
    {"x_count": 2, "y_count": 1, "edges": [[0, 0, 0], [5, 0]]},
    {"x_count": -1, "y_count": 1, "edges": [[0, 0, 0]]},  # counts before edges
    {"x_count": -1, "y_count": 1, "edges": [[0, 0.5]]},  # type error before counts
    {"x_count": 2, "y_count": -3, "edges": []},
    {"x_count": 2.0, "y_count": 1, "edges": []},
    {"x_count": 2, "y_count": False, "edges": []},
    {"x_count": 2, "y_count": 1},
    {"x_count": 2, "edges": []},
    {"y_count": 1, "edges": [[0, 0.5]]},
    [2, 1, []],
    None,
]


def test_from_dict_matches_reference_on_malformed_input():
    for d in MALFORMED_GRAPHS:
        try:
            want = ("ok", reference_from_dict(d))
        except ValueError as exc:
            want = ("ValueError", str(exc))
        try:
            got = ("ok", bigraph.from_dict(d))
        except ValueError as exc:
            got = ("ValueError", str(exc))
        assert got == want, d


FAULTS = ("type", "arity", "shape", "range", "count", "key")


def mutated(d, rng):
    """A copy of graph object `d` with 1-3 seeded faults, and the faults as (kind, edge position)."""
    x_count, y_count = d["x_count"], d["y_count"]
    edges = [list(e) for e in d["edges"]]
    out = {"x_count": x_count, "y_count": y_count, "edges": edges}
    spots = iter(rng.sample(range(len(edges)), 3))  # edge faults land on distinct edges
    faults = []
    for kind in rng.choices(FAULTS, k=rng.randint(1, 3)):
        if kind == "count":
            out[rng.choice(("x_count", "y_count"))] = -rng.randint(1, 3)
            faults.append((kind, None))
            continue
        if kind == "key":
            out.pop(rng.choice(("x_count", "y_count", "edges")), None)
            faults.append((kind, None))
            continue
        pos = next(spots)
        e = edges[pos]
        side = rng.randrange(2)
        if kind == "type":
            e[side] = rng.choice((0.5, True, "1", None))
        elif kind == "arity":
            if rng.randrange(2):
                e.append(rng.randrange(y_count))
            else:
                del e[side]
        elif kind == "shape":
            edges[pos] = rng.choice((pos, "7", "01"))
        else:
            e[side] = rng.choice((-1, (x_count, y_count)[side]))
        faults.append((kind, pos))
    return out, faults


def outcome(load, d):
    try:
        return ("ok", load(d))
    except ValueError as exc:
        return ("ValueError", str(exc))


# the part of a rejection's message that names the rule it broke
MESSAGE_KINDS = [
    ("type", "must be an integer"),
    ("arity", "not an (x, y) pair"),
    ("range", "outside"),
    ("count", "vertex counts"),
    ("malformed", "malformed graph object"),
]


def outcome_kind(result):
    status, value = result
    if status == "ok":
        return "ok"
    return next((kind for kind, part in MESSAGE_KINDS if part in value), value)


def test_from_dict_matches_reference_on_mutated_graphs():
    rng = random.Random(30)
    kinds = set()
    type_after_range_or_arity = 0
    for k in (1, 2, 3):
        for simple in (True, False):
            for seed in range(3):
                d = bigraph.to_dict(random_34_biregular(k, seed, simple_only=simple))
                cases = [(d, [])] + [mutated(d, rng) for _ in range(20)]
                for obj, faults in cases:
                    want = outcome(reference_from_dict, obj)
                    assert outcome(bigraph.from_dict, obj) == want, (obj, faults)
                    kinds.add(outcome_kind(want))
                    first_bad = min((pos for kind, pos in faults if kind in ("range", "arity")), default=None)
                    if first_bad is not None and any(kind == "type" and pos > first_bad for kind, pos in faults):
                        type_after_range_or_arity += 1
    assert kinds == {"ok", "type", "arity", "range", "count", "malformed"}
    assert type_after_range_or_arity


def test_dot_output_draws_parallel_edges_separately():
    g = build(1, 1, [(0, 0), (0, 0)])
    dot = bigraph.to_dot(g)
    assert dot.count("x0 -- y0") == 2
    assert "shape=circle" in dot and "shape=square" in dot
    colored = bigraph.to_dot(g, edge_colors={0: 1, 1: 2})
    assert 'label="1"' in colored and 'label="2"' in colored
