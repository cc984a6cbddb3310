"""The via24 half-factor kernel and the factor JSON codec against the code
they replaced.

`pathfactor.p7_factor_via_24` and `pathfactor.p3_half_factor` run on one
kernel, `_half_pairs`, whose Euler walk steps from Y-vertex to Y-vertex;
`bigraph.eulerian_circuit` walks node by node on its own.
`checker.factor_from_dict` reads plain labels and int edge ids without a
regex. The versions below are the code they replaced, kept only as
references: the `Vertex`-graph pipeline, and `reference_half_pairs`, the
node-by-node walk (`reference_circuit`) that `_half_pairs` ran before.
On every input both must return equal results or raise the same
exception type with the same message.
"""

import random
import time

from helpers import random_24_biregular, random_cover_admitting

from interval6.bigraph import (
    BipartiteMultigraph,
    Vertex,
    _strict_int,
    build,
    components,
    delete_y,
    eulerian_circuit,
    is_biregular,
    node_vertex,
    parse_vertex,
    xv,
    yv,
)
from interval6.checker import Path, PathFactor, factor_from_dict, factor_to_dict, path_factor_violation
from interval6.errors import InvariantError
from interval6.generators import random_34_biregular
from interval6.pathfactor import HalfFactor, _half_pairs, find_y_cover, p3_half_factor, p7_factor_via_24


def reference_circuit(adj, used: bytearray, ptr: list[int], start: int, out: list[int]) -> int:
    """The node-by-node Euler walk `reference_half_pairs` runs, as it ran there (no `inside` bound)."""
    nodes = [start]  # the walk's open stack; entries[i] led to nodes[i + 1]
    entries: list[int] = []
    v = start
    while True:
        a = adj[v]
        p = ptr[v]
        d = len(a)
        while p < d and used[a[p][0]]:
            p += 1
        if p < d:
            eid, w = a[p]
            ptr[v] = p + 1
            used[eid] = 1
            nodes.append(w)
            entries.append(eid)
            v = w
        else:
            ptr[v] = p
            nodes.pop()
            if not entries:
                return -1
            out.append(entries.pop())
            v = nodes[-1]


def reference_half_pairs(x_count: int, y_count: int, edges, parity: int) -> list[tuple[int, int]]:
    n = x_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + y_count)]
    for eid, (x, y) in enumerate(edges):
        adj[x].append((eid, n + y))
        adj[n + y].append((eid, x))
    degrees = list(map(len, adj))
    if degrees[:n].count(2) != n or degrees[n:].count(4) != y_count:
        raise ValueError("graph is not (2,4)-biregular")
    used = bytearray(len(edges))
    ptr = [0] * len(adj)
    rev: list[int] = []
    for start in range(n):
        if ptr[start] == 0:  # not yet on a walked component
            reference_circuit(adj, used, ptr, start, rev)
    # circuit position i sits at an index of the other parity in its reversal
    at_y: list[list[int]] = [[] for _ in range(y_count)]
    x_hits = [0] * n
    for eid in rev[1 - parity :: 2]:
        x, y = edges[eid]
        x_hits[x] += 1
        at_y[y].append(eid)
    if x_hits.count(1) != n or any(len(two) != 2 for two in at_y):
        raise InvariantError("parity class is not a half factor")
    return [(e1, e2) if edges[e1][0] < edges[e2][0] else (e2, e1) for e1, e2 in at_y]


def reference_eulerian_circuit(g: BipartiteMultigraph, component) -> list[int]:
    n = g.x_count
    adj = g.node_adj
    verts = sorted(set(component))  # vertex order is node order
    nodes = [v.index if v.side == "X" else n + v.index for v in verts]
    for v, u in zip(verts, nodes):
        if len(adj[u]) % 2:
            raise ValueError(f"vertex {v.label} has odd degree {len(adj[u])}")
    carriers = [u for u in nodes if adj[u]]
    if not carriers:
        return []
    inside = [False] * len(adj)
    for u in nodes:
        inside[u] = True
    ptr = [0] * len(adj)
    used = [False] * g.edge_count
    total = sum(len(adj[u]) for u in carriers) // 2

    stack: list[tuple[int, int]] = [(carriers[0], -1)]  # (node, entry edge)
    rev: list[int] = []
    while stack:
        v, entry = stack[-1]
        if not inside[v]:
            raise ValueError(f"edge leaves the given component at {node_vertex(n, v).label}")
        a = adj[v]
        p = ptr[v]
        while p < len(a) and used[a[p][0]]:
            p += 1
        ptr[v] = p
        if p == len(a):
            stack.pop()
            if entry >= 0:
                rev.append(entry)
        else:
            eid, w = a[p]
            used[eid] = True
            stack.append((w, eid))
    if len(rev) != total:
        raise ValueError("component argument is not connected")
    rev.reverse()
    return rev


def reference_p3_half_factor(h: BipartiteMultigraph, parity: int = 0) -> HalfFactor:
    if parity not in (0, 1):
        raise ValueError("parity is 0 or 1")
    if not is_biregular(h, 2, 4):
        raise ValueError("graph is not (2,4)-biregular")
    chosen: set[int] = set()
    for comp in components(h):
        circuit = reference_eulerian_circuit(h, comp)
        chosen.update(circuit[parity::2])

    xdeg = [0] * h.x_count
    ydeg = [0] * h.y_count
    at_y: dict[int, list[int]] = {}
    for eid in chosen:
        x, y = h.edges[eid]
        xdeg[x] += 1
        ydeg[y] += 1
        at_y.setdefault(y, []).append(eid)
    if any(d != 1 for d in xdeg) or any(d != 2 for d in ydeg):
        raise InvariantError("parity class is not a half factor")
    paths = []
    for y in sorted(at_y):
        e1, e2 = sorted(at_y[y])
        a, b = h.edges[e1][0], h.edges[e2][0]
        if a > b:
            a, b = b, a
            e1, e2 = e2, e1
        paths.append(Path((xv(a), yv(y), xv(b)), (e1, e2)))
    return HalfFactor(frozenset(chosen), tuple(paths))


def reference_p7_factor_via_24(g: BipartiteMultigraph, max_nodes: int | None = None) -> PathFactor | None:
    cover = find_y_cover(g, max_nodes=max_nodes)
    if cover is None:
        return None
    h, h_edges, h_ys = delete_y(g, cover)
    base = reference_p3_half_factor(h)

    t_of_x: dict[int, int] = {}
    arm: dict[int, tuple[list[Vertex], list[int]]] = {}
    for ti, p in enumerate(base.paths):
        a, y, b = p.vertices
        ea, eb = (h_edges[e] for e in p.edges)
        mid = yv(h_ys[y.index])
        t_of_x[a.index] = t_of_x[b.index] = ti
        arm[a.index] = ([b, mid, a], [eb, ea])
        arm[b.index] = ([a, mid, b], [ea, eb])
    cover_sorted = sorted(cover)
    cover_index = {j: jj for jj, j in enumerate(cover_sorted)}
    contact: list[tuple[int, int]] = []
    for x in range(g.x_count):
        into = [(eid, cover_index[j]) for eid, j in g.x_adj[x] if j in cover_index]
        if len(into) != 1:
            raise InvariantError(f"x{x} has {len(into)} edges into the cover")
        contact.append(into[0])

    pairs = [(t_of_x[x], cj) for x, (_, cj) in enumerate(contact)]
    contracted = build(len(base.paths), len(cover_sorted), pairs)
    paths = []
    for p in reference_p3_half_factor(contracted).paths:
        x_i, x_j = p.edges
        (vi, ei), (vj, ej) = arm[x_i], arm[x_j]
        u = yv(cover_sorted[p.vertices[1].index])
        verts = vi + [u] + vj[::-1]
        eids = ei + [contact[x_i][0], contact[x_j][0]] + ej[::-1]
        paths.append(Path(tuple(verts), tuple(eids)))
    factor = PathFactor(tuple(paths))
    why = path_factor_violation(g, factor)
    if why is not None:
        raise InvariantError(f"via24 construction failed: {why}")
    return factor


def reference_factor_to_dict(factor: PathFactor) -> dict:
    def interleaved(p: Path) -> list:
        out: list = [p.vertices[0]]
        for eid, v in zip(p.edges, p.vertices[1:]):
            out.append(eid)
            out.append(v)
        return out

    return {
        "paths": [
            [item if isinstance(item, int) else item.label for item in interleaved(p)]
            for p in factor.paths
        ]
    }


def reference_factor_from_dict(d: dict) -> PathFactor:
    paths = []
    try:
        for seq in d["paths"]:
            if len(seq) % 2 == 0 or len(seq) < 3:
                raise ValueError(f"path array of length {len(seq)} cannot alternate vertex/edge")
            verts = [parse_vertex(item) for item in seq[::2]]
            eids = [_strict_int(item, f"edge id at position {i}") for i, item in enumerate(seq) if i % 2]
            paths.append(Path(tuple(verts), tuple(eids)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factor object: {exc}") from exc
    return PathFactor(tuple(paths))


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared by type and message
        return (type(exc).__name__, str(exc))


def union(parts: list[BipartiteMultigraph], rng: random.Random) -> BipartiteMultigraph:
    """Disjoint union of `parts` with the edge list shuffled, so components interleave in edge-id order."""
    edges = []
    nx = ny = 0
    for h in parts:
        edges += [(x + nx, y + ny) for x, y in h.edges]
        nx += h.x_count
        ny += h.y_count
    rng.shuffle(edges)
    return build(nx, ny, edges)


def test_p7_matches_reference_on_cover_admitting_graphs():
    simple = 0
    for seed in range(520):
        g = random_cover_admitting(1 + seed % 25, random.Random(seed))
        simple += len(set(g.edges)) == g.edge_count
        got = p7_factor_via_24(g)
        assert got is not None and got == reference_p7_factor_via_24(g), seed
    assert 0 < simple < 520  # multigraphs and simple graphs both occur


def test_p7_matches_reference_without_a_cover_or_past_the_budget():
    rng = random.Random(12)
    for _ in range(60):
        g = random_34_biregular(rng.randrange(1, 5), seed=rng.randrange(10**9), simple_only=False)
        assert outcome(p7_factor_via_24, g) == outcome(reference_p7_factor_via_24, g)
    g = random_cover_admitting(30, random.Random(4))
    for cap in (1, 5, 40):
        assert outcome(p7_factor_via_24, g, cap) == outcome(reference_p7_factor_via_24, g, cap)
    not_biregular = build(2, 1, [(0, 0), (1, 0)])
    assert outcome(p7_factor_via_24, not_biregular) == outcome(reference_p7_factor_via_24, not_biregular)


def test_half_factor_matches_reference_on_component_unions():
    rng = random.Random(2024)
    for _ in range(150):
        parts = [random_24_biregular(rng.randrange(1, 7), rng) for _ in range(rng.randrange(1, 6))]
        h = union(parts, rng)
        for parity in (0, 1, 2):
            assert outcome(p3_half_factor, h, parity) == outcome(reference_p3_half_factor, h, parity)
    for bad in (build(2, 1, [(0, 0), (1, 0)]), build(4, 3, [(i, j) for i in range(4) for j in range(3)])):
        assert outcome(p3_half_factor, bad) == outcome(reference_p3_half_factor, bad)
    assert p3_half_factor(build(0, 0, [])) == reference_p3_half_factor(build(0, 0, []))


def parallel_start_24(m: int, rng: random.Random) -> BipartiteMultigraph:
    """A `random_24_biregular` graph whose X-vertex 0 has both its edges to one Y-vertex."""
    y_stubs = [j for j in range(m) for _ in range(4)]
    rng.shuffle(y_stubs)
    twin = y_stubs.index(y_stubs[0], 1)
    y_stubs[1], y_stubs[twin] = y_stubs[twin], y_stubs[1]
    return build(2 * m, m, [(s // 2, y_stubs[s]) for s in range(4 * m)])


def test_half_pairs_matches_the_circuit_walk():
    rng = random.Random(424)
    graphs = []
    for _ in range(200):
        size = rng.randrange(1, 7)
        parts = [random_24_biregular(size, rng) for _ in range(rng.randrange(1, 6))]
        graphs.append(union(parts, rng))
        # every part's lowest X-vertex starts a component, with both edges to one Y-vertex
        graphs.append(union([parallel_start_24(size, rng) for _ in range(rng.randrange(1, 4))], rng))
    graphs += [build(2, 1, [(0, 0), (1, 0)]), build(4, 3, [(i, j) for i in range(4) for j in range(3)])]
    graphs += [build(0, 0, []), build(2, 1, [(0, 0)] * 2 + [(1, 0)] * 2)]
    for h in graphs:
        for parity in (0, 1):
            args = (h.x_count, h.y_count, h.edges, parity)
            assert outcome(_half_pairs, *args) == outcome(reference_half_pairs, *args), (h, parity)


def test_eulerian_circuit_matches_reference_on_good_and_bad_vertex_sets():
    rng = random.Random(99)
    for _ in range(80):
        parts = [random_24_biregular(rng.randrange(1, 5), rng) for _ in range(rng.randrange(1, 4))]
        g = union(parts, rng)
        cases = [g.vertices()]  # several components: not connected
        for comp in components(g):
            cases += [comp, comp[:-1], comp[1:], comp[::-1] + [comp[0]]]
        for vs in cases:
            assert outcome(eulerian_circuit, g, vs) == outcome(reference_eulerian_circuit, g, vs)
    odd = build(2, 1, [(0, 0), (1, 0)])
    square = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    for g, vs in [
        (odd, components(odd)[0]),
        (square, [xv(0), xv(1), yv(1)]),
        (build(2, 2, [(0, 0), (0, 0), (1, 1), (1, 1)]), [xv(0), xv(1), yv(0), yv(1)]),
        (build(3, 2, [(1, 0), (1, 1), (2, 0), (2, 1)]), [xv(0)]),
    ]:
        assert outcome(eulerian_circuit, g, vs) == outcome(reference_eulerian_circuit, g, vs)


def disjoint_k42(copies: int) -> BipartiteMultigraph:
    return build(4 * copies, 2 * copies, [
        (4 * c + i, 2 * c + j) for c in range(copies) for j in range(2) for i in range(4)
    ])


def test_half_factor_is_linear_in_the_number_of_components():
    small = disjoint_k42(50)
    for parity in (0, 1):
        assert p3_half_factor(small, parity) == reference_p3_half_factor(small, parity)
    big = disjoint_k42(10_000)  # the reference takes about 10 s here
    start = time.perf_counter()
    half = p3_half_factor(big)
    assert time.perf_counter() - start < 2.0
    assert len(half.paths) == 20_000 and len(half.edge_set) == 40_000


PLAIN = [["x0", 0, "y0", 1, "x1"], ["x12", 5, "y3", 6, "x9"], ["x1234567", 0, "y0", 2, "x0"]]
BAD_LABELS = [
    "x01", "y00", "x", "y", "", "X1", "z1", "x1\n", " x1", "x+1", "x-1", "x1.0", "x١", "x²", "x1_0",
    5, 1.0, True, None, ["x1"], {"x": 1},
]
BAD_EDGE_IDS = [True, False, 1.0, "1", None, [1], -0.0]


def test_factor_from_dict_matches_reference_on_fuzzed_items():
    objs: list = [{"paths": PLAIN}, {"paths": []}, {}, {"paths": 3}, {"paths": [3]}, {"paths": ["x0ay1"]},
                  {"paths": [["x0", 1]]}, {"paths": [["x0", 1, "y0", 2]]}, {"paths": [{"a": 1, "b": 2, "c": 3}]}]
    for bad in BAD_LABELS:
        for pos in (0, 2, 4):
            seq = ["x0", 0, "y0", 1, "x1"]
            seq[pos] = bad
            objs.append({"paths": [PLAIN[0], seq]})
    for bad in BAD_EDGE_IDS:
        for pos in (1, 3):
            seq = ["x0", 0, "y0", 1, "x1"]
            seq[pos] = bad
            objs.append({"paths": [seq]})
            objs.append({"paths": [seq[:4] + ["x01"]]})  # a bad label wins over a bad edge id
    rng = random.Random(5)
    pool = ["x0", "y1", "x10", 0, 7, 12] + BAD_LABELS + BAD_EDGE_IDS
    for _ in range(400):
        objs.append({"paths": [[rng.choice(pool) for _ in range(rng.choice((3, 5, 7)))]]})
    for d in objs:
        assert outcome(factor_from_dict, d) == outcome(reference_factor_from_dict, d), d


def test_factor_codec_matches_reference_on_real_factors():
    for seed in range(20):
        g = random_cover_admitting(1 + seed, random.Random(seed))
        factor = p7_factor_via_24(g)
        d = factor_to_dict(factor)
        assert d == reference_factor_to_dict(factor)
        assert factor_from_dict(d) == reference_factor_from_dict(d) == factor
