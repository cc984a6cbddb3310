"""The node-id certificate kernels against the `Vertex` code they replaced.

`checker.path_factor_violation`, `pathfactor.build_q`,
`checker._coloring_scan` and `coloring.color_from_factor` (with
`build_pgraph` and `two_color_pgraph`) run over integer node ids, flag
arrays and color bitmasks; `checker.coloring_from_dict` and
`checker._validate_coloring` check types and ranges in whole-sequence
passes. The versions below are the direct readings of the definitions
they replaced, kept only as references: on every factor and coloring,
valid or mutated, both must return equal results or raise the same
exception type with the same message.
"""

import hashlib
import random
import re

import pytest
from helpers import random_core_admitting, random_cover_admitting

from interval6 import pathfactor
from interval6.bigraph import BipartiteMultigraph, Vertex, _strict_int, biregular34_k, xv, yv
from interval6.checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    Path,
    PathFactor,
    _coloring_scan,
    _validate_coloring,
    coloring_from_dict,
    interval_violation,
    path_factor_violation,
)
from interval6.coloring import (
    FACTOR_COLORS,
    LEFTOVER_COLORS,
    PALETTE,
    _factor_path_colors,
    color_from_factor,
)
from interval6.errors import InvariantError
from interval6.generators import eight_triples_graph, random_34_biregular, subset_graph_6, two_eight_triples
from interval6.pathfactor import (
    PEdge,
    PGraph,
    QDecomposition,
    build_pgraph,
    build_q,
    p7_factor_via_24,
    pivot_path_factor,
    search_full_3regular,
    two_color_pgraph,
)
from interval6.transversal import factor_from_mixed_transversal


def reference_validate_path_structure(g: BipartiteMultigraph, p: Path) -> None:
    if len(p.vertices) != len(p.edges) + 1:
        raise ValueError(f"path has {len(p.vertices)} vertices but {len(p.edges)} edges")
    for v in p.vertices:
        limit = g.x_count if v.side == "X" else g.y_count
        if v.side not in ("X", "Y") or not (0 <= v.index < limit):
            raise ValueError(f"path mentions unknown vertex {v!r}")
    for eid in p.edges:
        if not (0 <= eid < g.edge_count):
            raise ValueError(f"path references edge {eid}, graph has {g.edge_count}")


def reference_path_factor_violation(g: BipartiteMultigraph, factor: PathFactor) -> str | None:
    seen_vertices: set[Vertex] = set()
    seen_edges: set[int] = set()
    for pi, p in enumerate(factor.paths):
        reference_validate_path_structure(g, p)
        if p.length not in FACTOR_LENGTHS:
            return f"path {pi} has length {p.length}, allowed {FACTOR_LENGTHS}"
        if p.vertices[0].side != "X" or p.vertices[-1].side != "X":
            return f"path {pi} does not have both endpoints on the X side"
        if len(set(p.vertices)) != len(p.vertices):
            return f"path {pi} repeats a vertex"
        for i, eid in enumerate(p.edges):
            a, b = p.vertices[i], p.vertices[i + 1]
            x, y = g.edges[eid]
            if {a, b} != {xv(x), yv(y)}:
                return f"path {pi}: edge {eid} joins x{x},y{y}, not {a.label},{b.label}"
            if eid in seen_edges:
                return f"edge {eid} used twice"
            seen_edges.add(eid)
        for v in p.vertices:
            if v in seen_vertices:
                return f"vertex {v.label} lies on two paths"
            seen_vertices.add(v)
    uncovered = [v for v in g.vertices() if v not in seen_vertices]
    if uncovered:
        return f"vertices not covered: {', '.join(v.label for v in uncovered[:8])}"
    return None


def reference_factor_or_raise(g: BipartiteMultigraph, factor: PathFactor) -> None:
    why = reference_path_factor_violation(g, factor)
    if why is not None:
        raise ValueError(f"not a proper path factor: {why}")


def reference_build_q(g: BipartiteMultigraph, factor: PathFactor) -> QDecomposition:
    biregular34_k(g)
    reference_factor_or_raise(g, factor)
    on_factor = factor.edge_ids()
    adj: dict[Vertex, list[tuple[int, Vertex]]] = {v: [] for v in g.vertices()}
    for eid, (x, y) in enumerate(g.edges):
        if eid in on_factor:
            continue
        adj[xv(x)].append((eid, yv(y)))
        adj[yv(y)].append((eid, xv(x)))

    def walk(start: Vertex, used: set[int]) -> tuple[list[Vertex], list[int]]:
        verts, eids = [start], []
        cur = start
        while True:
            step = next(((eid, w) for eid, w in adj[cur] if eid not in used), None)
            if step is None:
                return verts, eids
            used.add(step[0])
            eids.append(step[0])
            verts.append(step[1])
            cur = step[1]

    cycles: list[tuple[int, ...]] = []
    paths: list[Path] = []
    visited: set[Vertex] = set()
    used: set[int] = set()
    for v0 in g.vertices():
        if v0 in visited:
            continue
        # gather the component of v0 in the leftover graph
        comp = [v0]
        visited.add(v0)
        stack = [v0]
        while stack:
            v = stack.pop()
            for _, w in adj[v]:
                if w not in visited:
                    visited.add(w)
                    comp.append(w)
                    stack.append(w)
        degs = {v: len(adj[v]) for v in comp}
        if any(d == 0 for d in degs.values()):
            raise InvariantError(f"leftover graph has an isolated vertex in {sorted(comp)}")
        ones = sorted(v for v, d in degs.items() if d == 1)
        if not ones:
            start = min(comp)
            verts, eids = walk(start, used)
            if verts[0] != verts[-1] or len(eids) % 2:
                raise InvariantError("leftover component is not an even closed walk")
            cycles.append(tuple(eids))
        else:
            if len(ones) != 2 or any(v.side != "X" for v in ones):
                raise InvariantError(f"leftover path must join two X-vertices, got {ones}")
            verts, eids = walk(ones[0], used)
            if verts[-1] != ones[1]:
                raise InvariantError("leftover path walk did not reach the other endpoint")
            paths.append(Path(tuple(verts), tuple(eids)))
    return QDecomposition(tuple(cycles), tuple(paths))


def reference_coloring_scan(
    g: BipartiteMultigraph, coloring: EdgeColoring
) -> tuple[bool, tuple[Vertex, tuple[int, ...]] | None]:
    _validate_coloring(g, coloring)
    colors = coloring.colors
    gap = None
    for side, adj in (("X", g.x_adj), ("Y", g.y_adj)):
        for index, incident in enumerate(adj):
            cols = sorted(colors[eid] for eid, _ in incident)
            if len(set(cols)) != len(cols):
                return False, None
            if gap is None and cols and cols[-1] - cols[0] != len(cols) - 1:
                gap = Vertex(side, index), tuple(cols)
    return True, gap


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison is the point: any exception must match
        return type(exc).__name__, str(exc)


def same(new, ref, *args):
    want = outcome(ref, *args)
    assert outcome(new, *args) == want
    return want


@pytest.fixture(scope="module")
def factored():
    """(graph, proper path factor) pairs from every route that makes factors."""
    out = [subset_graph_6(), two_eight_triples()]
    eight = eight_triples_graph()
    rng = random.Random(2031)
    for g in [eight] + [
        random_34_biregular(k, seed=rng.randrange(10**9), simple_only=simple)
        for k in (1, 2, 3, 4)
        for simple in (True, False)
    ]:
        for lengths in [(6,), (2, 4), (6, 8), FACTOR_LENGTHS]:
            res = pivot_path_factor(g, max_nodes=20_000, lengths=lengths)
            if res.status == "found":
                out.append((g, res.factor))
    for k in (1, 2, 3, 5, 8, 13):
        g = random_cover_admitting(k, rng)
        factor = p7_factor_via_24(g)
        if factor is not None:
            out.append((g, factor))
    for k in (2, 3, 4, 5):
        for _ in range(3):
            g = random_core_admitting(k, rng)
            factor = factor_from_mixed_transversal(g, search_full_3regular(g))
            if factor is not None:
                out.append((g, factor))
    return out


def test_factor_routes_are_all_represented(factored):
    lengths = {p.length for _, f in factored for p in f.paths}
    assert lengths == set(FACTOR_LENGTHS)
    assert len(factored) >= 30


@pytest.fixture(scope="module")
def larger():
    """Seeded factors of larger graphs: via24 up to k=40, transversal up to k=10."""
    rng = random.Random(4040)
    out = []
    for k in (16, 21, 27, 33, 40):
        g = random_cover_admitting(k, rng)
        out.append((g, p7_factor_via_24(g)))
    for k in (6, 7, 8, 9, 10, 10):
        g = random_core_admitting(k, rng)
        factor = factor_from_mixed_transversal(g, search_full_3regular(g))
        if factor is not None:
            out.append((g, factor))
    return out


def counting(monkeypatch, module, name: str) -> list[int]:
    """Wrap module.name to count its calls; the count is the list's length."""
    calls: list[int] = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_valid_factors_match_reference(factored, larger, monkeypatch):
    assert len(larger) >= 8
    fallback = counting(monkeypatch, pathfactor, "_leftover_components")
    for g, factor in factored + larger:
        assert same(path_factor_violation, reference_path_factor_violation, g, factor) == ("ok", None)
        assert same(build_q, reference_build_q, g, factor)[0] == "ok"
        col = color_from_factor(g, factor)
        assert same(_coloring_scan, reference_coloring_scan, g, col) == ("ok", (True, None))
    assert not fallback  # a proper path factor leaves every node degree 1 or 2


def replace_path(factor: PathFactor, pi: int, verts, eids) -> PathFactor:
    paths = list(factor.paths)
    paths[pi] = Path(tuple(verts), tuple(eids))
    return PathFactor(tuple(paths))


def mutations(g: BipartiteMultigraph, factor: PathFactor, rng: random.Random):
    """Broken copies of a factor, one defect each (and the empty factor)."""
    paths = factor.paths
    pi = rng.randrange(len(paths))
    p = paths[pi]
    verts, eids = list(p.vertices), list(p.edges)
    yield PathFactor(())
    yield PathFactor(paths[:pi] + paths[pi + 1 :])  # dropped path
    yield PathFactor(paths + (p,))  # the same path twice
    i, j = rng.sample(range(len(eids)), 2)
    swapped = list(eids)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield replace_path(factor, pi, verts, swapped)
    other = list(eids)
    other[i] = rng.randrange(g.edge_count)
    yield replace_path(factor, pi, verts, other)
    for bad in (g.edge_count, -1):
        yield replace_path(factor, pi, verts, eids[:i] + [bad] + eids[i + 1 :])
    a, b = rng.sample(range(0, len(verts), 2), 2)  # two X-vertices of the path
    repeated = list(verts)
    repeated[b] = verts[a]
    yield replace_path(factor, pi, repeated, eids)
    if len(eids) >= 4:
        yield replace_path(factor, pi, verts[1:-1], eids[1:-1])  # both ends on Y
    yield replace_path(factor, pi, [yv(0)] + verts[1:], eids)  # one end on Y
    yield replace_path(factor, pi, verts[:-2], eids[:-1])  # vertex count off by one
    yield replace_path(factor, pi, verts[:-1], eids[:-1])  # odd length
    for unknown in (Vertex("X", g.x_count), Vertex("Y", g.y_count), Vertex("Y", -1), Vertex("Z", 0)):
        at = rng.randrange(len(verts))
        yield replace_path(factor, pi, verts[:at] + [unknown] + verts[at + 1 :], eids)
    q = paths[(pi + 1) % len(paths)]
    if q is not p:  # borrow a vertex of another path
        k = rng.randrange(0, len(q.vertices), 2)
        yield replace_path(factor, pi, [q.vertices[k]] + verts[1:], eids)
    off = [e for e in range(g.edge_count) if e not in factor.edge_ids()]
    for e1 in off:  # an extra length-2 path over unused edges, through covered vertices
        x1, y = g.edges[e1]
        e2 = next((e for e in off if g.edges[e][1] == y and g.edges[e][0] != x1), None)
        if e2 is not None:
            extra = Path((xv(x1), yv(y), xv(g.edges[e2][0])), (e1, e2))
            yield PathFactor(paths + (extra,))
            break


def test_mutated_factors_match_reference(factored):
    rng = random.Random(77)
    messages = set()
    for g, factor in factored:
        for bad in mutations(g, factor, rng):
            kind, why = same(path_factor_violation, reference_path_factor_violation, g, bad)
            messages.add(why.split(" ")[0] if kind == "ok" and why else kind)
            same(build_q, reference_build_q, g, bad)
    assert {"ValueError", "path", "edge", "vertex", "vertices"} <= messages


def test_build_q_invariants_match_reference(factored, monkeypatch):
    """With the factor check switched off, arbitrary edge sets reach every InvariantError."""
    monkeypatch.setattr(pathfactor, "_factor_or_raise", lambda g, factor: None)
    monkeypatch.setitem(globals(), "reference_factor_or_raise", lambda g, factor: None)
    fallback = counting(monkeypatch, pathfactor, "_leftover_components")
    rng = random.Random(5)
    kinds = {True: set(), False: set()}  # by whether the split took the fallback
    for g, _ in factored:
        for density in (0.0, 0.2, 0.4, 0.6, 0.9, 1.0):
            eids = tuple(e for e in range(g.edge_count) if rng.random() < density)
            fake = PathFactor((Path((), eids),))
            before = len(fallback)
            kind, what = same(build_q, reference_build_q, g, fake)
            kinds[len(fallback) > before].add(what.split(" ")[1] if kind == "InvariantError" else kind)
    assert {"ok", "graph", "component", "path"} <= kinds[True]
    assert "path" in kinds[False]  # a Y-end on a leftover of degrees 1 and 2


def test_build_q_rejects_non_biregular_graphs_like_reference():
    g, factor = subset_graph_6()
    h = BipartiteMultigraph(g.x_count, g.y_count, g.edges[:-1])
    assert same(build_q, reference_build_q, h, factor)[0] == "ValueError"


def greedy_proper_coloring(g: BipartiteMultigraph, rng: random.Random) -> EdgeColoring:
    """Lowest free color per edge in a random order: proper, often with gaps."""
    order = list(range(g.edge_count))
    rng.shuffle(order)
    colors = [0] * g.edge_count
    xs = [set() for _ in range(g.x_count)]
    ys = [set() for _ in range(g.y_count)]
    for eid in order:
        x, y = g.edges[eid]
        c = 1
        while c in xs[x] or c in ys[y]:
            c += 1
        colors[eid] = c
        xs[x].add(c)
        ys[y].add(c)
    return EdgeColoring(tuple(colors), max(colors, default=1))


def test_mutated_colorings_match_reference(factored):
    rng = random.Random(11)
    results = set()
    for g, factor in factored:
        good = color_from_factor(g, factor).colors
        candidates = [
            EdgeColoring(good[:-1], 6),  # partial
            EdgeColoring(good[:-1] + (7,), 6),  # outside the palette
            greedy_proper_coloring(g, rng),
        ]
        for _ in range(12):
            colors = list(good)
            for _ in range(rng.randint(1, 3)):
                colors[rng.randrange(len(colors))] = rng.randint(1, 8)
            candidates.append(EdgeColoring(tuple(colors), 8))
        for col in candidates:
            kind, got = same(_coloring_scan, reference_coloring_scan, g, col)
            results.add(kind if kind != "ok" else (got[0], got[1] is None))
    assert {"ValueError", (False, True), (True, True), (True, False)} <= results


# --- the coloring construction ------------------------------------------


def reference_pgraph_from_q(factor: PathFactor, qd: QDecomposition) -> PGraph:
    vertices: list[int] = []
    edges: list[PEdge] = []
    for p in factor.paths:
        interior = [p.vertices[i].index for i in range(2, p.length - 1, 2)]
        vertices.extend(interior)
        if p.length == 6:
            edges.append(PEdge(interior[0], interior[1], "a"))
        elif p.length == 8:
            edges.append(PEdge(interior[0], interior[2], "b"))
    for qp in qd.paths:
        edges.append(PEdge(qp.vertices[0].index, qp.vertices[-1].index, "c"))

    pg = PGraph(tuple(sorted(vertices)), tuple(edges))
    counts: dict[int, dict[str, int]] = {u: {"a": 0, "b": 0, "c": 0} for u in pg.vertices}
    for e in pg.edges:
        for end in (e.u, e.v):
            if end not in counts:
                raise InvariantError(f"link edge touches non-interior vertex x{end}")
            counts[end][e.kind] += 1
    for u, c in counts.items():
        if c["c"] != 1 or c["a"] + c["b"] > 1:
            raise InvariantError(f"vertex x{u} has link degrees {c}")
    return pg


def reference_build_pgraph(g: BipartiteMultigraph, factor: PathFactor) -> PGraph:
    return reference_pgraph_from_q(factor, reference_build_q(g, factor))


def reference_two_color_pgraph(pg: PGraph) -> dict[int, str]:
    color: dict[int, str] = {}
    adj: dict[int, list[int]] = {u: [] for u in pg.vertices}
    for e in pg.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    for root in pg.vertices:
        if root in color:
            continue
        color[root] = "A"
        queue = [root]
        for u in queue:  # breadth first: the queue only grows
            for w in adj[u]:
                if w not in color:
                    color[w] = "B" if color[u] == "A" else "A"
                    queue.append(w)
                elif color[w] == color[u]:
                    raise InvariantError(f"odd cycle in link graph at x{u}, x{w}")
    return color


def reference_color_from_factor(g: BipartiteMultigraph, factor: PathFactor) -> EdgeColoring:
    qd = reference_build_q(g, factor)  # also checks the graph and the factor
    side = reference_two_color_pgraph(reference_pgraph_from_q(factor, qd))

    colors = [0] * len(g.edges)

    for cyc in qd.cycles:
        low = cyc.index(min(cyc))
        for pos in range(len(cyc)):
            colors[cyc[(low + pos) % len(cyc)]] = 3 + (pos % 2)

    for qp in qd.paths:
        eids = list(qp.edges)
        if side[qp.vertices[0].index] != "A":
            eids.reverse()
        for pos, eid in enumerate(eids):
            colors[eid] = 3 + (pos % 2)

    for p in factor.paths:
        interior = [p.vertices[i].index for i in range(2, p.length - 1, 2)]
        eids = list(p.edges)
        if p.length in (2, 4):
            if eids[0] > eids[-1]:
                eids.reverse()
        elif side[interior[0]] != "A":
            eids.reverse()
        t = sum(1 for w in interior if side[w] == "A")
        for eid, c in zip(eids, _factor_path_colors(p.length, t)):
            colors[eid] = c

    if 0 in colors:
        raise InvariantError("construction left an edge uncolored")
    on_factor = factor.edge_ids()
    for eid, c in enumerate(colors):
        want = FACTOR_COLORS if eid in on_factor else LEFTOVER_COLORS
        if c not in want:
            raise InvariantError(f"edge {eid} got color {c}, outside {sorted(want)}")
    out = EdgeColoring(tuple(colors), PALETTE)
    try:
        bad = interval_violation(g, out)
    except ValueError as exc:  # the coloring is total and in range, so only a clash raises
        raise InvariantError("construction produced a color clash") from exc
    if bad is not None:
        v, got = bad
        raise InvariantError(f"construction failed: colors {got} at {v.label} are not consecutive")
    return out


def reference_coloring_from_dict(d: dict) -> EdgeColoring:
    try:
        return EdgeColoring(
            tuple(_strict_int(c, "color") for c in d["colors"]),
            _strict_int(d["palette_size"], "palette_size"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coloring object: {exc}") from exc


def reference_validate_coloring(g: BipartiteMultigraph, coloring: EdgeColoring) -> None:
    """The old range check; it also reported an over-long coloring as partial."""
    if len(coloring.colors) != g.edge_count:
        missing = list(range(len(coloring.colors), g.edge_count))
        raise ValueError(f"partial coloring: edges {missing} uncolored")
    bad = [eid for eid, c in enumerate(coloring.colors) if not (1 <= c <= coloring.palette_size)]
    if bad:
        raise ValueError(f"colors outside 1..{coloring.palette_size} on edges {bad}")


@pytest.fixture(scope="module")
def seeded():
    """Over 300 seeded (graph, proper path factor) pairs from the search,
    via24 and transversal routes.

    No factor uses only lengths 2 and 4, or only length 8: each path has
    one more X- than Y-vertex, so a factor of a graph with 4k + 3k
    vertices has k paths whose lengths sum to 6k. The search therefore
    runs under (6, 8), which gives length-6 factors, and under all four
    lengths, which at k = 2, 3 gives lengths 2, 4 and 8 as well.
    """
    rng = random.Random(13013)
    out = []
    for lengths, ks in (((6, 8), (1, 2, 3, 4)), (FACTOR_LENGTHS, (2, 3, 3))):
        for k in ks:
            for _ in range(30):
                g = random_34_biregular(k, seed=rng.randrange(10**9), simple_only=rng.random() < 0.5)
                res = pivot_path_factor(g, max_nodes=5_000, lengths=lengths)
                if res.status == "found":
                    out.append((g, res.factor))
    for _ in range(60):
        g = random_cover_admitting(rng.randrange(1, 16), rng)
        out.append((g, p7_factor_via_24(g)))
    for _ in range(60):
        g = random_core_admitting(rng.randrange(2, 9), rng)
        factor = factor_from_mixed_transversal(g, search_full_3regular(g))
        if factor is not None:
            out.append((g, factor))
    return out


def test_seeded_factors_cover_every_length(seeded):
    assert len(seeded) >= 300
    assert {p.length for _, f in seeded for p in f.paths} == set(FACTOR_LENGTHS)


def test_colorings_match_reference(factored, seeded):
    for g, factor in factored + seeded:
        assert same(color_from_factor, reference_color_from_factor, g, factor)[0] == "ok"
        kind, pg = same(build_pgraph, reference_build_pgraph, g, factor)
        assert kind == "ok"
        assert same(two_color_pgraph, reference_two_color_pgraph, pg)[0] == "ok"


def test_colorings_pinned(factored, seeded):
    # sha256 of the colorings the Vertex/Path construction (kept above as
    # reference_color_from_factor) gave on these factors, all four lengths
    digest = hashlib.sha256()
    for g, factor in factored + seeded:
        digest.update(bytes(color_from_factor(g, factor).colors))
    assert digest.hexdigest() == "3f217d27236809206b8e0bc380ba3d23b3d32548ecc968b78219f2b28a629d63"


def relabelled(g: BipartiteMultigraph, factor: PathFactor, rng: random.Random):
    """Factors whose edge sets are right but whose vertex or edge order is
    not: the leftover split holds, so the link graph and the coloring's own
    checks see them."""
    paths = factor.paths
    pi = rng.randrange(len(paths))
    p = paths[pi]
    verts, eids = list(p.vertices), list(p.edges)
    yield replace_path(factor, pi, verts[::-1], eids)
    yield replace_path(factor, pi, verts, eids[::-1])
    if len(eids) >= 2:
        i, j = rng.sample(range(len(eids)), 2)
        swapped = list(eids)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield replace_path(factor, pi, verts, swapped)
    inner = [i for i in range(2, len(verts) - 2, 2)]
    if inner:
        at = rng.choice(inner)
        for x in rng.sample(range(g.x_count), min(3, g.x_count)):
            yield replace_path(factor, pi, verts[:at] + [xv(x)] + verts[at + 1 :], eids)
    q = paths[(pi + 1) % len(paths)]
    if q is not p and q.length > 2 and p.length > 2:  # swap an interior vertex with another path's
        a, b = rng.choice(inner), rng.randrange(2, len(q.vertices) - 2, 2)
        mixed = list(paths)
        mixed[pi] = Path(p.vertices[:a] + (q.vertices[b],) + p.vertices[a + 1 :], p.edges)
        mixed[(pi + 1) % len(paths)] = Path(q.vertices[:b] + (p.vertices[a],) + q.vertices[b + 1 :], q.edges)
        yield PathFactor(tuple(mixed))


def in_range(g: BipartiteMultigraph, factor: PathFactor) -> bool:
    return all(0 <= e < g.edge_count for p in factor.paths for e in p.edges) and all(
        0 <= v.index < (g.x_count if v.side == "X" else g.y_count) and v.side in "XY"
        for p in factor.paths
        for v in p.vertices
    )


def test_fake_factors_match_reference(factored, seeded, monkeypatch):
    """With the factor check switched off, bad factors reach every check of
    the leftover split, the link graph and the coloring itself."""
    monkeypatch.setattr(pathfactor, "_factor_or_raise", lambda g, factor: None)
    monkeypatch.setitem(globals(), "reference_factor_or_raise", lambda g, factor: None)
    rng = random.Random(8)
    messages = set()
    for g, factor in factored + seeded[::4]:
        # out-of-range ids are the factor check's to reject; the kernels index by them
        fakes = list(relabelled(g, factor, rng)) + [f for f in mutations(g, factor, rng) if in_range(g, f)]
        for density in (0.2, 0.6, 1.0):
            fakes.append(PathFactor((Path((), tuple(e for e in range(g.edge_count) if rng.random() < density)),)))
        for fake in fakes:
            kind, what = same(color_from_factor, reference_color_from_factor, g, fake)
            messages.add(re.match(r"[a-z ]*", what).group() if kind == "InvariantError" else kind)
            kind, pg = same(build_pgraph, reference_build_pgraph, g, fake)
            if kind == "ok":
                same(two_color_pgraph, reference_two_color_pgraph, pg)
    # every link vertex has one (c) edge and at most one (a)/(b) edge once
    # the degree check passes, so the odd-cycle check is reached only
    # through two_color_pgraph (see the next test)
    assert messages == {
        "ok",
        "IndexError",  # a path given as edge ids alone has no interior vertices to read
        "leftover graph has an isolated vertex in ",
        "leftover component is not an even closed walk",
        "leftover path must join two ",
        "leftover path walk did not reach the other endpoint",
        "link edge touches non",
        "vertex x",
        "construction left an edge uncolored",
        "construction produced a color clash",
        "construction failed",
    }


def test_two_color_pgraph_matches_reference_on_random_link_graphs():
    rng = random.Random(3)
    kinds = set()
    for _ in range(400):
        vertices = tuple(sorted(rng.sample(range(40), rng.randrange(0, 12))))
        pool = list(vertices) + [rng.randrange(40)]  # now and then an end outside the vertices
        edges = tuple(
            PEdge(rng.choice(pool), rng.choice(pool), rng.choice("abc")) for _ in range(rng.randrange(0, 10))
        )
        kinds.add(same(two_color_pgraph, reference_two_color_pgraph, PGraph(vertices, edges))[0])
    assert kinds == {"ok", "InvariantError", "KeyError"}


def test_coloring_loader_matches_reference():
    for d in (
        {"colors": [1, 2, 3], "palette_size": 6},
        {"colors": [], "palette_size": 6},
        {"colors": [1, True, 2.5], "palette_size": 6},
        {"colors": [1, 2.5, True], "palette_size": 6},
        {"colors": [1, "3"], "palette_size": 6},
        {"colors": "123", "palette_size": 6},
        {"colors": 5, "palette_size": 6},
        {"colors": [1, None], "palette_size": 6},
        {"colors": [1, 2], "palette_size": 6.5},
        {"colors": [1, 2]},
        {"palette_size": 6},
        [1, 2],
    ):
        same(coloring_from_dict, reference_coloring_from_dict, d)


def test_validate_coloring_matches_reference(factored):
    rng = random.Random(4)
    for g, factor in factored:
        good = color_from_factor(g, factor).colors
        for _ in range(10):
            colors = list(good)
            for _ in range(rng.randint(0, 3)):
                colors[rng.randrange(len(colors))] = rng.randint(-1, 8)
            cut = rng.randint(0, 2) * rng.randrange(len(colors))
            for col in (EdgeColoring(tuple(colors), 6), EdgeColoring(tuple(colors[cut:]), 6)):
                same(_validate_coloring, reference_validate_coloring, g, col)
