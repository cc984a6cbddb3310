"""The node-id certificate kernels against the `Vertex` code they replaced.

`checker.path_factor_violation`, `pathfactor.build_q` and
`checker._coloring_scan` run over integer node ids, flag arrays and color
bitmasks. The `Vertex`-based versions below are the direct readings of
the definitions they replaced, kept only as references: on every factor
and coloring, valid or mutated, both must return equal results or raise
the same exception type with the same message.
"""

import random

import pytest
from helpers import random_core_admitting, random_cover_admitting

from interval6 import pathfactor
from interval6.bigraph import BipartiteMultigraph, Vertex, biregular34_k, xv, yv
from interval6.checker import (
    FACTOR_LENGTHS,
    EdgeColoring,
    Path,
    PathFactor,
    _coloring_scan,
    _validate_coloring,
    path_factor_violation,
)
from interval6.coloring import color_from_factor
from interval6.errors import InvariantError
from interval6.generators import eight_triples_graph, random_34_biregular, subset_graph_6, two_eight_triples
from interval6.pathfactor import (
    QDecomposition,
    build_q,
    p7_factor_via_24,
    search_full_3regular,
    search_proper_path_factor,
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
            res = search_proper_path_factor(g, max_nodes=20_000, lengths=lengths)
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


def test_valid_factors_match_reference(factored):
    for g, factor in factored:
        assert same(path_factor_violation, reference_path_factor_violation, g, factor) == ("ok", None)
        assert same(build_q, reference_build_q, g, factor)[0] == "ok"
        col = color_from_factor(g, factor)
        assert same(_coloring_scan, reference_coloring_scan, g, col) == ("ok", (True, None))


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
    rng = random.Random(5)
    kinds = set()
    for g, _ in factored:
        for density in (0.0, 0.2, 0.4, 0.6, 0.9, 1.0):
            eids = tuple(e for e in range(g.edge_count) if rng.random() < density)
            fake = PathFactor((Path((), eids),))
            kind, what = same(build_q, reference_build_q, g, fake)
            kinds.add(what.split(" ")[1] if kind == "InvariantError" else kind)
    assert {"ok", "graph", "component", "path"} <= kinds


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
