"""Path factors: analysis of a given factor and search for new ones.

Two halves live here. The first half dissects a factor of a
(3,4)-biregular graph: the leftover subgraph (everything off the factor),
the link graph over the factor's interior X-vertices, and the proper
2-coloring of that link graph. Those three objects are exactly what the
coloring construction consumes, and each comes from one function over
node ids (X-vertex i is node i, Y-vertex j is node x_count + j).
`build_q` splits the off-factor edges into cycles and paths of node and
edge ids through `bigraph._split`, the one walk for every edge set of
degrees 1 and 2. `build_pgraph` builds the link graph over X ids and
checks its degrees as array counts, and `two_color_pgraph` colors it
breadth first into a side array. `coloring.color_from_factor` calls the
three in turn. None of them builds a `Path`, and `Vertex` objects
appear only in error messages.

The second half finds factors. `p7_factor_via_24` is the constructive
route: peel off a set of Y-vertices whose neighborhoods exactly cover X,
split the remaining (2,4)-biregular graph into length-2 paths via
Eulerian parity classes, and stitch pairs of those paths through the
peeled vertices into length-6 paths. It runs once, with no retries: a
parity class of an Euler circuit gives every degree-2 vertex degree 1,
so the two paths a peeled vertex joins are always distinct.

Both half factors come from one linear kernel, `p3_half_factor`:
Hierholzer's walk over every component of a (2,4)-biregular edge list,
stepping from Y-vertex to Y-vertex (an X-vertex has degree 2, so the
edge it is left by is forced) with one shared used/pointer array,
returning each Y-centre's two edges. `p7_factor_via_24` peels the cover
in one pass over `g.edges` and builds `Path` objects, over the shared
`Vertex` tables, only for the factor it returns.

`search_proper_path_factor` and `search_full_3regular` are bounded
exhaustive searches used when no structure is known. Neither recurses:
`search_full_3regular` (like `find_y_cover`) runs the explicit-stack
exact cover `_exact_cover`, and `search_proper_path_factor` gives each
Y-vertex 2 of its 4 edges on one explicit stack over integer node ids,
counting one node per visit to a Y depth and stopping at the node past
its cap. `oracle_path_factor` is one uncapped call of it.
`pivot_path_factor`, which grows whole paths from pivot X-vertices, is
the structurally different reference the two are cross-checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

from .bigraph import (
    BipartiteMultigraph,
    Vertex,
    _split,
    biregular34_k,
    node_vertex,
    vertex_tables,
)
from .checker import (
    FACTOR_LENGTHS,
    Path,
    PathFactor,
    SubgraphCertificate,
    _length_set,
    finish_factor,
    finish_subgraph,
    node_path,
    path_factor_violation,
)
from .errors import BudgetExceeded, InvariantError


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "none" | "unknown"
    factor: PathFactor | None
    nodes: int


def _node_cap(max_nodes: int | None) -> float:
    """`max_nodes` as a bound on a search's node count, None for no bound; negative is a ValueError."""
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be nonnegative, got {max_nodes}")
    return math.inf if max_nodes is None else max_nodes


def _factor_or_raise(g: BipartiteMultigraph, factor: PathFactor) -> None:
    why = path_factor_violation(g, factor)
    if why is not None:
        raise ValueError(f"not a proper path factor: {why}")


_FLIP = bytes([1, 0]) + bytes(254)  # bytes.translate table: flag 0 <-> 1


def build_q(
    g: BipartiteMultigraph, factor: PathFactor
) -> tuple[bytearray, list[list[int]], list[tuple[list[int], list[int]]]]:
    """The leftover subgraph Q of a factor, split on node ids: (on_factor, cycles, paths).

    Checks the graph and the factor first. `on_factor` flags the factor's
    edge ids; the other edges go through `bigraph._split`. Against a
    proper factor every Y-vertex keeps degree 2 and every X-vertex degree
    1 (factor-interior) or 2 (factor-endpoint), so Q splits into even
    cycles, each its edge ids, and paths between factor-interior
    X-vertices, each its (node ids, edge ids); a path with a Y-end raises
    InvariantError. Components come in order of their smallest vertex; a
    cycle is walked from its smallest vertex along its lower edge id, and
    a path from its smaller end.
    """
    biregular34_k(g)
    _factor_or_raise(g, factor)
    n, edges = g.x_count, g.edges
    on_factor = bytearray(len(edges))
    for p in factor.paths:
        for eid in p.edges:
            on_factor[eid] = 1
    off = list(compress(range(len(edges)), on_factor.translate(_FLIP)))
    cycles, paths = _split(n, n + g.y_count, edges, off)
    for nodes, _ in paths:
        if nodes[-1] >= n:  # nodes[0] is the smaller end
            ones = [node_vertex(n, nodes[0]), node_vertex(n, nodes[-1])]
            raise InvariantError(f"leftover path must join two X-vertices, got {ones}")
    return on_factor, cycles, paths


def build_pgraph(
    x_count: int, factor: PathFactor, q_paths: list[tuple[list[int], list[int]]]
) -> tuple[list[int], list[tuple[int, int, str]]]:
    """The link graph P of `factor` as (sorted interior X ids, (u, v, kind) edges).

    Its vertices are the X-vertices of degree 2 on the factor. A kind "a"
    edge joins the two interior X-vertices of a length-6 path, a kind "b"
    edge the first and third of a length-8 path (distance 4), and a kind
    "c" edge the two ends of each leftover path in `q_paths` (as
    `build_q` gives them). Every vertex carries exactly one (c) edge and
    at most one (a)/(b) edge, so components alternate edge kinds and P is
    bipartite; InvariantError when a link edge touches a vertex that is
    not factor-interior, or a vertex's degrees break that rule.
    """
    inner: list[int] = []
    links: list[tuple[int, int, str]] = []
    for p in factor.paths:
        verts = p.vertices
        length = len(p.edges)
        ids = [verts[i].index for i in range(2, length - 1, 2)]
        inner.extend(ids)
        if length == 6:
            links.append((ids[0], ids[1], "a"))
        elif length == 8:
            links.append((ids[0], ids[2], "b"))
    for nodes, _ in q_paths:
        links.append((nodes[0], nodes[-1], "c"))
    inner.sort()

    is_inner = bytearray(x_count)
    for u in inner:
        is_inner[u] = 1
    degree = {kind: [0] * x_count for kind in "abc"}
    for u, v, kind in links:
        for end in (u, v):
            if not is_inner[end]:
                raise InvariantError(f"link edge touches non-interior vertex x{end}")
            degree[kind][end] += 1
    a, b, c = degree["a"], degree["b"], degree["c"]
    for u in inner:
        if c[u] != 1 or a[u] + b[u] > 1:
            counts = {kind: degree[kind][u] for kind in "abc"}
            raise InvariantError(f"vertex x{u} has link degrees {counts}")
    return inner, links


def two_color_pgraph(x_count: int, vertices: Sequence[int], links: Iterable[tuple[int, int, str]]) -> list[int]:
    """Proper 2-coloring of a link graph as a side per X id: 1 for A, 2 for B, 0 off the graph.

    Breadth first from each uncolored vertex in `vertices` order, which
    gets A; a bipartite component has exactly one such coloring. A link
    end outside `vertices` raises KeyError, an odd cycle InvariantError.
    """
    side = [0] * x_count
    adj: dict[int, list[int]] = {u: [] for u in vertices}
    for u, v, _ in links:
        adj[u].append(v)
        adj[v].append(u)
    for root in vertices:
        if side[root]:
            continue
        side[root] = 1
        queue = [root]
        for u in queue:  # breadth first: the queue only grows
            for w in adj[u]:
                if not side[w]:
                    side[w] = 3 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    raise InvariantError(f"odd cycle in link graph at x{u}, x{w}")
    return side


def p3_half_factor(x_count: int, y_count: int, edges: Sequence[tuple[int, int]], parity: int) -> list[tuple[int, int]]:
    """A half factor of a (2,4)-biregular graph: per Y-vertex, its two edge ids, lower X-end first.

    `edges` lists the graph's (x, y) pairs by edge id, and the half factor
    is parity class `parity` (0 or 1) of per-component Euler circuits.
    The graph is bipartite, so each circuit has even length and every
    visit to a vertex enters at one parity and leaves at the other: a
    class gives every X-vertex degree 1 and every Y-vertex degree 2, i.e.
    length-2 paths centred on the Y-vertices, with distinct ends, and the
    two classes partition the edges.

    Each component's Euler circuit (Hierholzer's walk) starts at its
    lowest X-vertex along that vertex's lower edge id, so the reversed
    circuits laid end to end keep each circuit's parity classes. The walk
    steps from Y-vertex to Y-vertex: a Y-vertex leaves by its lowest
    unused edge, and the X-vertex that edge enters has degree 2, so the
    edge it is left by is forced. Edges go into `rev` in reverse walk
    order: a stuck Y-vertex gives up the outgoing and then the incoming
    edge of the X-vertex before it, an edge back into the start vertex is
    given up at once, and the start's first edge comes last.
    """
    if parity not in (0, 1):
        raise ValueError("parity is 0 or 1")
    n = x_count
    first = [-1] * n  # per X-vertex: its lower edge id
    other = [0] * len(edges)  # per edge: the other edge at its X-vertex
    y_of = [0] * len(edges)
    at: list[list[int]] = [[] for _ in range(y_count)]  # per Y-vertex: its edge ids
    x_deg = [0] * n
    for eid, (x, y) in enumerate(edges):
        y_of[eid] = y
        at[y].append(eid)
        x_deg[x] += 1
        f = first[x]
        if f < 0:
            first[x] = eid
        else:
            other[f] = eid
            other[eid] = f
    if x_deg.count(2) != n or any(len(a) != 4 for a in at):
        raise ValueError("graph is not (2,4)-biregular")
    used = bytearray(len(edges))
    ptr = [0] * y_count
    rev: list[int] = []
    for e0 in first:
        if used[e0]:  # already on a walked component
            continue
        used[e0] = 1
        y = y_of[e0]
        steps: list[int] = []  # per X-vertex on the open walk: its incoming, then its outgoing edge
        while True:
            a = at[y]
            p = ptr[y]
            while p < 4 and used[a[p]]:
                p += 1
            if p < 4:
                e = a[p]
                ptr[y] = p + 1
                used[e] = 1
                f = other[e]
                if used[f]:  # back at the start vertex
                    rev.append(e)
                    continue
                used[f] = 1
                steps.append(e)
                steps.append(f)
                y = y_of[f]
            elif steps:
                rev.append(steps.pop())
                e = steps.pop()
                rev.append(e)
                y = y_of[e]
            else:  # the first Y-vertex is stuck
                rev.append(e0)
                break
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


def _exact_cover(
    universe: int,
    candidates: list[tuple[int, frozenset[int]]],
    max_nodes: int | None = None,
    primary: int | None = None,
) -> tuple[int, ...] | None:
    """Subfamily of pairwise-disjoint sets covering 0..primary-1 exactly.

    Knuth's Algorithm X (*Dancing Links*, arXiv cs/0011047) with an
    explicit stack instead of recursion, and with live flags plus
    per-element live counts in place of the linked lists. Elements below
    `primary` (default: the whole universe) are primary columns, covered
    exactly once; the rest, up to `universe`, are Knuth's secondary
    columns, covered at most once. A candidate is live while all its
    elements are uncovered; choosing one kills every live candidate that
    meets it and decrements their elements' counts, and backtracking
    revives them. Each node branches on the uncovered primary element
    with the fewest live candidates (ties: lowest element) and tries
    those candidates in ascending id; a secondary element left with no
    live candidate is no dead end. Every node, the root and dead ends
    included, counts against `max_nodes` (negative: ValueError); the node
    past the cap raises BudgetExceeded. Returns the chosen ids sorted, or None.

    The live counts are one byte per element, and a covered element holds
    `done`, one above the largest starting count. A node finds its
    element with `live_count.find(c, 0, primary)` for c = 0, 1, ... below
    `done`: the first hit is the lowest primary element with the fewest
    live candidates, and each probe is one C-level byte search, so a node
    costs at most max multiplicity + 1 such scans plus its own updates.
    Hence the precondition: no element lies in 255 or more candidates
    (ValueError otherwise); the callers have at most 4.
    """
    cap = _node_cap(max_nodes)
    if primary is None:
        primary = universe
    ordered = sorted(candidates, key=lambda c: c[0])
    rows = [s for _, s in ordered]
    rows_of: list[list[int]] = [[] for _ in range(universe)]
    for r, s in enumerate(rows):
        for el in s:
            rows_of[el].append(r)
    live = [True] * len(rows)
    done = max(map(len, rows_of), default=0) + 1  # count given to a covered element
    if done > 255:
        raise ValueError(f"an element lies in {done - 1} candidates; at most 254 fit a byte count")
    live_count = bytearray(map(len, rows_of))
    stack: list[list] = []  # open nodes: [options, next option, rows killed by the current one]
    nodes = 0
    while True:
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(f"exact cover stopped after {nodes} nodes")
        for least in range(done):
            el = live_count.find(least, 0, primary)
            if el >= 0:
                break
        else:
            return tuple(sorted(ordered[frame[0][frame[1] - 1]][0] for frame in stack))
        if least:  # else a dead end: some element has no live candidate
            stack.append([[r for r in rows_of[el] if live[r]], 0, None])
        # back up to the deepest node with an untried option and take it
        while stack:
            frame = stack[-1]
            options, pos, killed = frame
            if killed is not None:
                row = rows[options[pos - 1]]
                for el in row:
                    live_count[el] = 0
                for r in killed:
                    live[r] = True
                    for el in rows[r]:
                        live_count[el] += 1
            if pos == len(options):
                stack.pop()
                continue
            row = rows[options[pos]]
            killed = []
            for el in row:
                for r in rows_of[el]:
                    if live[r]:
                        live[r] = False
                        killed.append(r)
                        for el2 in rows[r]:
                            live_count[el2] -= 1
            for el in row:
                live_count[el] = done
            frame[1] = pos + 1
            frame[2] = killed
            break
        else:
            return None


def find_y_cover(g: BipartiteMultigraph, max_nodes: int | None = None) -> tuple[int, ...] | None:
    """k Y-vertices whose neighborhoods exactly cover X, or None.

    Only Y-vertices with four distinct neighbors qualify (a parallel edge
    would leave its X-vertex short after deletion). Deleting such a set
    leaves every X-vertex with exactly 2 edges, i.e. a (2,4)-biregular
    graph. `max_nodes` caps the exact-cover search nodes (negative: ValueError);
    exceeding it raises BudgetExceeded, so None always means no cover exists.
    """
    biregular34_k(g)
    at_y: list[list[int]] = [[] for _ in range(g.y_count)]
    for x, y in g.edges:
        at_y[y].append(x)
    cands = [(j, nbrs) for j, nbrs in enumerate(map(frozenset, at_y)) if len(nbrs) == 4]
    return _exact_cover(g.x_count, cands, max_nodes=max_nodes)


def p7_factor_via_24(g: BipartiteMultigraph, max_nodes: int | None = None) -> PathFactor | None:
    """All-lengths-6 factor via Y-cover peeling, or None when no cover exists.

    Pipeline: find a Y-cover, take a half factor T_1..T_2k of the peeled
    (2,4)-biregular graph, contract each T_i to a point against the cover
    vertices (every X-vertex keeps exactly one edge into the cover), take
    a half factor of that contracted (2,4)-biregular graph, and expand
    each of its length-2 paths back into a length-6 path T_i - u - T_j.
    Every contracted point has degree 1 in that half factor, so T_i and
    T_j always differ and one pass suffices. `max_nodes` is passed to
    find_y_cover, whose BudgetExceeded propagates (as do its ValueErrors
    on a graph that is not (3,4)-biregular and on a negative cap).
    """
    cover = find_y_cover(g, max_nodes=max_nodes)
    if cover is None:
        return None
    n, edges = g.x_count, g.edges
    cover = sorted(cover)
    on_cover = bytearray(g.y_count)
    for j in cover:
        on_cover[j] = 1
    # per Y-vertex: its index in `cover`, or else in the peeled graph
    seen = [0, 0]
    slot = []
    for c in on_cover:
        slot.append(seen[c])
        seen[c] += 1
    rest = seen[0]

    # one pass over g: the peeled graph's edges (and their ids in g), and
    # every X-vertex's edge into the cover
    peeled: list[tuple[int, int]] = []
    peeled_ids: list[int] = []
    contact = [0] * n
    for eid, (x, y) in enumerate(edges):
        if on_cover[y]:
            contact[x] = eid
        else:
            peeled.append((x, slot[y]))
            peeled_ids.append(eid)
    # p3_half_factor checks the peeled graph's degrees, so each X-vertex has
    # exactly one edge into the cover

    # per X-vertex x: the index of the half-factor path T that x ends, and
    # T in g's vertices and edge ids, oriented to end at x
    xs, ys = vertex_tables(n, g.y_count)
    t_of_x = [0] * n
    arm: list[tuple[tuple[Vertex, ...], tuple[int, ...]]] = [((), ())] * n
    for ti, (ea, eb) in enumerate(p3_half_factor(n, rest, peeled, 0)):
        ea, eb = peeled_ids[ea], peeled_ids[eb]
        (a, y), b = edges[ea], edges[eb][0]
        t_of_x[a] = t_of_x[b] = ti
        va, vy, vb = xs[a], ys[y], xs[b]
        arm[a] = ((vb, vy, va), (eb, ea))
        arm[b] = ((va, vy, vb), (ea, eb))

    # contracted edge id == X-vertex index of g
    contracted = [(t_of_x[x], slot[edges[eid][1]]) for x, eid in enumerate(contact)]
    paths = []
    for cj, (x_i, x_j) in enumerate(p3_half_factor(rest, len(cover), contracted, 0)):
        (vi, ei), (vj, ej) = arm[x_i], arm[x_j]
        paths.append(Path(vi + (ys[cover[cj]],) + vj[::-1], ei + (contact[x_i], contact[x_j]) + ej[::-1]))
    return finish_factor(g, PathFactor(tuple(paths)), "via24 construction")


def search_proper_path_factor(
    g: BipartiteMultigraph,
    max_nodes: int | None = 10_000_000,
    lengths: tuple[int, ...] = FACTOR_LENGTHS,
) -> SearchResult:
    """Bounded exhaustive proper path factor search by per-Y edge pairs.

    In any proper path factor every Y-vertex is interior, hence keeps
    exactly 2 of its 4 edges. The search assigns those pairs Y by Y, in
    `combinations` order on an explicit stack (no recursion), each pair
    as (e1, e2, x1, x2) with its X-ends (none sharing one). Each X-vertex
    at a path end holds the path's other end and its length (an uncovered
    one is its own end, at length 0), so a pair that would make an
    X-vertex's third edge, close a cycle or merge a path longer than the
    longest allowed is skipped at once.

    An X-vertex is final once its highest-index Y-neighbour holds a
    pair: its path can no longer grow there. A pair that leaves a final
    X-vertex uncovered, or a path of disallowed length between two final
    ends, is undone before the search goes deeper, so every complete
    assignment it reaches is a factor. The first one is returned, its
    paths walked by `bigraph._split`, each from its smaller X-end, in
    the order of those ends.

    A factor of a graph with |X| = 4k has k paths holding all 6k edges,
    so c_l paths of length l give c_8 = 2·c_2 + c_4 and
    3·c_2 + 2·c_4 + c_6 = k. When no such counts use only allowed
    lengths (for k >= 1: without 6, the set needs 8 and a solution of
    3·c_2 + 2·c_4 = k), the answer is "none" at 0 nodes.

    Counts one node per visit to a search depth: a Y index, or the leaf
    past the last one (so 3k Y-vertices take at least 3k + 1 nodes to a
    factor). The node past `max_nodes` (None: no cap; negative: ValueError)
    ends the search as "unknown", with `nodes == max_nodes + 1`.
    """
    cap = _node_cap(max_nodes)
    k = biregular34_k(g)
    allowed = _length_set(lengths)
    if k and 6 not in allowed and not (8 in allowed and any(
            (k - 3 * c2) % 2 == 0 and (k == 3 * c2 or 4 in allowed)
            for c2 in range(k // 3 + 1 if 2 in allowed else 1))):
        return SearchResult("none", None, 0)  # no k allowed lengths sum to 6k
    longest = max(allowed)

    n, ny = g.x_count, g.y_count
    ex = [0] * g.edge_count  # per edge: its X-end
    y_eids: list[list[int]] = [[] for _ in range(ny)]  # per Y-vertex: its edges, in edge-id order
    last = [-1] * n  # per X-vertex: the Y-neighbour that makes it final
    for eid, (x, y) in enumerate(g.edges):
        ex[eid] = x
        y_eids[y].append(eid)
        if y > last[x]:
            last[x] = y
    # per Y-vertex: its edge pairs (e1, e2, x1, x2) with two distinct X-ends
    pairs = [[(e1, e2, ex[e1], ex[e2]) for e1, e2 in combinations(a, 2) if ex[e1] != ex[e2]] for a in y_eids]
    final_at: list[list[int]] = [[] for _ in range(ny)]
    for x, j in enumerate(last):
        final_at[j].append(x)
    xdeg = [0] * n
    end = list(range(n))  # at a path end: the other end
    plen = [0] * n  # at a path end: the path's length
    tried = [0] * ny  # per depth j: one past the pair placed at Y-vertex j, 0 while none is
    nodes = 0
    j = 0
    while j >= 0:
        nodes += 1
        if nodes > cap:
            return SearchResult("unknown", None, nodes)
        if j == ny:
            chosen = sorted(e for pj, t in zip(pairs, tried) for e in pj[t - 1][:2])
            walks = sorted(_split(n, n + ny, g.edges, chosen)[1])  # by each path's smaller X-end
            factor = PathFactor(tuple(node_path(n, *w) for w in walks))
            return SearchResult("found", finish_factor(g, factor, "factor search"), nodes)
        pj = pairs[j]
        t = tried[j]
        if t:  # undo the previous try: x2 and then x1 is a path end again
            _, _, x1, x2 = pj[t - 1]
            d = xdeg[x2] = xdeg[x2] - 1
            a = end[x2] if d else x2  # its old partner, itself if uncovered
            end[a], plen[a] = x2, plen[x2] if d else 0
            d = xdeg[x1] = xdeg[x1] - 1
            a = end[x1] if d else x1
            end[a], plen[a] = x1, plen[x1] if d else 0
        count = len(pj)
        while t < count:
            _, _, x1, x2 = pj[t]
            t += 1
            if xdeg[x1] >= 2 or xdeg[x2] >= 2 or end[x1] == x2:
                continue
            a, b, merged = end[x1], end[x2], plen[x1] + plen[x2] + 2
            if merged > longest:
                continue
            xdeg[x1] += 1
            xdeg[x2] += 1
            end[a], end[b], plen[a], plen[b] = b, a, merged, merged
            break
        else:
            tried[j] = 0
            j -= 1
            continue
        tried[j] = t
        if last[a] <= j and last[b] <= j and merged not in allowed:
            continue  # the merged path closed at a disallowed length
        for x in final_at[j]:
            if not xdeg[x] or xdeg[x] == 1 and last[end[x]] <= j and plen[x] not in allowed:
                break  # a final X-vertex is uncovered, or closes a path of disallowed length
        else:
            j += 1
    return SearchResult("none", None, nodes)


_PIVOT, _RIGHT, _LEFT = "pivot", "right", "left"  # search steps


def pivot_path_factor(
    g: BipartiteMultigraph,
    max_nodes: int | None = 10_000_000,
    lengths: tuple[int, ...] = FACTOR_LENGTHS,
) -> SearchResult:
    """Exhaustive factor search by growing paths from pivot vertices.

    The structurally different reference for `search_proper_path_factor`
    (which `hunt` uses to confirm a "none"): it shares no search code
    with it, and takes the same arguments and returns the
    same `SearchResult` contract, with its own node count.

    Repeatedly picks the lowest uncovered X-vertex as the pivot of a new
    path and enumerates every path through it: first a right arm, and at
    each X-vertex the right arm reaches, every left arm from the pivot
    (so the pivot may end up interior). A path closes only at an
    X-vertex with a total length in `lengths`; once closed, the search
    goes on to the next pivot if every uncovered Y-vertex still has two
    distinct uncovered X-neighbors and every uncovered X-vertex an
    uncovered Y-neighbor. Arms leave a vertex in edge-id order, and a
    left arm's first edge must not have a lower id than the right arm's,
    so each pair of arms is tried once.

    The search runs as one loop over an explicit stack (no recursion, so
    its depth is not bounded by Python's), over integer node ids (X-vertex
    i is node i, Y-vertex j is node x_count + j) read from
    `g.node_adj`; `Path` objects are built only for the returned factor.
    It counts one node per search step: choosing a pivot, and entering a
    right-arm or left-arm end. `max_nodes` (negative: ValueError) bounds
    that count; the node past it ends the search with status "unknown" (and
    `nodes == max_nodes + 1`), which is distinct from the definitive "none".
    """
    cap = _node_cap(max_nodes)
    biregular34_k(g)
    allowed = _length_set(lengths)
    longest = max(allowed)

    n = g.x_count
    adj = g.node_adj
    cov = [False] * len(adj)
    is_cov = cov.__getitem__
    distinct = [tuple({w for _, w in a}) for a in adj]

    def feasible() -> bool:
        # Every uncovered Y-vertex keeps two distinct uncovered X-neighbors
        # and every uncovered X-vertex an uncovered Y-neighbor. That held
        # when the previous path closed (and holds for the empty cover of
        # a (3,4)-biregular graph), and only the new path's vertices were
        # covered since, so only their neighbors can have lost it.
        for arm in (rv, lv):
            for v in arm:
                for w in distinct[v]:
                    if not cov[w]:
                        d = distinct[w]
                        if w < n:
                            if all(map(is_cov, d)):
                                return False
                        elif len(d) - sum(map(is_cov, d)) < 2:
                            return False
        return True

    # Open paths, closed ones below the one being grown, each as its right
    # arm (pivot first) and left arm (pivot excluded) with their edge ids.
    paths: list[tuple[list[int], list[int], list[int], list[int]]] = []
    rv = re_ = lv = le = None  # the arms of paths[-1]
    # Open arm ends: (left arm?, node, iterator over its untried edges).
    frames: list[tuple[bool, int, Iterator[tuple[int, int]]]] = []
    nodes = 0
    step = _PIVOT
    while True:
        nodes += 1
        if nodes > cap:
            return SearchResult("unknown", None, nodes)
        if step is _PIVOT:
            pivot = paths[-1][0][0] + 1 if paths else 0  # every X-vertex below it is covered
            while pivot < n and cov[pivot]:
                pivot += 1
            if pivot < n:
                cov[pivot] = True
                paths.append(([pivot], [], [], []))
                rv, re_, lv, le = paths[-1]
                step, end = _RIGHT, pivot
                continue
            if all(cov[n:]):
                factor = PathFactor(tuple(node_path(n, lv[::-1] + rv, le[::-1] + re_) for rv, re_, lv, le in paths))
                return SearchResult("found", finish_factor(g, factor, "pivot search"), nodes)
        elif step is _RIGHT:
            frames.append((False, end, iter(adj[end] if len(re_) < longest else ())))
            if end < n and re_:
                step, end = _LEFT, rv[0]
                continue
        else:
            total = len(le) + len(re_)
            frames.append((True, end, iter(adj[end] if total < longest else ())))
            if end < n and total in allowed and feasible():
                step = _PIVOT
                continue
        # back up to the deepest arm end with an untried edge and take it
        while frames:
            left, end, edges = frames[-1]
            if left:
                for eid, w in edges:
                    # from the pivot, no edge below the right arm's first: each arm pair once
                    if not cov[w] and (le or eid >= re_[0]):
                        cov[w] = True
                        lv.append(w)
                        le.append(eid)
                        step, end = _LEFT, w
                        break
                else:
                    frames.pop()
                    if le:
                        le.pop()
                        lv.pop()
                        cov[end] = False
                    continue
                break
            for eid, w in edges:
                if not cov[w]:
                    cov[w] = True
                    rv.append(w)
                    re_.append(eid)
                    step, end = _RIGHT, w
                    break
            else:
                frames.pop()
                cov[end] = False
                rv.pop()
                if re_:
                    re_.pop()
                else:  # the pivot's own end: no path through this pivot is left
                    paths.pop()
                    if paths:
                        rv, re_, lv, le = paths[-1]
                continue
            break
        else:
            return SearchResult("none", None, nodes)


def search_full_3regular(
    g: BipartiteMultigraph, max_nodes: int | None = None
) -> "SubgraphCertificate | None":
    """Subgraph that is 3-regular on Y and all-or-nothing on X, or None.

    An X-vertex has degree exactly 3, so it either contributes all of its
    edges or none; the subgraph is determined by the deleted X-set, and
    feasibility means every Y-vertex has exactly one edge (counting
    multiplicity) into that set. That is an exact cover of Y by
    X-neighborhoods, searched by the same iterative engine as
    find_y_cover (`_exact_cover`): branch on the Y-vertex with the fewest
    live X-candidates (ties: lowest index), try candidates in ascending
    X index. `max_nodes` caps the search nodes, root and dead ends
    included; exceeding it raises BudgetExceeded, so None always means
    no such subgraph exists. A negative cap is a ValueError.
    """
    biregular34_k(g)
    cands = []
    for i in range(g.x_count):
        nbrs = frozenset(j for _, j in g.x_adj[i])
        if len(nbrs) == 3:
            cands.append((i, nbrs))
    chosen = _exact_cover(g.y_count, cands, max_nodes=max_nodes)
    if chosen is None:
        return None
    return finish_subgraph(g, chosen, "full 3-regular search")
