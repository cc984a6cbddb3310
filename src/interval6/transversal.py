"""Path factors from a full 3-regular subgraph via triple transversals.

Given a (3,4)-biregular graph with a full 3-regular subgraph, the
X-vertices outside the subgraph see Y partitioned into triples, and a
proper 3-edge-coloring of the subgraph turns colors 1 and 2 into a
2-regular "link" structure F on Y: each remaining X-vertex contributes
one F-edge joining the far ends of its color-1 and color-2 edges. F is
stored directed, color-1 end to color-2 end, which orients every cycle
at once: each Y-vertex has one edge of each color, so in- and
out-degrees are 1 and F is a permutation of Y. `FGraph` keeps it as
two per-vertex arrays, the edge leaving each vertex (`out`) and the
vertex before it (`pred`); loops, F-adjacency and the cycles are read
off them.

Picking one vertex per triple (a transversal) that is independent in F,
or spread along its cycles, or a per-component mix of the two, yields a
proper path factor. Color 1 doubles as the perfect matching M used to
cap paths in both constructions.

An independent transversal is an exact cover, found by the engine the
Y-cover and full-3-regular searches share (`pathfactor._exact_cover`):
each triple is a primary column, covered by exactly one member, and
each F-edge a secondary column, with at most one end chosen. The spread
search keeps its own explicit-stack loop: every window of 4 consecutive
cycle vertices must hold a member, so it counts per window the vertices
chosen or in open triples and undoes a choice that leaves one at 0.

Before searching for an independent transversal, `_hall_refutes`
checks Hall's marriage condition (P. Hall, 1935) between the triples
and the F-cycles that are cliques of F* (F plus a triangle on each
triple). An independent transversal puts at most one member on each,
so the triples whose members all lie on such cycles need distinct
ones; when no matching provides that, none exists. That refutes the
shipped obstructions in polynomial time, where the search alone would
exhaust a tree exponential in the number of triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple

from .bigraph import BipartiteMultigraph, Vertex, components, node_vertex, vertex_tables
from .checker import Path, PathFactor, SubgraphCertificate, check_full_3regular, finish_factor
from .errors import InvariantError
from .pathfactor import _exact_cover


class FEdge(NamedTuple):
    u: int  # Y-vertex at the color-1 end
    v: int  # Y-vertex at the color-2 end
    mid_x: int | None = None  # X-vertex between them; None in synthetic instances
    edge1: int | None = None  # color-1 edge id in the underlying graph
    edge2: int | None = None  # color-2 edge id


@dataclass(frozen=True)
class FGraph:
    """2-regular directed multigraph on Y-vertices 0..n-1 (loops allowed).

    Every vertex has in-degree and out-degree exactly 1, so the edge set
    is a disjoint union of directed cycles (a loop counts as a cycle of
    length 1, a doubled edge as one of length 2).
    """

    n: int
    edges: tuple[FEdge, ...]

    def __post_init__(self) -> None:
        indeg = [0] * self.n
        outdeg = [0] * self.n
        for e in self.edges:
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge {e} outside 0..{self.n - 1}")
            outdeg[e.u] += 1
            indeg[e.v] += 1
        bad = next((w for w in range(self.n) if indeg[w] != 1 or outdeg[w] != 1), None)
        if bad is not None:
            raise ValueError(f"vertex {bad} has in/out degree {indeg[bad]}/{outdeg[bad]}, want 1/1")

    @cached_property
    def out(self) -> tuple[FEdge, ...]:
        """The edge leaving each vertex; y carries a loop when `out[y].v == y`."""
        return tuple(sorted(self.edges, key=lambda e: e.u))  # each vertex is one edge's tail

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """The color-1 end of the edge entering each vertex.

        a and b are F-adjacent when `out[a].v == b` or `pred[a] == b`.
        """
        pred = [0] * self.n
        for e in self.edges:
            pred[e.v] = e.u
        return tuple(pred)

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Vertex cycles in forward order along `out`, each starting at its smallest vertex."""
        out = self.out
        seen = bytearray(self.n)
        cycles = []
        for start in range(self.n):
            cyc = []
            u = start
            while not seen[u]:
                seen[u] = 1
                cyc.append(u)
                u = out[u].v
            if cyc:
                cycles.append(tuple(cyc))
        return tuple(cycles)

    @cached_property
    def cycle_index(self) -> tuple[int, ...]:
        """Position in `cycles` of the cycle through each vertex."""
        idx = [0] * self.n
        for c, cyc in enumerate(self.cycles):
            for y in cyc:
                idx[y] = c
        return tuple(idx)


@dataclass(frozen=True)
class TripleSystem:
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for t in self.triples:
            if len(t) != 3 or list(t) != sorted(t) or len(set(t)) != 3:
                raise ValueError(f"triple {t} is not three ascending vertices")
            if seen & set(t):
                raise ValueError(f"triple {t} overlaps another")
            seen |= set(t)

    @cached_property
    def triple_of(self) -> dict[int, int]:
        return {y: i for i, t in enumerate(self.triples) for y in t}


class TransversalPart(NamedTuple):
    indices: tuple[int, ...]  # triple indices of one F* component
    case: str  # "independent" | "spread"


@dataclass(frozen=True)
class MixedTransversal:
    members: tuple[int, ...]  # chosen Y-vertex per triple, by triple index
    parts: tuple[TransversalPart, ...]


def _check_partition(f: FGraph, ts: TripleSystem) -> None:
    flat = {y for t in ts.triples for y in t}
    if flat != set(range(f.n)):
        raise ValueError("triples do not partition the F-graph vertices")


def fstar_components(f: FGraph, ts: TripleSystem) -> tuple[tuple[int, ...], ...]:
    """Components of F plus a triangle on each triple, as sorted vertex tuples."""
    _check_partition(f, ts)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(f.n)]
    links = [(e.u, e.v) for e in f.edges] + [(t[0], t[i]) for t in ts.triples for i in (1, 2)]
    for a, b in links:
        adj[a].append((-1, b))  # components ignores the edge id
        adj[b].append((-1, a))
    return tuple(map(tuple, components(adj)))


def _gaps(cyc: tuple[int, ...], members: set[int]) -> list[tuple[int, int]] | None:
    """(start position, length) of each gap of `cyc`, or None if no member lies on it.

    A gap is the run of non-members after a member, up to the next member
    around the cycle; it may be empty, and positions past the end wrap.
    """
    pos = [i for i, y in enumerate(cyc) if y in members]
    if not pos:
        return None
    return [(a + 1, b - a - 1) for a, b in zip(pos, pos[1:] + [pos[0] + len(cyc)])]


def _spread_violation(cycles: Iterable[tuple[int, ...]], members: set[int]) -> str | None:
    """Why `members` is not spread along `cycles`, or None if it is.

    Spread means every cycle has a member and no gap is longer than 3.
    """
    for cyc in cycles:
        gaps = _gaps(cyc, members)
        if gaps is None:
            return "misses an F-cycle"
        if any(length > 3 for _, length in gaps):
            return "leaves a gap over 3"
    return None


def is_spread(f: FGraph, members: Iterable[int]) -> bool:
    """True when every F-cycle meets `members` with gaps of at most 3.

    A gap is a maximal run of consecutive non-members along the cycle;
    runs are the same vertex sets in either direction.
    """
    return _spread_violation(f.cycles, set(members)) is None


def _cycles_through(f: FGraph, ts: TripleSystem, idxs: Iterable[int]) -> list[int]:
    """Ascending indices in `f.cycles` of the cycles through the given triples."""
    return sorted({f.cycle_index[y] for i in idxs for y in ts.triples[i]})


def _hall_refutes(f: FGraph, ts: TripleSystem, domains: list[list[int]]) -> bool:
    """True when the triples with unlooped members `domains` have no
    independent transversal, by Hall's condition on cliques of F*.

    The cliques are the F-cycles through the members whose vertices are
    pairwise F-adjacent or share a triple: every 2- and 3-cycle, and
    4-cycles like those of `independent_obstruction`. An independent
    transversal puts at most one member on each, so the triples whose
    members all lie on such cycles need distinct cycles, each holding a
    member of theirs. When a maximum matching from those triples to the
    cycles leaves one out, no independent transversal exists. (Other
    cycles add nothing: split into one 2-clique per F-edge, each member
    on them could take the edge leaving it, which no other member can.)
    """
    out, pred = f.out, f.pred
    triple_of = ts.triple_of
    clique_of: dict[int, int] = {}  # member of a clique cycle -> the cycle's index in f.cycles
    for dom in domains:
        for y in dom:
            c = f.cycle_index[y]
            cyc = f.cycles[c]
            # a vertex has at most 2 F-neighbors and 2 triple mates, so no clique exceeds 5
            if y not in clique_of and len(cyc) <= 5 and all(
                out[a].v == b or pred[a] == b or triple_of[a] == triple_of[b] for a, b in combinations(cyc, 2)
            ):
                for w in cyc:
                    clique_of[w] = c
    rem = {
        s: [(q, q) for q in dict.fromkeys(clique_of[y] for y in dom)]
        for s, dom in enumerate(domains)
        if all(y in clique_of for y in dom)
    }
    return len(_kuhn_round(list(rem), rem)) < len(rem)


def _independent_for(f: FGraph, ts: TripleSystem, idxs: tuple[int, ...]) -> dict[int, int] | None:
    """Complete search for an independent transversal of the given
    triples, which make up whole F* components.

    A vertex carrying a loop can never be chosen: its loop makes it
    adjacent to itself. That convention extends the construction to
    multigraph-derived instances, where loops arise from parallel edges.

    The search runs only when `_hall_refutes` cannot rule the triples
    out: those whose members all lie on F-cycles that are cliques of F*
    need distinct such cycles, since an independent transversal holds
    at most one member per clique. The
    check is polynomial and never rejects a solvable instance, so the
    search below returns the same first solution with or without it,
    while the shipped obstructions, whose refutation by search grows
    exponentially with the number of triples, are answered at once.

    The search is one `_exact_cover` call on ids local to the triples,
    so a component costs time in its own size, not in |F|. The s-th
    triple in ascending index order is primary column s. Each of its
    vertices owns a secondary column, for its F out-edge. The unlooped
    member at position p of triple s is row 3s + p, covering column s
    and the columns of its out- and in-edges, so no two chosen members
    share an F-edge. The engine branches on the open triple with the
    fewest members left (the lowest index on a tie) and tries them in
    triple order.
    """
    order = sorted(idxs)
    out, pred = f.out, f.pred
    domains = [[y for y in ts.triples[i] if out[y].v != y] for i in order]
    if _hall_refutes(f, ts, domains):
        return None
    verts = [y for i in order for y in ts.triples[i]]  # member p of triple s is verts[3s + p]
    # out-edge column of each vertex; the triples hold every F-neighbor of theirs
    col = dict(zip(verts, range(len(order), 4 * len(order))))
    rows = [
        (r, frozenset((r // 3, col[y], col[pred[y]])))
        for r, y in enumerate(verts)
        if out[y].v != y
    ]
    chosen = _exact_cover(4 * len(order), rows, primary=len(order))
    return None if chosen is None else {order[r // 3]: verts[r] for r in chosen}


def _spread_for(f: FGraph, ts: TripleSystem, idxs: tuple[int, ...]) -> dict[int, int] | None:
    """Complete backtracking for a spread transversal of whole components.

    A window is a cycle vertex with the up to 3 vertices before it (a
    cycle shorter than 4 is one window); gaps are at most 3 exactly when
    every window holds a member. Triples are taken in ascending order and
    their members in triple order, on an explicit stack (no recursion).
    Each window counts its vertices that are chosen or whose triple is
    open. Choosing y from triple i closes i, so only the windows through
    i's two other members lose one, and a choice that leaves one of them
    at 0, a window no completion can reach, is undone at once. A full
    assignment must pass `_spread_violation`.
    """
    cids = _cycles_through(f, ts, idxs)
    if len(cids) > len(idxs):
        return None  # each cycle needs a member and triples give one each
    windows_of: dict[int, list[int]] = {}  # vertex -> the windows it lies in
    live: list[int] = []  # per window: vertices chosen or with their triple open
    for c in cids:
        cyc = f.cycles[c]
        span = min(len(cyc), 4)
        for p in range(len(cyc) if span == 4 else 1):
            for t in range(span):  # negative positions wrap around the cycle
                windows_of.setdefault(cyc[p - t], []).append(len(live))
            live.append(span)
    # member y -> the windows of its triple mates, which choosing y closes
    drops = {y: [w for v in ts.triples[i] if v != y for w in windows_of[v]] for i in idxs for y in ts.triples[i]}
    chosen: dict[int, int] = {}
    order = sorted(idxs)
    tried = [0] * len(order)  # members of order[at] tried so far, per depth
    at = 0
    while at >= 0:
        if at == len(order):
            if _spread_violation((f.cycles[c] for c in cids), set(chosen.values())) is None:
                return chosen
            at -= 1
            continue
        i = order[at]
        if tried[at]:  # undo the previous try
            for w in drops[chosen.pop(i)]:
                live[w] += 1
        if tried[at] == 3:
            tried[at] = 0
            at -= 1
            continue
        y = chosen[i] = ts.triples[i][tried[at]]
        tried[at] += 1
        for w in drops[y]:
            live[w] -= 1
        for w in drops[y]:
            if not live[w]:
                break  # a window no completion can reach
        else:
            at += 1
    return None


def find_independent_transversal(f: FGraph, ts: TripleSystem) -> tuple[int, ...] | None:
    """One vertex per triple, no two joined by an F-edge; None if impossible."""
    _check_partition(f, ts)
    got = _independent_for(f, ts, tuple(range(len(ts.triples))))
    return None if got is None else tuple(got[i] for i in range(len(ts.triples)))


def find_spread_transversal(f: FGraph, ts: TripleSystem) -> tuple[int, ...] | None:
    """One vertex per triple meeting every F-cycle with gaps at most 3; None if impossible."""
    _check_partition(f, ts)
    got = _spread_for(f, ts, tuple(range(len(ts.triples))))
    return None if got is None else tuple(got[i] for i in range(len(ts.triples)))


def find_mixed_transversal(f: FGraph, ts: TripleSystem) -> MixedTransversal | None:
    """Per F*-component, an independent or a spread transversal; None if some
    component supports neither."""
    members: dict[int, int] = {}
    parts = []
    for comp in fstar_components(f, ts):
        idxs = tuple(sorted({ts.triple_of[y] for y in comp}))
        got = _independent_for(f, ts, idxs)
        case = "independent"
        if got is None:
            got = _spread_for(f, ts, idxs)
            case = "spread"
        if got is None:
            return None
        members.update(got)
        parts.append(TransversalPart(idxs, case))
    return MixedTransversal(
        tuple(members[i] for i in range(len(ts.triples))), tuple(parts)
    )


def _kuhn_round(xs: list[int], rem: dict[int, list[tuple[int, int]]]) -> dict[int, int]:
    """Matching (x -> chosen edge id) saturating `xs`, by augmenting paths.

    Each x in turn, even one whose first option is free, runs a
    depth-first search for an augmenting path over its (edge id, y)
    options in `rem` order, on an explicit stack (no recursion, so path
    length sets no depth limit). When some x has none, no matching
    saturates `xs` (its symmetric difference with a saturating one would
    hold such a path), so the partial matching is returned at once.
    """
    owner: dict[int, int] = {}  # matched y -> its x
    pair_x: dict[int, int] = {}
    for root in xs:
        banned: set[int] = set()
        stack = [[root, iter(rem[root]), None]]  # per depth: x, its untried options, the one taken
        while stack:
            for opt in stack[-1][1]:
                if opt[1] not in banned:
                    break
            else:
                stack.pop()
                continue
            stack[-1][2] = opt
            y = opt[1]
            banned.add(y)
            if y in owner:
                x = owner[y]
                stack.append([x, iter(rem[x]), None])
                continue
            for x, _, (eid, y) in stack:  # augment: each x on the path takes the option it took
                owner[y] = x
                pair_x[x] = eid
            break
        else:
            return pair_x
    return pair_x


def proper_3_edge_color(g: BipartiteMultigraph, edge_set: frozenset[int]) -> dict[int, int]:
    """Proper 3-edge-coloring (colors 1..3) of a 3-regular edge subset.

    Peels two perfect matchings by augmenting paths; the remainder must
    then be a perfect matching itself. Regularity guarantees all three
    rounds succeed, so a failure raises InvariantError.
    """
    n = g.x_count
    deg = [0] * (n + g.y_count)  # subgraph degree per node id
    rem: dict[int, list[tuple[int, int]]] = {}
    m = g.edge_count
    for eid in sorted(edge_set):
        if not (0 <= eid < m):
            raise ValueError(f"no edge {eid}")
        x, y = g.edges[eid]
        deg[x] += 1
        deg[n + y] += 1
        rem.setdefault(x, []).append((eid, y))
    if not set(deg) <= {0, 3}:
        raise ValueError("edge set does not induce a 3-regular subgraph")
    xs = sorted(rem)
    colors: dict[int, int] = {}
    for color in (1, 2):
        got = _kuhn_round(xs, rem)
        if len(got) != len(xs):
            raise InvariantError(f"color {color} matching is not perfect")
        for x, eid in got.items():
            colors[eid] = color
            rem[x] = [(e, y) for e, y in rem[x] if e != eid]
    for x in xs:
        if len(rem[x]) != 1:
            raise InvariantError("leftover color class is not a perfect matching")
        colors[rem[x][0][0]] = 3
    return colors


def _validate_3_edge_coloring(
    g: BipartiteMultigraph, edge_set: frozenset[int], colors: dict[int, int]
) -> None:
    if set(colors) != edge_set:
        raise ValueError("coloring does not cover the subgraph edge set")
    n = g.x_count
    seen = [0] * (n + g.y_count)  # colors so far at each node id, as a bitmask
    for eid, c in colors.items():
        if c not in (1, 2, 3):
            raise ValueError(f"color {c} outside 1..3")
        x, y = g.edges[eid]
        for u in (x, n + y):
            if seen[u] >> c & 1:
                raise ValueError(f"color {c} repeats at {node_vertex(n, u).label}")
            seen[u] |= 1 << c


def build_f(
    g: BipartiteMultigraph,
    cert: SubgraphCertificate,
    colors: dict[int, int] | None = None,
) -> tuple[FGraph, TripleSystem]:
    """Link graph F and the Y-triple system of a full 3-regular subgraph.

    F has one edge per subgraph X-vertex, directed from the far end of
    its color-1 edge to the far end of its color-2 edge; triples are the
    neighborhoods of the X-vertices outside the subgraph, in ascending
    X order. Parallel edges of the input surface as loops in F. A
    `colors` override (any proper 3-edge-coloring of the subgraph, for
    instance a color permutation) replaces the computed one.
    """
    if not check_full_3regular(g, cert):
        raise ValueError("certificate is not a full 3-regular subgraph")
    if colors is None:
        colors = proper_3_edge_color(g, cert.edge_set)
    else:
        _validate_3_edge_coloring(g, cert.edge_set, colors)
    by_x: dict[int, dict[int, int]] = {}
    for eid, c in colors.items():
        by_x.setdefault(g.edges[eid][0], {})[c] = eid
    fedges = []
    for x in sorted(by_x):
        e1, e2 = by_x[x][1], by_x[x][2]
        fedges.append(FEdge(g.edges[e1][1], g.edges[e2][1], x, e1, e2))
    f = FGraph(g.y_count, tuple(fedges))

    outside = [x for x in range(g.x_count) if x not in by_x]
    triples = tuple(tuple(sorted(j for _, j in g.x_adj[x])) for x in outside)
    return f, TripleSystem(triples)


def factor_from_mixed_transversal(
    g: BipartiteMultigraph,
    cert: SubgraphCertificate,
    mixed: MixedTransversal | None = None,
    colors: dict[int, int] | None = None,
) -> PathFactor | None:
    """Proper path factor from a full 3-regular subgraph, or None.

    Computes F and the triples, finds a mixed transversal (or uses the
    one supplied), then builds the factor component by component. With
    an independent part, each triple contributes the length-4 path
    through its outside X-vertex and the two unchosen triple members,
    capped by their color-1 partners; each chosen member then extends
    one of those paths by its color-2 edge and its own color-1 partner.
    With a spread part, each chosen member starts a walk along surviving
    F-edges (incoming edges of chosen members are deleted), expanded to
    length-2 steps through the F-edge middles and capped by the final
    vertex's color-1 partner, which is exactly the middle of the deleted
    edge ahead.
    """
    f, ts = build_f(g, cert, colors=colors)
    if mixed is None:
        mixed = find_mixed_transversal(f, ts)
        if mixed is None:
            return None
    else:  # a computed transversal is checked through the factor it yields
        _validate_mixed(f, ts, mixed)

    # Each Y-vertex has one edge to the X-vertices outside the subgraph:
    # to the one whose neighborhood is its triple.
    outside: list[tuple[int, int]] = [(-1, -1)] * g.y_count  # y -> (that X-vertex, edge id)
    for eid, (x, y) in enumerate(g.edges):
        if eid not in cert.edge_set:
            outside[y] = (x, eid)

    xs, ys = vertex_tables(g.x_count, g.y_count)
    paths: list[Path] = []
    for part in mixed.parts:
        chosen = {i: mixed.members[i] for i in part.indices}
        if part.case == "independent":
            paths.extend(_case_independent(f, ts, chosen, outside, xs, ys))
        else:
            paths.extend(_case_spread(f, chosen, outside, xs, ys))

    return finish_factor(g, PathFactor(tuple(paths)), "transversal construction")


def _validate_mixed(f: FGraph, ts: TripleSystem, mixed: MixedTransversal) -> None:
    k = len(ts.triples)
    if len(mixed.members) != k:
        raise ValueError("one member per triple required")
    for i, y in enumerate(mixed.members):
        if y not in ts.triples[i]:
            raise ValueError(f"member {y} is not in triple {i}")
    covered = sorted(i for part in mixed.parts for i in part.indices)
    if covered != list(range(k)):
        raise ValueError("parts do not partition the triples")
    part_of = {i: p for p, part in enumerate(mixed.parts) for i in part.indices}
    for comp in fstar_components(f, ts):
        if len({part_of[ts.triple_of[y]] for y in comp}) > 1:
            raise ValueError("parts split an F* component")
    for part in mixed.parts:
        chosen = {mixed.members[i] for i in part.indices}
        if part.case == "independent":
            if any(f.out[y].v in chosen for y in chosen):  # a loop, or an F-edge inside the part
                raise ValueError("part is not an independent transversal")
        elif part.case == "spread":
            cycles = (f.cycles[c] for c in _cycles_through(f, ts, part.indices))
            why = _spread_violation(cycles, chosen)
            if why is not None:
                raise ValueError(f"part {why}, not spread")
        else:
            raise ValueError(f"unknown case {part.case!r}")


def _case_independent(
    f: FGraph, ts: TripleSystem, chosen: dict[int, int], outside: list[tuple[int, int]],
    xs: list[Vertex], ys: list[Vertex],
) -> list[Path]:
    bases: dict[int, tuple[list, list]] = {}
    end_at: dict[int, tuple[int, int]] = {}  # base endpoint x -> (triple, 0 left / 1 right)
    for i, y1 in chosen.items():
        y2, y3 = (y for y in ts.triples[i] if y != y1)
        m2, m3 = f.out[y2], f.out[y3]
        x0, e02 = outside[y2]
        verts = [xs[m2.mid_x], ys[y2], xs[x0], ys[y3], xs[m3.mid_x]]
        eids = [m2.edge1, e02, outside[y3][1], m3.edge1]
        bases[i] = (verts, eids)
        end_at[m2.mid_x] = (i, 0)
        end_at[m3.mid_x] = (i, 1)
    used_ends: set[int] = set()
    for y1 in chosen.values():
        h, m = f.out[f.pred[y1]], f.out[y1]  # y1's color-2 and color-1 edges
        if h.mid_x not in end_at or h.mid_x in used_ends:
            raise InvariantError(f"color-2 neighbor x{h.mid_x} of y{y1} is not a free path end")
        used_ends.add(h.mid_x)
        j, side = end_at[h.mid_x]
        verts, eids = bases[j]
        if side == 0:
            verts[:0] = [xs[m.mid_x], ys[y1]]
            eids[:0] = [m.edge1, h.edge2]
        else:
            verts.extend([ys[y1], xs[m.mid_x]])
            eids.extend([h.edge2, m.edge1])
    return [Path(tuple(v), tuple(e)) for v, e in bases.values()]


def _case_spread(
    f: FGraph, chosen: dict[int, int], outside: list[tuple[int, int]], xs: list[Vertex], ys: list[Vertex]
) -> list[Path]:
    tails = {f.pred[m] for m in chosen.values()}  # the deleted edges leave these
    paths = []
    for m in chosen.values():
        x0, eid = outside[m]
        verts = [xs[x0], ys[m]]
        eids = [eid]
        cur = m
        steps = 0
        while cur not in tails:
            e = f.out[cur]
            verts.extend([xs[e.mid_x], ys[e.v]])
            eids.extend([e.edge1, e.edge2])
            cur = e.v
            steps += 1
            if steps > 3:
                raise InvariantError("spread walk exceeded 3 F-edges")
        e = f.out[cur]  # deleted ahead; its middle is still uncovered
        verts.append(xs[e.mid_x])
        eids.append(e.edge1)
        paths.append(Path(tuple(verts), tuple(eids)))
    return paths
