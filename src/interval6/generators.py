"""Named example instances and random instance generation.

The fixed instances here are the small graphs the rest of the library is
exercised against: a subset-containment graph that comes bundled with an
explicit path factor, a triple-system graph whose factor exists but whose
Y-coverage structure is deliberately poor, a multigraph built on a claw
with tripled edges, and a splice operation that composes two instances
into a larger one. Random instances come from a seeded configuration
model so every test run sees the same graphs.
"""

from __future__ import annotations

import random
from itertools import combinations
from operator import eq

from . import bigraph
from .bigraph import BipartiteMultigraph, build, xv, yv
from .checker import Path, PathFactor, check_proper_path_factor, finish_factor
from .pathfactor import pivot_path_factor
from .transversal import FEdge, FGraph, TripleSystem

# Explicit path factor of the subset graph: five alternating runs of
# 3-subsets and 2-subsets of {1..6}, each a length-6 path.
_SUBSET_FACTOR_RUNS = (
    ((1, 2, 4), (1, 2), (1, 2, 3), (2, 3), (2, 3, 5), (3, 5), (3, 4, 5)),
    ((1, 3, 5), (1, 3), (1, 3, 4), (3, 4), (3, 4, 6), (4, 6), (4, 5, 6)),
    ((1, 4, 6), (1, 4), (1, 4, 5), (4, 5), (2, 4, 5), (2, 5), (2, 5, 6)),
    ((1, 2, 5), (1, 5), (1, 5, 6), (5, 6), (3, 5, 6), (3, 6), (2, 3, 6)),
    ((1, 3, 6), (1, 6), (1, 2, 6), (2, 6), (2, 4, 6), (2, 4), (2, 3, 4)),
)


def subset_graph_6() -> tuple[BipartiteMultigraph, PathFactor]:
    """Subset containment graph on {1..6} with an explicit path factor.

    X-side: the 20 3-subsets in lexicographic order; Y-side: the 15
    2-subsets; an edge wherever the pair is contained in the triple. The
    bundled factor covers all 35 vertices with five length-6 paths.
    """
    triples = list(combinations(range(1, 7), 3))
    pairs = list(combinations(range(1, 7), 2))
    x_index = {t: i for i, t in enumerate(triples)}
    y_index = {p: j for j, p in enumerate(pairs)}
    edges = []
    for t in triples:
        for p in combinations(t, 2):
            edges.append((x_index[t], y_index[p]))
    g = build(len(triples), len(pairs), edges)
    eid_of = {pair: eid for eid, pair in enumerate(g.edges)}

    paths = []
    for run in _SUBSET_FACTOR_RUNS:
        verts = []
        for i, s in enumerate(run):
            verts.append(xv(x_index[s]) if i % 2 == 0 else yv(y_index[s]))
        eids = []
        for a, b in zip(verts, verts[1:]):
            x, y = (a, b) if a.side == "X" else (b, a)
            eids.append(eid_of[(x.index, y.index)])
        paths.append(Path(tuple(verts), tuple(eids)))
    return g, finish_factor(g, PathFactor(tuple(paths)), "subset graph factor")


_EIGHT_TRIPLES = ((1, 2, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (3, 4, 6), (1, 4, 5), (1, 5, 6), (2, 5, 6))


def eight_triples_graph() -> BipartiteMultigraph:
    """Eight triples over six points, every point in exactly four of them.

    Simple and (3,4)-biregular (two X-vertices share the neighborhood
    {3,4,6}, which is fine: equal neighborhoods, not parallel edges). A
    path factor with all lengths 6 exists, but no two triples are
    disjoint and no two points have complementary neighborhoods, so both
    coverage-based constructions come up empty on it.
    """
    edges = []
    for i, t in enumerate(_EIGHT_TRIPLES):
        for el in t:
            edges.append((i, el - 1))
    return build(8, 6, edges)


def claw_triple_graph() -> BipartiteMultigraph:
    """A claw with each leaf edge tripled: the classic no-factor multigraph.

    x0 is joined once to each of y0, y1, y2; x_i (i = 1..3) is joined to
    y_{i-1} by three parallel edges. Every Y-vertex has degree 4, every
    X-vertex degree 3. Deleting x0 leaves a 3-regular subgraph covering
    Y, yet no proper path factor exists: a path through y_i cannot use
    two parallel copies, so it must pass through x0, and three paths
    cannot all do that.
    """
    edges = [(0, 0), (0, 1), (0, 2)]
    for i in range(1, 4):
        edges.extend([(i, i - 1)] * 3)
    return build(4, 3, edges)


def two_switch(
    g1: BipartiteMultigraph,
    f1: PathFactor,
    e1: int,
    g2: BipartiteMultigraph,
    f2: PathFactor,
    e2: int,
) -> tuple[BipartiteMultigraph, PathFactor]:
    """Splice two instances by crossing over one non-factor edge of each.

    Takes the disjoint union, removes e1 = (x1, y1) and e2 = (x2, y2),
    and adds (x1, y2) and (x2, y1). Degrees are untouched, so the result
    is (3,4)-biregular; f1 and f2 survive unchanged (the removed edges lie
    outside them) and together form a factor of the composite. When both
    inputs are 2-edge-connected the composite is too, since the two cross
    edges form an edge cut only jointly.

    e1/e2 slots keep their positions in the combined edge list, so edge
    ids of the inputs map to (id) and (id + g1.edge_count).
    """
    for tag, (g, f, e) in (("first", (g1, f1, e1)), ("second", (g2, f2, e2))):
        bigraph.biregular34_k(g)
        if not bigraph.is_two_edge_connected(g):
            raise ValueError(f"{tag} graph is not 2-edge-connected")
        if not check_proper_path_factor(g, f):
            raise ValueError(f"{tag} factor is not a proper path factor")
        if any(p.length != 6 for p in f.paths):
            raise ValueError(f"{tag} factor must have all path lengths 6")
        if not (0 <= e < g.edge_count):
            raise ValueError(f"{tag} graph has no edge {e}")
        if e in f.edge_ids():
            raise ValueError(f"edge {e} lies on the {tag} factor")

    ox, oy, oe = g1.x_count, g1.y_count, g1.edge_count
    x1, y1 = g1.edges[e1]
    x2, y2 = g2.edges[e2]
    edges = list(g1.edges)
    edges[e1] = (x1, oy + y2)
    for eid, (x, y) in enumerate(g2.edges):
        if eid == e2:
            edges.append((ox + x2, y1))
        else:
            edges.append((ox + x, oy + y))
    g = build(g1.x_count + g2.x_count, g1.y_count + g2.y_count, edges)

    paths = list(f1.paths)
    for p in f2.paths:
        verts = tuple(
            xv(v.index + ox) if v.side == "X" else yv(v.index + oy) for v in p.vertices
        )
        paths.append(Path(verts, tuple(e + oe for e in p.edges)))
    return g, finish_factor(g, PathFactor(tuple(paths)), "two_switch splice")


def random_34_biregular(k: int, seed: int, simple_only: bool = True) -> BipartiteMultigraph:
    """Random (3,4)-biregular multigraph on 4k + 3k vertices.

    Configuration model: each X-vertex gets 3 stubs, each Y-vertex 4, and
    a seeded shuffle pairs them up. With simple_only the whole sample is
    rejected and redrawn until the result has no parallel edges (capped
    at 10^4 attempts). Same (k, seed) always yields the same graph.

    The shuffle is Fisher–Yates inlined on `getrandbits`: it reproduces
    `random.Random(seed).shuffle` draw for draw (each position's index
    redrawn while it falls past the position, as `Random._randbelow`
    does), and the reference test in test_generators holds it to that.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    getrandbits = random.Random(seed).getrandbits
    y_stubs = [j for j in range(3 * k) for _ in range(4)]
    steps = [(i, (i + 1).bit_length()) for i in range(12 * k - 1, 0, -1)]
    for _ in range(10_000):
        for i, bits in steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            y_stubs[i], y_stubs[j] = y_stubs[j], y_stubs[i]
        # X-vertex i takes stubs 3i..3i+2, so a parallel edge is a repeat
        # among three consecutive Y-stubs; only an accepted draw is built
        if simple_only:
            a, b, c = y_stubs[0::3], y_stubs[1::3], y_stubs[2::3]
            if any(map(eq, a, b)) or any(map(eq, a, c)) or any(map(eq, b, c)):
                continue
        return build(4 * k, 3 * k, [(s // 3, y_stubs[s]) for s in range(12 * k)])
    raise ValueError(f"no simple sample found for k={k}, seed={seed} in 10000 draws")


def _vid(k: int, i: int, j: int) -> int:
    """Vertex 3(i-1)+(j-1) of k triples: the j-th element of triple i, with i taken mod k."""
    return 3 * ((i - 1) % k) + (j - 1)


def _triple_link_structure(k: int, cycles: list[list[int]]) -> tuple[FGraph, TripleSystem]:
    """F with one directed cycle per vertex list (a 2-cycle [a, b] is the
    edges (a, b) and (b, a)), over k triples of consecutive vertices."""
    edges = [FEdge(a, b) for cyc in cycles for a, b in zip(cyc, cyc[1:] + cyc[:1])]
    return FGraph(3 * k, tuple(edges)), TripleSystem(tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)))


def independent_obstruction(k: int = 12) -> tuple[FGraph, TripleSystem]:
    """Link structure with no independent transversal (but a spread one).

    k triples (a positive multiple of 6) on vertices numbered
    3(i-1)+(j-1) for the j-th element of triple i. The first two elements
    of consecutive triple pairs sit on k/2 four-cycles and the third
    elements on k/3 three-cycles, so any independent set has at most one
    vertex per cycle: k/2 + k/3 < k picks. Spread transversals still
    exist, since the cycle count is below k and all cycles are short.
    Every cycle is a clique of F*, so the independent search refutes
    the structure by this same count (Hall's condition) before it
    branches, in time polynomial in k.
    """
    if k < 6 or k % 6:
        raise ValueError("k must be a positive multiple of 6")
    cycles = [[_vid(k, 2 * i - 1, 1), _vid(k, 2 * i, 1), _vid(k, 2 * i - 1, 2), _vid(k, 2 * i, 2)]
              for i in range(1, k // 2 + 1)]
    for i in range(1, k // 6 + 1):
        cycles.append([_vid(k, 6 * i - 3, 3), _vid(k, 6 * i - 1, 3), _vid(k, 6 * i + 1, 3)])
        cycles.append([_vid(k, 6 * i - 4, 3), _vid(k, 6 * i - 2, 3), _vid(k, 6 * i, 3)])
    return _triple_link_structure(k, cycles)


def spread_obstruction(k: int = 8) -> tuple[FGraph, TripleSystem]:
    """Link structure with no spread transversal (but an independent one).

    k triples (a positive even number) whose vertices sit on 3k/2
    two-cycles: first elements pair with the next triple's second
    element, third elements pair up among themselves. A spread
    transversal needs a member on every cycle, and 3k/2 > k. Taking all
    first elements is an independent transversal.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be a positive even number")
    cycles = [[_vid(k, i, 1), _vid(k, i + 1, 2)] for i in range(1, k + 1)]
    cycles += [[_vid(k, 2 * i - 1, 3), _vid(k, 2 * i, 3)] for i in range(1, k // 2 + 1)]
    return _triple_link_structure(k, cycles)


def no_mixed_transversal_instance() -> tuple[FGraph, TripleSystem]:
    """Link structure and triples admitting no mixed transversal at all.

    Disjoint copies of independent_obstruction(12) (vertices 0..35) and
    spread_obstruction(8) (vertices 36..59), with vertex 0 and vertex 36
    exchanged in the cycle structure but not in the triples. That makes
    the combined structure connected through the two straddling triples,
    so one case must apply globally: spread fails since the 22 cycles
    outnumber the 20 triples, and independence fails because the 11
    triples confined to the first part have only 10 cycles to sit on.
    Both searches refute it by these counts without branching: the
    spread one by its cycle count, the independent one by Hall's
    condition (ten triples whose members lie only on the nine clique
    cycles of the first part).
    """
    f1, t1 = independent_obstruction(12)
    f2, t2 = spread_obstruction(8)
    swap = {0: 36, 36: 0}
    edges = []
    for e in f1.edges:
        edges.append(FEdge(swap.get(e.u, e.u), swap.get(e.v, e.v)))
    for e in f2.edges:
        u, v = e.u + 36, e.v + 36
        edges.append(FEdge(swap.get(u, u), swap.get(v, v)))
    triples = t1.triples + tuple((a + 36, b + 36, c + 36) for a, b, c in t2.triples)
    return FGraph(60, tuple(edges)), TripleSystem(triples)


def two_eight_triples() -> tuple[BipartiteMultigraph, PathFactor]:
    """Two spliced copies of the eight-triples graph, with a factor.

    Each copy has an all-lengths-6 factor (found by the pivot search)
    but no Y-cover; the splice keeps both properties while doubling the
    size, giving a 2-edge-connected instance that the coverage-based
    pipeline cannot handle.
    """
    g = eight_triples_graph()
    res = pivot_path_factor(g, lengths=(6,))
    if res.status != "found":
        raise RuntimeError("eight-triples factor search failed unexpectedly")
    e = next(eid for eid in range(g.edge_count) if eid not in res.factor.edge_ids())
    return two_switch(g, res.factor, e, g, res.factor, e)
