"""Seeded instance families with a planted certificate.

Each generator builds a (3,4)-biregular graph that is known, by
construction, to admit one of the structures the library searches for,
and asserts that planted certificate with the library's checker before
handing the graph out. The same (k, seed) always gives the same graph.

- `cover_instance`: a Y-set whose neighbourhoods partition X (the via24 route).
- `core_instance`: a full 3-regular subgraph (the transversal route).
- `factor_instance`: a proper path factor with lengths 2, 4, 6 and 8.
"""

from __future__ import annotations

import random

from interval6.bigraph import BipartiteMultigraph, build, is_simple, xv, yv
from interval6.checker import (
    Path,
    PathFactor,
    SubgraphCertificate,
    check_full_3regular,
    check_proper_path_factor,
)


class PlantError(RuntimeError):
    """A generator's planted certificate did not hold."""


def _relabel(
    x_count: int,
    y_count: int,
    edges: list[tuple[int, int]],
    rng: random.Random,
    shuffle_y: bool = True,
) -> tuple[BipartiteMultigraph, list[int], list[int], list[int]]:
    """Shuffle X labels, optionally Y labels, and the edge order.

    Returns the graph with the maps old x -> new x, old y -> new y and
    old edge position -> new edge id.
    """
    xmap = list(range(x_count))
    rng.shuffle(xmap)
    ymap = list(range(y_count))
    if shuffle_y:
        rng.shuffle(ymap)
    order = list(range(len(edges)))
    rng.shuffle(order)
    emap = [0] * len(edges)
    for new, old in enumerate(order):
        emap[old] = new
    relabelled = [(xmap[edges[old][0]], ymap[edges[old][1]]) for old in order]
    return build(x_count, y_count, relabelled), xmap, ymap, emap


def cover_instance(k: int, seed: int) -> tuple[BipartiteMultigraph, tuple[int, ...]]:
    """Graph with a planted Y-cover, and the cover's Y-vertices (sorted).

    A configuration-model (2,4)-biregular multigraph on 4k X-vertices
    and 2k Y-vertices, plus k new Y-vertices wired to a random partition
    of X into quadruples; all labels and the edge order are shuffled.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(seed)
    stubs = [j for j in range(2 * k) for _ in range(4)]
    rng.shuffle(stubs)
    edges = [(s // 2, stubs[s]) for s in range(8 * k)]
    quads = list(range(4 * k))
    rng.shuffle(quads)
    for j in range(k):
        edges.extend((x, 2 * k + j) for x in quads[4 * j : 4 * j + 4])
    g, _, ymap, _ = _relabel(4 * k, 3 * k, edges, rng)
    cover = tuple(sorted(ymap[2 * k + j] for j in range(k)))
    if not is_y_cover(g, cover):
        raise PlantError(f"cover instance k={k} seed={seed}: planted Y-cover does not partition X")
    return g, cover


def is_y_cover(g: BipartiteMultigraph, cover: tuple[int, ...]) -> bool:
    """True when the neighbourhoods of `cover` are 4-sets partitioning X."""
    hit = [0] * g.x_count
    for j in cover:
        nbrs = {x for _, x in g.y_adj[j]}
        if len(nbrs) != 4:
            return False
        for x in nbrs:
            hit[x] += 1
    return all(h == 1 for h in hit)


def core_instance(k: int, seed: int) -> tuple[BipartiteMultigraph, SubgraphCertificate]:
    """Graph with a planted full 3-regular subgraph, and that subgraph.

    A random simple 3-regular bipartite core on 3k + 3k vertices
    (configuration model, redrawn until simple) plus k X-vertices whose
    neighbourhoods partition Y into triples; X labels and the edge order
    are shuffled.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(seed)
    stubs = [j for j in range(3 * k) for _ in range(3)]
    for _ in range(10_000):
        rng.shuffle(stubs)
        core = [(s // 3, stubs[s]) for s in range(9 * k)]
        if len(set(core)) == len(core):
            break
    else:
        raise PlantError(f"core instance k={k} seed={seed}: no simple core in 10000 draws")
    ys = list(range(3 * k))
    rng.shuffle(ys)
    triples = [(3 * k + i, y) for i in range(k) for y in ys[3 * i : 3 * i + 3]]
    g, _, _, emap = _relabel(4 * k, 3 * k, core + triples, rng, shuffle_y=False)
    cert = SubgraphCertificate(frozenset(emap[pos] for pos in range(len(core))))
    if not check_full_3regular(g, cert):
        raise PlantError(f"core instance k={k} seed={seed}: planted subgraph is not full 3-regular")
    return g, cert


def _path_lengths(k: int) -> list[int]:
    """k lengths from {2, 4, 6, 8} summing to 6k (so the paths span 4k + 3k vertices).

    With a, b, c, d paths of lengths 2, 4, 6, 8 the sums force d = 2a + b.
    """
    a = b = k // 8
    d = 2 * a + b
    c = k - a - b - d
    return [2] * a + [4] * b + [6] * c + [8] * d


def factor_instance(k: int, seed: int) -> tuple[BipartiteMultigraph, PathFactor]:
    """Simple graph with a planted proper path factor, and that factor.

    k paths of lengths 2, 4, 6 and 8 cover all 4k X- and 3k Y-vertices;
    the edges left to fill every degree up come from a configuration
    model whose parallel edges are switched away, and all labels and the
    edge order are shuffled.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(seed)
    lengths = _path_lengths(k)
    rng.shuffle(lengths)
    paths: list[list[tuple[str, int]]] = []
    edges: list[tuple[int, int]] = []
    path_edges: list[list[int]] = []
    nx = ny = 0
    for length in lengths:
        verts: list[tuple[str, int]] = []
        for i in range(length + 1):
            if i % 2 == 0:
                verts.append(("X", nx))
                nx += 1
            else:
                verts.append(("Y", ny))
                ny += 1
        eids = []
        for i in range(length):
            a, b = verts[i], verts[i + 1]
            x, y = (a[1], b[1]) if a[0] == "X" else (b[1], a[1])
            eids.append(len(edges))
            edges.append((x, y))
        paths.append(verts)
        path_edges.append(eids)

    xdeg = [0] * nx
    ydeg = [0] * ny
    for x, y in edges:
        xdeg[x] += 1
        ydeg[y] += 1
    x_stubs = [x for x in range(nx) for _ in range(3 - xdeg[x])]
    y_stubs = [y for y in range(ny) for _ in range(4 - ydeg[y])]
    rng.shuffle(y_stubs)
    leftover = _switch_to_simple(x_stubs, y_stubs, set(edges), rng)
    g, xmap, ymap, emap = _relabel(nx, ny, edges + leftover, rng)

    def label(v: tuple[str, int]):
        return xv(xmap[v[1]]) if v[0] == "X" else yv(ymap[v[1]])

    factor = PathFactor(
        tuple(
            Path(tuple(label(v) for v in verts), tuple(emap[e] for e in eids))
            for verts, eids in zip(paths, path_edges)
        )
    )
    if not is_simple(g) or not check_proper_path_factor(g, factor):
        raise PlantError(f"factor instance k={k} seed={seed}: planted factor does not hold")
    return g, factor


def _switch_to_simple(
    x_stubs: list[int], y_stubs: list[int], taken: set[tuple[int, int]], rng: random.Random
) -> list[tuple[int, int]]:
    """Pair stubs into edges, swapping Y-ends until no edge repeats another."""
    pairs = list(zip(x_stubs, y_stubs))
    for _ in range(1000 * max(1, len(pairs))):
        seen = set(taken)
        bad = -1
        for i, e in enumerate(pairs):
            if e in seen:
                bad = i
                break
            seen.add(e)
        if bad < 0:
            return pairs
        j = rng.randrange(len(pairs))
        (xa, ya), (xb, yb) = pairs[bad], pairs[j]
        pairs[bad], pairs[j] = (xa, yb), (xb, ya)
    raise PlantError("could not switch the leftover edges to a simple graph")
