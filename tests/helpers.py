"""Random instance builders shared by several test modules."""

import random
import sys
from contextlib import contextmanager

from interval6 import bigraph
from interval6.bigraph import BipartiteMultigraph, build


def random_24_biregular(m: int, rng: random.Random) -> BipartiteMultigraph:
    """Configuration-model multigraph with 2m X-vertices of degree 2 and m Y-vertices of degree 4."""
    y_stubs = [j for j in range(m) for _ in range(4)]
    rng.shuffle(y_stubs)
    return build(2 * m, m, [(s // 2, y_stubs[s]) for s in range(4 * m)])


def random_cover_admitting(k: int, rng: random.Random) -> BipartiteMultigraph:
    """(3,4)-biregular graph that certainly has a Y-set exactly covering X.

    Takes a random (2,4)-biregular graph on 4k X-vertices and adds k new
    Y-vertices wired to a random partition of X into quadruples.
    """
    h = random_24_biregular(2 * k, rng)
    order = list(range(4 * k))
    rng.shuffle(order)
    edges = list(h.edges)
    for j in range(k):
        for x in order[4 * j : 4 * j + 4]:
            edges.append((x, 2 * k + j))
    return build(4 * k, 3 * k, edges)


def random_core_admitting(k: int, rng: random.Random) -> BipartiteMultigraph:
    """(3,4)-biregular graph that certainly has a full 3-regular subgraph.

    A configuration-model 3-regular core on 3k + 3k vertices plus k new
    X-vertices wired to a random partition of Y into triples.
    """
    y_stubs = [j for j in range(3 * k) for _ in range(3)]
    rng.shuffle(y_stubs)
    edges = [(s // 3, y_stubs[s]) for s in range(9 * k)]
    order = list(range(3 * k))
    rng.shuffle(order)
    for i in range(k):
        for y in order[3 * i : 3 * i + 3]:
            edges.append((3 * k + i, y))
    return build(4 * k, 3 * k, edges)


def disjoint_k43(copies: int) -> BipartiteMultigraph:
    """`copies` disjoint K_{4,3}; each has a single length-6 path as its factor."""
    return build(4 * copies, 3 * copies, [
        (4 * c + i, 3 * c + j) for c in range(copies) for i in range(4) for j in range(3)
    ])


@contextmanager
def recursion_limit(n: int):
    """Run the block with room for at most `n` Python frames above the
    caller's own depth, so any recursion that grows with input size fails
    at once rather than only on huge inputs. The old limit comes back on
    exit."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@contextmanager
def cold_vertex_tables():
    """Run the block with the shared vertex tables and label dict empty;
    the old ones come back on exit."""
    xs, ys, labels = bigraph._XS, bigraph._YS, dict(bigraph._LABELS)
    bigraph._XS, bigraph._YS = [], []
    bigraph._LABELS.clear()
    try:
        yield
    finally:
        bigraph._XS, bigraph._YS = xs, ys
        bigraph._LABELS.clear()
        bigraph._LABELS.update(labels)
