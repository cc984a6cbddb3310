"""Every certificate leaves the library through a `checker` finish.

The finishes re-check each factor, subgraph and coloring a route builds
with the checker `verify` uses, as plain calls: `python -O` strips
`assert` statements, so none may stand in for them. A route whose result
is corrupted must raise InvariantError naming the route, with or without
`-O`, and the CLI pipeline must behave the same either way.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from interval6 import coloring, oracle, pathfactor, transversal
from interval6.bigraph import build
from interval6.checker import FACTOR_LENGTHS, EdgeColoring, Path, node_path
from interval6.errors import InvariantError
from interval6.generators import claw_triple_graph, random_34_biregular, subset_graph_6

SRC = FilePath(__file__).resolve().parent.parent / "src"


def test_library_has_no_assert():
    sources = sorted((SRC / "interval6").glob("*.py"))
    assert sources
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert hits == []


def python(flags: list[str], *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *flags, *args], capture_output=True, text=True, env=env, timeout=120)


# A factor search's walk-to-Path step gone wrong: each path's vertices
# run backwards against its edges.
CORRUPT_WALK = """
import sys
from interval6 import checker, pathfactor
from interval6.errors import InvariantError
from interval6.generators import random_34_biregular

pathfactor.node_path = lambda n, nodes, eids: checker.node_path(n, list(nodes)[::-1], eids)
print("optimize", sys.flags.optimize)
try:
    res = pathfactor.{search}(random_34_biregular(3, seed=7))
except InvariantError as exc:
    print("InvariantError:", exc)
else:
    print("returned", res.status)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_corrupted_search_raises_with_and_without_O(flags):
    got = python(flags, "-c", CORRUPT_WALK.format(search="pivot_path_factor"))
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == (
        f"optimize {len(flags)}\n"
        "InvariantError: pivot search failed: path 0: edge 0 joins x0,y2, not x5,y2\n"
    )


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_corrupted_pair_search_raises_with_and_without_O(flags):
    got = python(flags, "-c", CORRUPT_WALK.format(search="search_proper_path_factor"))
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == (
        f"optimize {len(flags)}\n"
        "InvariantError: factor search failed: path 0: edge 13 joins x4,y7, not x6,y1\n"
    )


def test_cli_pipeline_is_the_same_under_O(tmp_path):
    runs = []
    for flags in ([], ["-O"]):
        d = tmp_path / (flags[0][1:] if flags else "plain")
        d.mkdir()
        g, f, c = (str(d / name) for name in ("g.json", "f.json", "c.json"))
        steps = [
            ("gen", "--family", "random", "--k", "3", "--seed", "7", "--out", g),
            ("factor", "--in", g, "--method", "search", "--out", f),
            ("color", "--in", g, "--factor", f, "--out", c),
            ("verify", "--in", g, "--factor", f, "--coloring", c),
        ]
        out = [python(flags, "-m", "interval6.cli", *step) for step in steps]
        runs.append([(p.returncode, p.stdout, p.stderr) for p in out] + [FilePath(p).read_text() for p in (g, f, c)])
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0][:4]] == [0, 0, 0, 0]
    assert runs[0][3][1].startswith("factor: ok") and "coloring: ok" in runs[0][3][1]


def backwards_path(vertices, eids):
    """A `Path` built wrong: the vertices run backwards against the edges."""
    return Path(tuple(vertices)[::-1], tuple(eids))


def backwards_walk(x_count, nodes, eids):
    return node_path(x_count, list(nodes)[::-1], eids)


K43 = random_34_biregular(1, seed=0)  # K_{4,3}: every route finds its certificate
CLAW = claw_triple_graph()  # centre x0: dropping it leaves the full 3-regular subgraph
# the claw centred at x3: a route reading its adjacency drops x3, which
# leaves y2 with degree 1 in CLAW
CLAW_AT_X3 = build(4, 3, [(3, 0), (3, 1), (3, 2)] + [(i, i) for i in range(3) for _ in range(3)])


def all_twos():
    """Factor runs that color every factor edge 2."""
    return {length: [[2] * length] * (length // 2) for length in FACTOR_LENGTHS}


def first_color_twice(colors, palette):
    """The oracle's coloring with edge 0 recolored like edge 1; both sit at x0."""
    return EdgeColoring((colors[1],) + tuple(colors[1:]), palette)


def ones_and_sixes_swapped(colors, palette):
    """The route's coloring with colors 1 and 6 exchanged: still proper,
    but the colors 1, 2, 3 at a vertex become 2, 3, 6."""
    return EdgeColoring(tuple({1: 6, 6: 1}.get(c, c) for c in colors), palette)


@pytest.mark.parametrize("corrupt, route, message", [
    (lambda mp: mp.setattr(pathfactor, "Path", backwards_path),
     lambda: pathfactor.p7_factor_via_24(K43), "via24 construction failed: path 0: "),
    (lambda mp: mp.setattr(transversal, "Path", backwards_path),
     lambda: transversal.factor_from_mixed_transversal(K43, pathfactor.search_full_3regular(K43)),
     "transversal construction failed: path 0: "),
    (lambda mp: mp.setattr(pathfactor, "node_path", backwards_walk),
     lambda: oracle.oracle_path_factor(K43), "factor search failed: path 0: "),
    (lambda mp: mp.setattr(pathfactor, "node_path", backwards_walk),
     lambda: pathfactor.search_proper_path_factor(K43), "factor search failed: path 0: "),
    (lambda mp: mp.setitem(CLAW.__dict__, "x_adj", CLAW_AT_X3.x_adj),
     lambda: pathfactor.search_full_3regular(CLAW), "full 3-regular search failed: not a full 3-regular subgraph"),
    (lambda mp: mp.setitem(CLAW.__dict__, "x_adj", CLAW_AT_X3.x_adj),
     lambda: oracle.oracle_full_3regular(CLAW), "full 3-regular oracle failed: not a full 3-regular subgraph"),
    (lambda mp: mp.setattr(coloring, "_FACTOR_RUNS", all_twos()),
     lambda: coloring.color_from_factor(*subset_graph_6()), "construction produced a color clash"),
    (lambda mp: mp.setattr(oracle, "EdgeColoring", first_color_twice),
     lambda: oracle.oracle_interval_coloring(K43, 6), "coloring oracle produced a color clash"),
    (lambda mp: mp.setattr(coloring, "EdgeColoring", ones_and_sixes_swapped),
     lambda: coloring.color_from_factor(*subset_graph_6()), "construction failed: colors (2, 3, 6) at x0 "),
    (lambda mp: mp.setattr(oracle, "EdgeColoring", ones_and_sixes_swapped),
     lambda: oracle.oracle_interval_coloring(K43, 6), "coloring oracle failed: colors (2, 3, 6) at x0 "),
], ids=["via24", "transversal", "factor-oracle", "factor-search", "subgraph-search", "subgraph-oracle", "coloring",
        "coloring-oracle", "coloring-gap", "coloring-oracle-gap"])
def test_each_finish_names_its_corrupted_route(monkeypatch, corrupt, route, message):
    route()  # uncorrupted, the route passes its finish
    corrupt(monkeypatch)
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}"):
        route()
