import pytest
from helpers import cold_vertex_tables

from interval6 import bigraph
from interval6.bigraph import Vertex, _strict_int, build, parse_vertex, vertex_tables, xv, yv
from interval6.checker import (
    EdgeColoring,
    Path,
    PathFactor,
    SubgraphCertificate,
    cert_from_dict,
    cert_to_dict,
    check_full_3regular,
    check_interval,
    check_proper,
    check_proper_path_factor,
    coloring_from_dict,
    coloring_to_dict,
    factor_from_dict,
    factor_to_dict,
    interval_violation,
    path_factor_violation,
)
from interval6.coloring import color_from_factor
from interval6.generators import subset_graph_6


def k34():
    return build(4, 3, [(x, y) for x in range(4) for y in range(3)])


def brute_force_proper_coloring(g, palette):
    """Tiny independent search: first proper coloring in lexicographic order."""
    colors = [0] * g.edge_count

    def ok(eid, c):
        x, y = g.edges[eid]
        for other, (ox, oy) in enumerate(g.edges[:eid]):
            if colors[other] == c and (ox == x or oy == y):
                return False
        return True

    def go(eid):
        if eid == g.edge_count:
            return True
        for c in range(1, palette + 1):
            if ok(eid, c):
                colors[eid] = c
                if go(eid + 1):
                    return True
        colors[eid] = 0
        return False

    return EdgeColoring(tuple(colors), palette) if go(0) else None


def brute_force_hamiltonian_path(g, start, end):
    """Vertex sequence + edge ids of one Hamiltonian path, or None."""
    total = g.x_count + g.y_count

    def go(v, seen, verts, eids):
        if len(seen) == total:
            return (verts, eids) if v == end else None
        for eid, w in g.incident(v):
            if w not in seen:
                got = go(w, seen | {w}, verts + [w], eids + [eid])
                if got:
                    return got
        return None

    got = go(start, {start}, [start], [])
    return Path(tuple(got[0]), tuple(got[1])) if got else None


def test_proper_coloring_agrees_with_brute_force():
    g = k34()
    four = brute_force_proper_coloring(g, 4)
    assert four is not None  # bipartite, max degree 4
    assert check_proper(g, four)
    assert brute_force_proper_coloring(g, 3) is None  # below max degree


def test_check_proper_finds_repeats():
    g = build(2, 1, [(0, 0), (1, 0)])
    assert check_proper(g, EdgeColoring((1, 2), 2))
    assert not check_proper(g, EdgeColoring((2, 2), 2))


def test_partial_or_out_of_palette_coloring_is_an_error():
    g = build(2, 1, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="uncolored"):
        check_proper(g, EdgeColoring((1,), 2))
    with pytest.raises(ValueError, match="outside"):
        check_proper(g, EdgeColoring((1, 3), 2))


def test_short_coloring_names_the_uncolored_edges():
    g, factor = subset_graph_6()
    c = color_from_factor(g, factor)
    with pytest.raises(ValueError) as exc:
        check_proper(g, EdgeColoring(c.colors[:-2], 6))
    assert str(exc.value) == "partial coloring: edges [58, 59] uncolored"


def test_overlong_coloring_names_both_counts():
    g, factor = subset_graph_6()
    c = color_from_factor(g, factor)
    for check in (check_proper, interval_violation):
        with pytest.raises(ValueError) as exc:
            check(g, EdgeColoring(c.colors + (1,), 6))
        assert str(exc.value) == "coloring covers 61 edges, graph has 60"


def test_interval_property_and_violation_report():
    g = build(2, 1, [(0, 0), (1, 0)])
    assert check_interval(g, EdgeColoring((1, 2), 2))
    bad = EdgeColoring((1, 3), 3)
    assert not check_interval(g, bad)
    assert interval_violation(g, bad) == (yv(0), (1, 3))


def test_interval_on_improper_coloring_is_an_error():
    g = build(2, 1, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="not proper"):
        check_interval(g, EdgeColoring((2, 2), 2))


def test_improper_coloring_raises_past_an_earlier_gap():
    # x0 sees 1 and 3 (a gap) before y1 sees 3 twice (a clash)
    g = build(2, 2, [(0, 0), (0, 1), (1, 1)])
    col = EdgeColoring((1, 3, 3), 3)
    assert not check_proper(g, col)
    with pytest.raises(ValueError, match="not proper"):
        interval_violation(g, col)
    with pytest.raises(ValueError, match="not proper"):
        check_interval(g, col)


def hamiltonian_p7_of_k34():
    g = k34()
    p = brute_force_hamiltonian_path(g, xv(0), xv(3))
    assert p is not None and p.length == 6
    return g, p


def test_valid_single_path_factor():
    g, p = hamiltonian_p7_of_k34()
    assert check_proper_path_factor(g, PathFactor((p,)))


def test_path_factor_violations_are_reported():
    g, p = hamiltonian_p7_of_k34()
    # wrong edge id joining a pair
    swapped = Path(p.vertices, (p.edges[1],) + p.edges[1:])
    assert "edge" in path_factor_violation(g, PathFactor((swapped,)))
    # not spanning
    short = Path(p.vertices[:3], p.edges[:2])
    assert "not covered" in path_factor_violation(g, PathFactor((short,)))
    # endpoint on the wrong side
    odd = Path(p.vertices[:4], p.edges[:3])
    assert "length" in path_factor_violation(g, PathFactor((odd,)))
    # length outside the allowed set but structurally a path
    g2 = build(2, 1, [(0, 0), (1, 0)])
    long_enough = Path((xv(0), yv(0), xv(1)), (0, 1))
    assert check_proper_path_factor(g2, PathFactor((long_enough,)))
    # same shape with a repeated vertex
    loopy = Path((xv(0), yv(0), xv(0)), (0, 0))
    assert "repeats" in path_factor_violation(g2, PathFactor((loopy,)))


def test_path_factor_structural_errors_raise():
    g = build(2, 1, [(0, 0), (1, 0)])
    dangling = Path((xv(0), yv(0), xv(1)), (0, 9))
    with pytest.raises(ValueError, match="edge 9"):
        check_proper_path_factor(g, PathFactor((dangling,)))
    ghost = Path((xv(0), yv(4), xv(1)), (0, 1))
    with pytest.raises(ValueError, match="unknown vertex"):
        check_proper_path_factor(g, PathFactor((ghost,)))
    lopsided = Path((xv(0), yv(0)), (0, 1))
    with pytest.raises(ValueError, match="vertices but"):
        check_proper_path_factor(g, PathFactor((lopsided,)))


def test_full_3regular_checker():
    g = k34()
    cert = SubgraphCertificate(frozenset(eid for eid, (x, _) in enumerate(g.edges) if x != 3))
    assert check_full_3regular(g, cert)
    # dropping one edge breaks a Y-degree
    assert not check_full_3regular(g, SubgraphCertificate(cert.edge_set - {0}))
    # X-degrees must be all-or-nothing
    assert not check_full_3regular(g, SubgraphCertificate(cert.edge_set | {9}))
    with pytest.raises(ValueError, match="edge 99"):
        check_full_3regular(g, SubgraphCertificate(frozenset({99})))
    with pytest.raises(ValueError, match="biregular"):
        check_full_3regular(build(1, 1, [(0, 0)]), SubgraphCertificate(frozenset()))


def test_factor_serialization_round_trip():
    g, p = hamiltonian_p7_of_k34()
    factor = PathFactor((p,))
    d = factor_to_dict(factor)
    assert d["paths"][0][0] == "x0"
    assert factor_from_dict(d) == factor
    with pytest.raises(ValueError):
        factor_from_dict({"paths": [["x0", 1]]})
    with pytest.raises(ValueError):
        factor_from_dict({"paths": [["x0", "y0", "x1"]]})


def test_coloring_and_cert_serialization_round_trip():
    col = EdgeColoring((1, 2, 3), 6)
    assert coloring_from_dict(coloring_to_dict(col)) == col
    cert = SubgraphCertificate(frozenset({3, 1}))
    assert cert_from_dict(cert_to_dict(cert)) == cert
    assert cert_to_dict(cert)["edges"] == [1, 3]
    with pytest.raises(ValueError):
        coloring_from_dict({"colors": [1]})


def test_factor_from_dict_rejects_non_integer_edge_ids():
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="edge id"):
            factor_from_dict({"paths": [["x0", bad, "y0", 1, "x1"]]})
    with pytest.raises(ValueError, match="malformed"):
        factor_from_dict({"paths": [["x0", 0, 5]]})  # vertex given as a number


def test_coloring_from_dict_rejects_non_integers():
    for colors, palette in (([1, 2.9], 6), ([1, "3"], 6), ([1, True], 6), ([1, 2], 6.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            coloring_from_dict({"colors": colors, "palette_size": palette})


def test_cert_from_dict_rejects_non_integers():
    for bad in (1.5, "2", True):
        with pytest.raises(ValueError, match="must be an integer"):
            cert_from_dict({"edges": [0, bad]})
    for bad in ({}, {"edges": 3}):
        with pytest.raises(ValueError, match="^malformed subgraph object: "):
            cert_from_dict(bad)


_REFERENCE_SIDES = {"x": "X", "y": "Y"}


def reference_factor_from_dict(d: dict) -> PathFactor:
    """The parser as it read labels before the shared vertex tables."""
    paths = []
    try:
        for seq in d["paths"]:
            if len(seq) % 2 == 0 or len(seq) < 3:
                raise ValueError(f"path array of length {len(seq)} cannot alternate vertex/edge")
            verts = []
            for item in seq[::2]:
                if type(item) is str:
                    side = _REFERENCE_SIDES.get(item[:1])
                    digits = item[1:]
                    if side and digits.isascii() and digits.isdigit() and (digits[0] != "0" or len(digits) == 1):
                        verts.append(Vertex(side, int(digits)))
                        continue
                verts.append(parse_vertex(item))
            eids = seq[1::2]
            for i, item in enumerate(eids):
                if type(item) is not int:
                    _strict_int(item, f"edge id at position {2 * i + 1}")
            paths.append(Path(tuple(verts), tuple(eids)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factor object: {exc}") from exc
    return PathFactor(tuple(paths))


LABEL_CORPUS = ("x0", "x01", "x-1", "X1", "x1\n", "x\u0661", "", "z3", 3, True, None, ["x1"], "x99999999999")


def parsed(parse, d):
    """The factor `parse` reads from `d` (with its repr, which shows index
    types), or the type and message of what it raises."""
    try:
        factor = parse(d)
    except Exception as exc:  # the comparison is the point: any exception must match
        return type(exc).__name__, str(exc)
    return factor, repr(factor)


def factor_objects():
    for label in LABEL_CORPUS:
        yield {"paths": [[label, 0, "y0", 1, "x1"]]}
        yield {"paths": [["x2", 4, "y1", 5, "x3"], ["x0", 0, label, 1, "x1"]]}
        yield {"paths": [["x0", 0, "y0", 1, label], ["x2", "e", "y1", 5, "x3"]]}
    yield from ({}, {"paths": 5}, {"paths": "xyz"}, {"paths": [5]}, {"paths": ["x0y"]}, {"paths": [["x0", 0]]})
    yield {"paths": [["x0", 0, "y0", 1, "x1", 2], [3]]}


def test_factor_from_dict_matches_reference_cold_and_warm():
    with cold_vertex_tables():
        for d in factor_objects():
            want = parsed(reference_factor_from_dict, d)
            with cold_vertex_tables():
                assert parsed(factor_from_dict, d) == want
            vertex_tables(16, 16)
            assert parsed(factor_from_dict, d) == want
    g, p = hamiltonian_p7_of_k34()
    d = factor_to_dict(PathFactor((p,)))
    assert parsed(factor_from_dict, d) == parsed(reference_factor_from_dict, d)


def test_hostile_labels_never_grow_the_tables_past_the_label_count():
    d = {"paths": [["x99999999999", 0, "y77777777", 1, "x3"], ["y5", 2, "x4000000", 3, "y0"], "x9999", 7]}
    with cold_vertex_tables():
        with pytest.raises(ValueError):
            factor_from_dict(d)  # "x9999" is a string of length 5, not a path array
        assert len(bigraph._XS) <= 6 and len(bigraph._YS) <= 6 and len(bigraph._LABELS) <= 12
        assert xv(99999999999) == Vertex("X", 99999999999)
        factor = factor_from_dict({"paths": d["paths"][:2]})
        assert factor.paths[0].vertices[0] == Vertex("X", 99999999999)
        assert len(bigraph._XS) <= 6 and len(bigraph._YS) <= 6
