"""Acceptance suite: one test per shipped guarantee.

Each test prints exactly one PASS/FAIL line with its pinned tolerance
and runtime budget, then asserts. Budgets are wall-clock upper bounds,
generous enough for slow machines; tolerances are exact counts.

Criterion 8a is expected to fail: the shipped subset graph admits no
set of five Y-vertices with pairwise disjoint neighborhoods (any two
2-subsets of a 6-set that share an element force overlapping
neighborhoods), so the cover pipeline provably cannot produce a factor
there. The check is kept as written rather than weakened; see the
repository notes for the argument.
"""

import json
import random
import time

from helpers import random_cover_admitting

from interval6 import cli
from interval6.bigraph import (
    biregular34_k,
    build,
    delete_y,
    is_simple,
    is_two_edge_connected,
)
from interval6.checker import (
    check_interval,
    check_proper,
    check_proper_path_factor,
)
from interval6.coloring import color_from_factor
from interval6.generators import (
    claw_triple_graph,
    eight_triples_graph,
    independent_obstruction,
    no_mixed_transversal_instance,
    random_34_biregular,
    spread_obstruction,
    subset_graph_6,
    two_eight_triples,
)
from interval6.oracle import (
    oracle_full_3regular,
    oracle_interval_coloring,
    oracle_path_factor,
)
from interval6.pathfactor import (
    find_y_cover,
    p3_half_factor,
    p7_factor_via_24,
    pivot_path_factor,
    search_full_3regular,
    search_proper_path_factor,
)
from interval6.transversal import (
    factor_from_mixed_transversal,
    find_independent_transversal,
    find_mixed_transversal,
    find_spread_transversal,
    proper_3_edge_color,
)


def k34():
    return build(4, 3, [(i, j) for i in range(4) for j in range(3)])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_subset_graph_end_to_end():
    t0 = time.monotonic()
    g, factor = subset_graph_6()
    ok = (g.x_count, g.y_count) == (20, 15) and biregular34_k(g) == 5
    ok = ok and check_proper_path_factor(g, factor)
    ok = ok and all(p.length == 6 for p in factor.paths)
    coloring = color_from_factor(g, factor)
    ok = ok and check_interval(g, coloring) and set(coloring.colors) == {1, 2, 3, 4, 5, 6}
    dt = time.monotonic() - t0
    report("01", ok and dt < 1.0,
           f"20+15 graph, five length-6 paths, colors 1..6, {dt:.2f}s < 1s")


def test_criterion_02_subset_graph_has_no_3regular_subgraph():
    t0 = time.monotonic()
    g, _ = subset_graph_6()
    got = oracle_full_3regular(g)
    dt = time.monotonic() - t0
    report("02", got is None and dt < 60.0,
           f"exhaustive subgraph oracle returns none, {dt:.2f}s < 60s")


def test_criterion_03_eight_triples_factor_but_no_subgraph():
    t0 = time.monotonic()
    g = eight_triples_graph()
    res = search_proper_path_factor(g, lengths=(6,))
    ok = res.status == "found" and check_proper_path_factor(g, res.factor)
    ok = ok and all(p.length == 6 for p in res.factor.paths)
    ok = ok and oracle_full_3regular(g) is None
    dt = time.monotonic() - t0
    report("03", ok and dt < 60.0,
           f"length-6 factor found, subgraph oracle none, {dt:.2f}s < 60s")


def test_criterion_04_claw_separates_the_two_conditions():
    t0 = time.monotonic()
    g = claw_triple_graph()
    cert = oracle_full_3regular(g)
    factor = oracle_path_factor(g)
    dt = time.monotonic() - t0
    report("04", cert is not None and factor is None and dt < 5.0,
           f"3-regular subgraph exists, path factor definitively none, {dt:.2f}s < 5s")


def test_criterion_05_six_colors_are_necessary():
    t0 = time.monotonic()
    g = k34()
    five = oracle_interval_coloring(g, 5)
    six = oracle_interval_coloring(g, 6)
    ok = five is None and six is not None
    ok = ok and check_proper(g, six) and check_interval(g, six)
    dt = time.monotonic() - t0
    report("05", ok and dt < 10.0,
           f"palette 5 impossible, palette 6 found, {dt:.2f}s < 10s")


def test_criterion_06_factor_coloring_never_fails():
    rng = random.Random(106)
    colored = 0
    trials = 0
    while colored < 200:
        trials += 1
        g = random_34_biregular(rng.choice([1, 2, 3]), seed=rng.randrange(10**9))
        res = search_proper_path_factor(g)
        if res.status != "found":
            continue
        coloring = color_from_factor(g, res.factor)  # self-verifying
        assert check_interval(g, coloring)
        colored += 1
    report("06", colored == 200,
           f"{colored}/200 factored instances colored, failure tolerance 0, "
           f"{trials} instances sampled")


def test_criterion_07_both_parity_classes_are_half_factors():
    rng = random.Random(107)
    passed = 0
    for _ in range(100):
        g = random_cover_admitting(rng.choice([2, 3]), rng)
        cover = find_y_cover(g)
        h, _, _ = delete_y(g, cover)
        a = p3_half_factor(h, parity=0)
        b = p3_half_factor(h, parity=1)
        ok = all(p.length == 2 for hf in (a, b) for p in hf.paths)
        ok = ok and not (a.edge_set & b.edge_set)
        ok = ok and (a.edge_set | b.edge_set) == frozenset(range(h.edge_count))
        passed += ok
    report("07", passed == 100,
           f"{passed}/100 peeled graphs split into two length-2 classes, tolerance 0")


def test_criterion_08a_via24_on_subset_graph():
    g, _ = subset_graph_6()
    factor = p7_factor_via_24(g)
    ok = factor is not None and all(p.length == 6 for p in factor.paths)
    report("08a", ok,
           "cover pipeline factors the subset graph; provably impossible "
           "(it admits no Y-cover), kept as specified and expected to FAIL")


def test_criterion_08b_via24_on_complete_instance():
    g = k34()
    factor = p7_factor_via_24(g)
    ok = factor is not None and check_proper_path_factor(g, factor)
    ok = ok and [p.length for p in factor.paths] == [6]
    report("08b", ok, "cover pipeline factors the complete (3,4) instance")


def test_criterion_08c_via24_on_cover_admitting_instances():
    rng = random.Random(108)
    valid = 0
    invalid = 0
    total = 60
    for _ in range(total):
        g = random_cover_admitting(rng.choice([1, 2, 3]), rng)
        factor = p7_factor_via_24(g)
        if factor is None:
            continue
        if check_proper_path_factor(g, factor) and all(p.length == 6 for p in factor.paths):
            valid += 1
        else:
            invalid += 1
    report("08c", invalid == 0 and valid >= 0.9 * total,
           f"{valid}/{total} valid factors (need >= 90%), {invalid} invalid (tolerance 0)")


def test_criterion_09_splice_keeps_factor_and_kills_subgraph():
    t0 = time.monotonic()
    g, factor = two_eight_triples()
    ok = g.x_count + g.y_count == 28 and is_simple(g)
    ok = ok and is_two_edge_connected(g)
    ok = ok and check_proper_path_factor(g, factor)
    ok = ok and oracle_full_3regular(g) is None
    dt = time.monotonic() - t0
    report("09", ok and dt < 600.0,
           f"28-vertex splice: simple, 2-edge-connected, factor ok, "
           f"subgraph oracle none, {dt:.2f}s < 600s")


def test_criterion_10_spliced_link_structure_has_no_mixed_transversal():
    t0 = time.monotonic()
    f, ts = no_mixed_transversal_instance()
    ok = find_mixed_transversal(f, ts) is None
    f1, t1 = independent_obstruction(12)
    ok = ok and find_independent_transversal(f1, t1) is None
    f2, t2 = spread_obstruction(8)
    ok = ok and find_spread_transversal(f2, t2) is None
    dt = time.monotonic() - t0
    report("10", ok and dt < 300.0,
           f"complete searches: no mixed, no independent on first part, "
           f"no spread on second, {dt:.2f}s < 300s")


def test_criterion_11_transversal_chain_under_all_color_permutations():
    from itertools import permutations

    g = k34()
    cert = search_full_3regular(g)
    base = proper_3_edge_color(g, cert.edge_set)
    good = 0
    for perm in permutations((1, 2, 3)):
        colors = {e: perm[c - 1] for e, c in base.items()}
        factor = factor_from_mixed_transversal(g, cert, colors=colors)
        if factor is None or not check_proper_path_factor(g, factor):
            continue
        coloring = color_from_factor(g, factor)
        good += check_interval(g, coloring)
    report("11", good == 6,
           f"{good}/6 color-class relabelings give a verified interval coloring")


def test_criterion_12_search_and_oracle_agree():
    rng = random.Random(112)
    agreements = 0
    total = 0
    for g in (claw_triple_graph(), eight_triples_graph(), k34()):
        total += 1
        res = pivot_path_factor(g)
        agreements += (res.status == "found") == (oracle_path_factor(g) is not None)
    while total < 500:
        total += 1
        k = rng.choice([1, 2, 3])  # at most 21 vertices
        g = random_34_biregular(k, seed=rng.randrange(10**9),
                                simple_only=rng.random() < 0.5)
        res = pivot_path_factor(g)
        assert res.status != "unknown"
        agreements += (res.status == "found") == (oracle_path_factor(g) is not None)
    report("12", agreements == total,
           f"{agreements}/{total} yes/no agreements, disagreement tolerance 0")


def test_criterion_13_hunt_is_clean_and_parallel_deterministic(capsys, tmp_path):
    def hunt(jobs):
        code = cli.main(["hunt", "--k", "2", "--trials", "500", "--seed", "1",
                         "--jobs", str(jobs), "--archive", str(tmp_path / "hits")])
        out = capsys.readouterr().out
        return code, out

    code1, out1 = hunt(1)
    code8, out8 = hunt(8)
    tallies = json.loads(out1)["tallies"]
    ok = code1 == code8 == 0 and tallies["none"] == 0 and out1 == out8
    ok = ok and not (tmp_path / "hits").exists()
    report("13", ok,
           f"500 trials: tallies {tallies}, stdout bit-identical for 1 and 8 workers")
