"""End-to-end tests for the command-line interface."""

import hashlib
import io
import json
import random
import sys

from helpers import disjoint_k43, random_core_admitting, random_cover_admitting

from interval6 import checker, cli, pathfactor
from interval6.bigraph import from_json, is_simple, to_json
from interval6.checker import (
    check_interval,
    check_proper_path_factor,
    coloring_from_dict,
    factor_from_dict,
    path_factor_violation,
)
from interval6.errors import InvariantError
from interval6.generators import random_34_biregular


def run(capsys, *args):
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(capsys, tmp_path, family, *extra):
    path = tmp_path / f"{family}.json"
    code, _, _ = run(capsys, "gen", "--family", family, "--out", str(path), *extra)
    assert code == 0
    return path


def test_gen_subset6_with_factor(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    code, _, _ = run(capsys, "gen", "--family", "subset6",
                     "--out", str(gpath), "--factor-out", str(fpath))
    assert code == 0
    g = from_json(gpath.read_text())
    assert (g.x_count, g.y_count, g.edge_count) == (20, 15, 60)
    factor = factor_from_dict(json.loads(fpath.read_text()))
    assert check_proper_path_factor(g, factor)


def test_gen_random_is_deterministic(capsys, tmp_path):
    a = gen_file(capsys, tmp_path, "random", "--k", "3", "--seed", "7", "--simple")
    text = a.read_text()
    b = tmp_path / "again.json"
    run(capsys, "gen", "--family", "random", "--k", "3", "--seed", "7", "--out", str(b))
    assert b.read_text() == text
    run(capsys, "gen", "--family", "random", "--k", "3", "--seed", "8", "--out", str(b))
    assert b.read_text() != text
    code, _, err = run(capsys, "gen", "--family", "random")
    assert code == 3 and "--k" in err


def test_gen_claw_is_multigraph(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "claw-triple")
    g = from_json(path.read_text())
    assert (g.x_count, g.y_count, g.edge_count) == (4, 3, 12)
    assert not is_simple(g)


def test_gen_factor_out_needs_canonical_factor(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--family", "eight-triples",
                       "--out", str(tmp_path / "g.json"),
                       "--factor-out", str(tmp_path / "f.json"))
    assert code == 3 and "canonical factor" in err
    # refused before anything is written, to a file or to stdout
    assert not (tmp_path / "g.json").exists() and not (tmp_path / "f.json").exists()
    code, out, err = run(capsys, "gen", "--family", "eight-triples", "--factor-out", "-")
    assert (code, out) == (3, "") and "canonical factor" in err


def test_factor_search_writes_verified_factor(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "random", "--k", "3", "--seed", "7")
    fpath = tmp_path / "found.json"
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--out", str(fpath))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "found" and report["method"] == "search"
    g = from_json(gpath.read_text())
    factor = factor_from_dict(json.loads(fpath.read_text()))
    assert check_proper_path_factor(g, factor)
    assert report["lengths"] == sorted(p.length for p in factor.paths)


def test_factor_oracle_definitive_none(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "claw-triple")
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "oracle")
    assert code == 1
    assert json.loads(out)["status"] == "none"


def test_factor_via24_depends_on_cover(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "subset6")
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "via24")
    assert code == 2
    assert json.loads(out)["reason"] == "no-y-cover"
    # k=1 forces the complete graph, which peels cleanly
    gpath = gen_file(capsys, tmp_path, "random", "--k", "1", "--seed", "0")
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "via24")
    assert code == 0
    assert json.loads(out)["lengths"] == [6]


def test_factor_transversal_paths(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "random", "--k", "1", "--seed", "0")
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "transversal")
    assert code == 0 and json.loads(out)["status"] == "found"
    gpath = gen_file(capsys, tmp_path, "eight-triples")
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "transversal")
    assert code == 2
    assert json.loads(out)["reason"] == "no-full-3regular-subgraph"


def test_factor_transversal_output_pinned(capsys, tmp_path):
    # stdout as the assembly wrote it when it keyed outside edges by (x, y) pairs
    gpath = gen_file(capsys, tmp_path, "random", "--k", "1", "--seed", "0")
    code, out, err = run(capsys, "factor", "--in", str(gpath), "--method", "transversal", "--out", "-")
    assert (code, err) == (0, "")
    assert out == ('{"paths": [["x1", 4, "y0", 8, "x2", 6, "y1", 2, "x0", 0, "y2", 9, "x3"]]}\n'
                   '{"lengths": [6], "method": "transversal", "status": "found"}\n')
    gpath = tmp_path / "core.json"
    gpath.write_text(to_json(random_core_admitting(8, random.Random(31))))
    code, out, err = run(capsys, "factor", "--in", str(gpath), "--method", "transversal", "--out", "-")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ea97d92f1df7e7bdf90a7fda8d3a73b8873512d900eeb0518549fd536f0c3d90")


def test_factor_via24_output_pinned(capsys, tmp_path):
    # factor and report as the Vertex-graph pipeline (delete_y, build, per-component circuits) wrote them
    gpath = tmp_path / "cover.json"
    gpath.write_text(to_json(random_cover_admitting(50, random.Random(12))))
    code, out, err = run(capsys, "factor", "--in", str(gpath), "--method", "via24", "--out", "-")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4519094da96c98cfb6bb2e62c4f9a1fb86ff4ff441d9787b3f4f8a1a846bd8d8")


def test_factor_transversal_budget_stop(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "claw-triple")
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "transversal",
                       "--max-nodes", "1")
    assert code == 2
    assert json.loads(out) == {"method": "transversal", "status": "unknown", "reason": "budget"}
    # two nodes decide it: the subgraph exists, the link structure has no transversal
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "transversal",
                       "--max-nodes", "2")
    assert code == 2 and json.loads(out)["reason"] == "no-mixed-transversal"


def test_factor_via24_budget_stop(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "random", "--k", "1")  # K_{4,3}: one Y-vertex covers X
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "via24",
                       "--max-nodes", "1")
    assert code == 2
    assert json.loads(out) == {"method": "via24", "status": "unknown", "reason": "budget"}
    # the root and the one cover row decide it
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", "via24",
                       "--max-nodes", "2")
    assert code == 0 and json.loads(out)["lengths"] == [6]


def test_factor_search_budget_stop_on_a_deep_search(capsys, tmp_path):
    # thousands of path vertices deep before the cap: once a RecursionError and exit 1
    gpath = gen_file(capsys, tmp_path, "random", "--k", "300", "--seed", "2")
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--max-nodes", "20000")
    assert code == 2
    assert json.loads(out) == {"method": "search", "status": "unknown", "reason": "budget", "nodes": 20001}


def test_factor_rejects_bad_input(capsys, tmp_path):
    code, _, err = run(capsys, "factor", "--in", str(tmp_path / "missing.json"))
    assert code == 3 and "cannot read graph" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"x_count": 2, "y_count": 1, "edges": [[0, 0], [1, 0]]}')
    code, _, err = run(capsys, "factor", "--in", str(bad))
    assert code == 3 and "biregular" in err


def test_input_errors_pinned(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"x_count": 2, "y_count": 1, "edges": [[0, 0], [1, 0]]}')
    not_biregular = (3, "", "error: graph is not (3,4)-biregular\n")
    for method in ("search", "oracle", "via24", "transversal"):
        assert run(capsys, "factor", "--in", str(bad), "--method", method) == not_biregular
    assert run(capsys, "verify", "--in", str(bad), "--oracle") == not_biregular
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))
    # the graph is at fault, not the factor: no "factor rejected"
    assert run(capsys, "color", "--in", str(bad), "--factor", str(fpath)) == not_biregular
    factor = json.loads(fpath.read_text())
    for label, shown in (("z0", "'z0'"), ("x0\n", "'x0\\n'")):
        factor["paths"][0][0] = label
        fpath.write_text(json.dumps(factor))
        assert run(capsys, "color", "--in", str(gpath), "--factor", str(fpath)) == (
            3, "", f"error: bad vertex label {shown}\n")


def test_color_pipeline(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))
    cpath = tmp_path / "c.json"
    dpath = tmp_path / "g.dot"
    code, out, _ = run(capsys, "color", "--in", str(gpath), "--factor", str(fpath),
                       "--out", str(cpath), "--dot", str(dpath), "--summary")
    assert code == 0
    g = from_json(gpath.read_text())
    coloring = coloring_from_dict(json.loads(cpath.read_text()))
    assert check_interval(g, coloring)
    assert 'label="1"' in dpath.read_text()
    lines = out.strip().splitlines()
    assert len(lines) == g.x_count + g.y_count
    assert lines[0].startswith("x0: ")


def test_color_rejects_wrong_factor(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "subset6")
    other = tmp_path / "other.json"
    ofac = tmp_path / "otherfac.json"
    run(capsys, "gen", "--family", "two-eight-triples", "--out", str(other),
        "--factor-out", str(ofac))
    code, _, err = run(capsys, "color", "--in", str(gpath), "--factor", str(ofac))
    assert code == 3 and "factor rejected" in err


def test_empty_graph_factors_and_colors(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"x_count": 0, "y_count": 0, "edges": []}')
    fpath = tmp_path / "f.json"
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--out", str(fpath))
    assert code == 0 and json.loads(out)["status"] == "found"
    assert json.loads(fpath.read_text()) == {"paths": []}
    code, out, err = run(capsys, "color", "--in", str(gpath), "--factor", str(fpath))
    assert (code, err) == (0, "")
    assert coloring_from_dict(json.loads(out)) == checker.EdgeColoring((), 6)


def test_color_checks_the_factor_once(capsys, tmp_path, monkeypatch):
    """`color` leaves the factor check to `color_from_factor`: one
    `path_factor_violation` call per run, whether the factor passes or not."""
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    ofac = tmp_path / "otherfac.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))
    run(capsys, "gen", "--family", "two-eight-triples", "--out", str(tmp_path / "other.json"),
        "--factor-out", str(ofac))
    calls = []

    def counted(g, factor):
        calls.append(factor)
        return path_factor_violation(g, factor)

    for module in (checker, cli, pathfactor):
        monkeypatch.setattr(module, "path_factor_violation", counted)
    code, _, _ = run(capsys, "color", "--in", str(gpath), "--factor", str(fpath))
    assert code == 0 and len(calls) == 1
    code, _, err = run(capsys, "color", "--in", str(gpath), "--factor", str(ofac))
    assert code == 3 and "error: factor rejected: " in err and len(calls) == 2


def test_factor_checks_a_found_factor_once(capsys, tmp_path, monkeypatch):
    """Every method returns its factor through `checker.finish_factor`, and
    `factor` adds no check of its own: one `path_factor_violation` call per
    found factor."""
    gpath = gen_file(capsys, tmp_path, "random", "--k", "1", "--seed", "0")  # K_{4,3}: every method finds
    calls = []

    def counted(g, factor):
        calls.append(factor)
        return path_factor_violation(g, factor)

    for name, module in list(sys.modules.items()):
        if name.startswith("interval6.") and vars(module).get("path_factor_violation") is path_factor_violation:
            monkeypatch.setattr(module, "path_factor_violation", counted)
    for method in ("search", "oracle", "via24", "transversal"):
        calls.clear()
        code, out, _ = run(capsys, "factor", "--in", str(gpath), "--method", method)
        assert (code, json.loads(out)["status"], len(calls)) == (0, "found", 1), method


def test_verify_accepts_and_rejects(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))
    cpath = tmp_path / "c.json"
    run(capsys, "color", "--in", str(gpath), "--factor", str(fpath), "--out", str(cpath))
    code, out, _ = run(capsys, "verify", "--in", str(gpath),
                       "--factor", str(fpath), "--coloring", str(cpath))
    assert code == 0
    assert "factor: ok" in out and "coloring: ok" in out

    broken = json.loads(cpath.read_text())
    broken["colors"] = [1] * len(broken["colors"])
    cpath.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "verify", "--in", str(gpath), "--coloring", str(cpath))
    assert code == 1 and "coloring: FAIL" in out

    code, _, err = run(capsys, "verify", "--in", str(gpath))
    assert code == 3 and "nothing to verify" in err

    factor = json.loads(fpath.read_text())
    del factor["paths"][0]
    fpath.write_text(json.dumps(factor))
    assert run(capsys, "verify", "--in", str(gpath), "--factor", str(fpath)) == (
        1, "factor: FAIL (vertices not covered: x0, x1, x11, x16, y0, y5, y10)\n", "")


def test_verify_cert_and_oracle(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "random", "--k", "1", "--seed", "0")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"edges": list(range(3, 12))}))
    code, out, _ = run(capsys, "verify", "--in", str(gpath), "--cert", str(cert))
    assert code == 0 and "cert: ok" in out
    cert.write_text(json.dumps({"edges": list(range(4, 12))}))
    code, out, _ = run(capsys, "verify", "--in", str(gpath), "--cert", str(cert))
    assert code == 1 and "cert: FAIL" in out

    code, out, _ = run(capsys, "verify", "--in", str(gpath), "--oracle")
    assert code == 0
    assert "oracle path factor: found" in out
    # ids listed twice are rejected, not merged into a passing certificate
    gpath = gen_file(capsys, tmp_path, "claw-triple")
    cert.write_text(json.dumps({"edges": list(range(3, 12)) + [3, 7]}))
    assert run(capsys, "verify", "--in", str(gpath), "--cert", str(cert)) == (
        3, "", "error: edge id 3 listed twice\n")
    gpath = gen_file(capsys, tmp_path, "claw-triple")
    code, out, _ = run(capsys, "verify", "--in", str(gpath), "--oracle")
    assert code == 1
    assert "oracle path factor: none (definitive)" in out
    # no factor, yet colorable: the factor route is sufficient, not necessary
    assert "oracle interval 6-coloring: found" in out


def test_oracle_commands_finish_on_a_deep_instance(capsys, tmp_path):
    """400 copies of K_{4,3}: a factor oracle recursing once per Y-vertex
    died here with RecursionError and exit code 1."""
    gpath = tmp_path / "k43x400.json"
    gpath.write_text(to_json(disjoint_k43(400)))
    code, out, err = run(capsys, "factor", "--in", str(gpath), "--method", "oracle")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"method": "oracle", "status": "found", "lengths": [6] * 400}
    code, out, err = run(capsys, "verify", "--in", str(gpath), "--oracle")
    assert (code, err) == (0, "")
    assert out == "oracle path factor: found\noracle interval 6-coloring: found\n"


def test_hunt_small_run(capsys, tmp_path):
    code, out, _ = run(capsys, "hunt", "--k", "1", "--trials", "5", "--seed", "3",
                       "--archive", str(tmp_path / "hits"))
    assert code == 0
    report = json.loads(out)
    assert report["tallies"] == {"factor": 5, "none": 0, "unknown": 0}
    assert report["counterexample_seeds"] == []
    assert not (tmp_path / "hits").exists()


def test_hunt_jobs_are_bit_identical(capsys, tmp_path):
    args = ["hunt", "--k", "2", "--trials", "40", "--seed", "11",
            "--archive", str(tmp_path / "hits")]
    code1, out1, _ = run(capsys, *args)
    code8, out8, _ = run(capsys, *args, "--jobs", "8")
    assert code1 == code8 == 0
    assert out1 == out8
    assert json.loads(out1)["tallies"]["factor"] == 40


def test_hunt_starts_no_more_workers_than_chunks(capsys, tmp_path, monkeypatch):
    # trials go out in chunks of 16; a pool that would idle is never started
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli.multiprocessing, "Pool", InlinePool)
    for trials, jobs, started in ((10, 8, []), (0, 8, []), (40, 8, [3]), (40, 2, [2]), (100, 8, [7])):
        args = ["hunt", "--k", "1", "--trials", str(trials), "--seed", "3",
                "--archive", str(tmp_path / "hits")]
        sizes.clear()
        code, out, _ = run(capsys, *args, "--jobs", str(jobs))
        assert sizes == started
        assert (code, out) == run(capsys, *args)[:2]


def test_hunt_bounded_out_reports_unknown(capsys, tmp_path):
    code, out, _ = run(capsys, "hunt", "--k", "2", "--trials", "6", "--seed", "0",
                       "--max-nodes", "6", "--archive", str(tmp_path / "hits"))
    assert code == 0
    assert json.loads(out)["tallies"] == {"factor": 0, "none": 0, "unknown": 6}


def test_hunt_archives_counterexamples(capsys, tmp_path, monkeypatch):
    # no real counterexample is known, so fake one trial result to pin
    # the archive-and-flag plumbing
    real = cli._hunt_trial

    def fake(task):
        k, seed, max_nodes = task
        if seed == 21:
            return "none", {"x_count": 4, "y_count": 3,
                            "edges": [[i, j] for i in range(4) for j in range(3)]}
        return real(task)

    monkeypatch.setattr(cli, "_hunt_trial", fake)
    archive = tmp_path / "hits"
    code, out, err = run(capsys, "hunt", "--k", "2", "--trials", "3", "--seed", "20",
                         "--archive", str(archive))
    assert code == 1
    report = json.loads(out)
    assert report["tallies"]["none"] == 1
    assert report["counterexample_seeds"] == [21]
    assert "COUNTEREXAMPLE" in err
    saved = archive / "counterexample_k2_seed21.json"
    assert from_json(saved.read_text()).edge_count == 12


def no_factor(g, max_nodes):
    return pathfactor.SearchResult("none", None, 0)


def test_hunt_archives_the_graph_it_drew(capsys, tmp_path, monkeypatch):
    # a search and a reference that both report no factor make every trial
    # a counterexample; each archived file holds its graph's JSON
    monkeypatch.setattr(cli, "search_proper_path_factor", no_factor)
    monkeypatch.setattr(cli, "pivot_path_factor", no_factor)
    archive = tmp_path / "hits"
    code, out, _ = run(capsys, "hunt", "--k", "2", "--trials", "2", "--seed", "5", "--archive", str(archive))
    assert code == 1 and json.loads(out)["counterexample_seeds"] == [5, 6]
    for seed in (5, 6):
        saved = (archive / f"counterexample_k2_seed{seed}.json").read_text()
        assert saved == to_json(random_34_biregular(2, seed=seed, simple_only=True))


def test_hunt_reports_its_seeds_when_the_archive_fails(capsys, tmp_path, monkeypatch):
    # an --archive naming a file cannot be written, which exits 3, but the
    # report with the counterexample seeds is already on stdout
    monkeypatch.setattr(cli, "search_proper_path_factor", no_factor)
    monkeypatch.setattr(cli, "pivot_path_factor", no_factor)
    archive = tmp_path / "afile"
    archive.write_text("")
    code, out, err = run(capsys, "hunt", "--k", "2", "--trials", "2", "--seed", "5", "--archive", str(archive))
    assert code == 3 and "File exists" in err
    assert json.loads(out)["counterexample_seeds"] == [5, 6]


def test_hunt_reports_each_confirmation_outcome(capsys, tmp_path, monkeypatch):
    # the search finds no factor anywhere; the reference, run under the same
    # node cap, confirms seed 30, finds a factor at 31 and runs out at 32
    monkeypatch.setattr(cli, "search_proper_path_factor", no_factor)
    caps = []

    def reference(g, max_nodes):
        caps.append(max_nodes)
        seed = next(s for s in range(30, 33) if g == random_34_biregular(2, seed=s, simple_only=True))
        return {
            30: pathfactor.SearchResult("none", None, 5),
            31: pathfactor.search_proper_path_factor(g),
            32: pathfactor.SearchResult("unknown", None, 1235),
        }[seed]

    monkeypatch.setattr(cli, "pivot_path_factor", reference)
    archive = tmp_path / "hits"
    code, out, err = run(capsys, "hunt", "--k", "2", "--trials", "3", "--seed", "30",
                         "--max-nodes", "1234", "--archive", str(archive))
    assert code == 1 and caps == [1234] * 3
    assert json.loads(out) == {
        "k": 2, "trials": 3, "seed": 30, "max_nodes": 1234,
        "tallies": {"factor": 0, "none": 2, "unknown": 0},
        "counterexample_seeds": [30, 32],
        "unconfirmed_seeds": [32],
        "search_oracle_disagreements": [31],
    }
    assert err.count("COUNTEREXAMPLE") == 2
    assert sorted(f.name for f in archive.iterdir()) == [
        "counterexample_k2_seed30.json", "counterexample_k2_seed32.json"]


def test_hunt_reports_no_unconfirmed_seeds_on_a_clean_run(capsys, tmp_path):
    code, out, _ = run(capsys, "hunt", "--k", "2", "--trials", "4", "--seed", "0",
                       "--archive", str(tmp_path / "hits"))
    assert code == 0
    report = json.loads(out)
    assert report["unconfirmed_seeds"] == [] and report["search_oracle_disagreements"] == []


def test_gen_two_eight_triples_output_pinned(capsys):
    # graph and bundled factor as the family wrote them when the pivot
    # search was still `search_proper_path_factor`
    code, out, err = run(capsys, "gen", "--family", "two-eight-triples", "--factor-out", "-")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2cb9c09ac258f9ca9b9d8151b7b4a4c5e72a7872674f9708134960bdbfe5734d")


def test_hunt_and_random_gen_output_pinned(capsys):
    # stdout as written while `random_34_biregular` drew on `rng.shuffle`
    # and the pair search read its adjacency from `g.x_adj` and `g.y_adj`
    pinned = {
        ("hunt", "--k", "3", "--trials", "200", "--seed", "1"):
            "fba76958ef9c47163d0e189a66f96f81275ebacd9bace1e61e6d85bde98526fc",
        ("gen", "--family", "random", "--k", "3", "--seed", "7"):
            "7c7b37004fd47cc4f78ffe3e5d0fa83d7aa4335a8ec38f9434320560ae860d9d",
        ("gen", "--family", "random", "--k", "3", "--seed", "7", "--multi"):
            "68d89236108cbf2b0996b773a174a955a406b610dfea2337f085568b52a2e608",
    }
    for args, want in pinned.items():
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want, args


def test_export_plain_and_colored(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))
    code, out, _ = run(capsys, "export", "--in", str(gpath))
    assert code == 0
    assert out.startswith("graph G {") and "x0 -- y0;" in out
    cpath = tmp_path / "c.json"
    run(capsys, "color", "--in", str(gpath), "--factor", str(fpath), "--out", str(cpath))
    dpath = tmp_path / "g.dot"
    code, _, _ = run(capsys, "export", "--in", str(gpath), "--coloring", str(cpath),
                     "--dot", str(dpath))
    assert code == 0 and "#e41a1c" in dpath.read_text()
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps({"palette_size": 6, "colors": [1, 2, 3]}))
    code, _, err = run(capsys, "export", "--in", str(gpath), "--coloring", str(bad))
    assert code == 3 and "coloring covers" in err


def test_verify_rejects_malformed_vertex_labels(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))
    good = json.loads(fpath.read_text())
    first = good["paths"][0][0]
    for bad in (first + "\n", first[0] + "\u0661" * len(first[1:])):
        broken = json.loads(fpath.read_text())
        broken["paths"][0][0] = bad
        bpath = tmp_path / "bad.json"
        bpath.write_text(json.dumps(broken))
        code, out, err = run(capsys, "verify", "--in", str(gpath), "--factor", str(bpath))
        assert code == 3 and "bad vertex label" in err and out == ""


def test_usage_errors_are_input_errors(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "random", "--k", "2", "--seed", "1")
    for args in (("factor", "--in", str(gpath), "--max-nodes", "abc"),
                 ("factor",),
                 ("bogus",),
                 ("hunt", "--k", "2")):
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, ""), args
        assert "error: " in err and "usage: interval6" in err, args
    for args in (("--help",), ("factor", "--help"), ("hunt", "--help")):
        code, out, _ = run(capsys, *args)
        assert code == 0 and out.startswith("usage: interval6"), args


def test_negative_counts_are_rejected(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "random", "--k", "2", "--seed", "1")
    hunt = ("hunt", "--k", "2", "--archive", str(tmp_path / "hits"))
    for args in [("factor", "--in", str(gpath), "--method", m, "--max-nodes", "-3")
                 for m in ("search", "via24", "transversal", "oracle")] + [
            hunt + ("--trials", "3", "--max-nodes", "-1"), hunt + ("--trials", "-5")]:
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, ""), args
        assert "expected a non-negative integer, got '-" in err, args
    for jobs in ("0", "-3"):  # a worker count must be positive
        code, out, err = run(capsys, *hunt, "--trials", "2", "--jobs", jobs)
        assert (code, out) == (3, ""), jobs
        assert f"expected a positive integer, got '{jobs}'" in err, jobs
    for k in ("0", "-2"):  # so must a size
        for args in [("gen", "--family", "random", "--k", k, "--out", str(tmp_path / "g0.json")),
                     ("hunt", "--k", k, "--trials", "0", "--archive", str(tmp_path / "hits"))]:
            code, out, err = run(capsys, *args)
            assert (code, out) == (3, ""), args
            assert f"expected a positive integer, got '{k}'" in err, args
    assert not (tmp_path / "g0.json").exists()
    assert not (tmp_path / "hits").exists()
    # zero stays a valid cap and trial count
    code, out, _ = run(capsys, "factor", "--in", str(gpath), "--max-nodes", "0")
    assert (code, json.loads(out)) == (2, {"method": "search", "status": "unknown", "reason": "budget", "nodes": 1})
    code, out, _ = run(capsys, *hunt, "--trials", "0")
    assert code == 0 and json.loads(out)["trials"] == 0


def test_out_of_memory_exits_unknown(capsys, tmp_path, monkeypatch):
    # a crash must not read as a definitive negative (exit 1)
    gpath = gen_file(capsys, tmp_path, "subset6")

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "search_proper_path_factor", no_memory)
    code, out, err = run(capsys, "factor", "--in", str(gpath))
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_unwritable_outputs_are_input_errors(capsys, tmp_path):
    """An output that cannot be written is an input error, reported in one
    line that names it; a factor that was found does not turn into exit 1."""
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    cpath = tmp_path / "c.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))
    run(capsys, "color", "--in", str(gpath), "--factor", str(fpath), "--out", str(cpath))
    missing = tmp_path / "missing"
    for args, dest in (
            (("factor", "--in", str(gpath)), ("--out", missing / "f.json")),
            (("color", "--in", str(gpath), "--factor", str(fpath)), ("--out", missing / "c.json")),
            (("export", "--in", str(gpath), "--coloring", str(cpath)), ("--dot", missing / "g.dot")),
            (("gen", "--family", "subset6"), ("--out", missing / "g.json"))):
        code, out, err = run(capsys, *args, dest[0], str(dest[1]))
        assert (code, out) == (3, ""), args
        assert err.startswith("error: ") and err.count("\n") == 1 and str(dest[1]) in err, args
    assert not missing.exists()


def test_internal_errors_exit_unknown_with_a_traceback(capsys, tmp_path, monkeypatch):
    # a broken invariant is a bug: it decides nothing, so it never reads as exit 1
    gpath = tmp_path / "g.json"
    fpath = tmp_path / "f.json"
    run(capsys, "gen", "--family", "subset6", "--out", str(gpath), "--factor-out", str(fpath))

    def broken(*args, **kwargs):
        raise InvariantError("odd cycle in a bipartite graph")

    monkeypatch.setattr(cli, "color_from_factor", broken)
    monkeypatch.setattr(cli, "search_proper_path_factor", broken)
    for args in (("color", "--in", str(gpath), "--factor", str(fpath)), ("factor", "--in", str(gpath))):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, ""), args
        assert err.startswith("Traceback (most recent call last):"), args
        assert err.endswith("InvariantError: odd cycle in a bipartite graph\n"), args


def test_gen_simple_and_multi_conflict_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "--family", "random", "--k", "2", "--simple", "--multi",
                         "--out", str(tmp_path / "g.json"))
    assert (code, out) == (3, "")
    assert "usage: interval6 gen" in err and "--multi: not allowed with argument --simple" in err
    assert not (tmp_path / "g.json").exists()


def test_graph_from_stdin(capsys, tmp_path, monkeypatch):
    gpath = gen_file(capsys, tmp_path, "claw-triple")
    want = run(capsys, "factor", "--in", str(gpath), "--method", "oracle")
    assert want[0] == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(gpath.read_text()))
    assert run(capsys, "factor", "--in", "-", "--method", "oracle") == want


def test_unreadable_certificates_are_input_errors(capsys, tmp_path):
    gpath = gen_file(capsys, tmp_path, "subset6")
    garbled = tmp_path / "garbled.json"
    garbled.write_text('{"paths": [')
    missing = tmp_path / "missing.json"
    for command, option, path, what in (
            ("color", "--factor", missing, "factor"),
            ("verify", "--factor", garbled, "factor"),
            ("verify", "--coloring", garbled, "coloring"),
            ("export", "--coloring", missing, "coloring"),
            ("verify", "--cert", missing, "subgraph certificate")):
        code, out, err = run(capsys, command, "--in", str(gpath), option, str(path))
        assert (code, out) == (3, ""), (command, option)
        assert err.startswith(f"error: cannot read {what} from {path}: "), (command, option)
        assert err.count("\n") == 1, (command, option)
