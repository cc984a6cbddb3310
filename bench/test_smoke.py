"""Smoke tests for the benchmark itself, at toy sizes.

    python3 -m pytest -q bench

They check that the planted generators' certificates hold, that every
workload's pipeline decides its toy instances without a failure, that
one command prints every metric BENCHMARK.json names with its unit, and
that a corrupted certificate is counted as a failed operation.
"""

import json
import subprocess
import sys

import pytest

import run

run.locate_sources()

from interval6 import coloring  # noqa: E402
from interval6.checker import EdgeColoring, check_full_3regular, check_proper_path_factor  # noqa: E402

import planted  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_planted_cover_and_core_hold(k, seed):
    g, cover = planted.cover_instance(k, seed)
    assert len(cover) == k and planted.is_y_cover(g, cover)
    g, cert = planted.core_instance(k, seed)
    assert check_full_3regular(g, cert)


@pytest.mark.parametrize("k", [1, 2, 8])
def test_planted_factor_holds(k):
    g, factor = planted.factor_instance(k, seed=k)
    assert check_proper_path_factor(g, factor)
    assert sum(p.length for p in factor.paths) == 6 * k
    if k == 8:
        assert {p.length for p in factor.paths} == {2, 4, 6, 8}


def test_generators_are_seeded():
    assert planted.factor_instance(2, 5) == planted.factor_instance(2, 5)
    assert planted.cover_instance(2, 5)[0] != planted.cover_instance(2, 6)[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_pools_decide_without_failure(name):
    mix = (3,) if name == "hunt_search" else (1, 2)
    for inst in workloads.build_pool(name, seed=3, mix=mix, rounds=2):
        verdict, failure = workloads.attempt(inst)
        assert failure is None
        assert verdict in run.DECIDED


def test_link_structures():
    verdicts = {}
    for inst in workloads.link_instances():
        verdict, failure = workloads.attempt(inst)
        assert failure is None, failure
        verdicts[inst.label] = verdict
    assert verdicts.pop("no_mixed_transversal_instance") == "none"
    assert set(verdicts.values()) == {"found"}


def test_corrupted_coloring_is_a_failure(monkeypatch):
    inst = workloads.build_pool("certify_planted", seed=0, mix=(2,), rounds=1)[0]
    honest = coloring.color_from_factor

    def corrupt(g, factor):
        col = list(honest(g, factor).colors)
        (e1, _), (e2, _) = g.x_adj[0][:2]
        col[e1] = col[e2]
        return EdgeColoring(tuple(col), 6)

    monkeypatch.setattr(coloring, "color_from_factor", corrupt)
    verdict, failure = workloads.attempt(inst)
    assert verdict is None and "not proper" in failure

    results = [(0.1, 0.1, None, failure), (0.2, 0.25, "verified", None)]
    metrics, _ = run.end_to_end(results, wall=0.3, setup_s=0.01)
    assert metrics["instance_p50_s"][0] == 0.25
    assert metrics["instances_per_s"][0] == 4.0
    assert metrics["decided_fraction"][0] == 0.5


def test_times_are_scaled_by_the_reference(monkeypatch):
    monkeypatch.setattr(run, "reference", lambda: 2 * run.REF_S)
    results, _ = run.measure(lambda inst: ("verified", None), [None], count=3)
    assert len(results) == 3
    for dt, norm, verdict, failure in results:
        assert norm == pytest.approx(dt / 2) and verdict == "verified" and failure is None


def test_palette_is_checked():
    g, factor = planted.factor_instance(1, 0)
    good = coloring.color_from_factor(g, factor)
    with pytest.raises(workloads.CheckFailed):
        workloads.verify_coloring(g, EdgeColoring(good.colors, 7))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(name, trace, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0.05", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {n: m["unit"] for n, m in out["metrics"].items()} == want
    for n, unit in want.items():
        assert any(line.startswith(f"{n} ") and line.endswith(f" {unit}") for line in proc.stdout.splitlines())
