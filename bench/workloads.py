"""The benchmark's four workloads: instance pools, pipelines and checks.

A workload is a fixed mix of instance sizes. `build_pool` turns a
workload seed into a list of instances (a pool), all generated and
serialised up front; `attempt` pushes one instance through the same
public calls the CLI makes, passing JSON text between the steps, and
checks every certificate it produces with the library's checkers. Every
call into the library goes through a module attribute
(`pathfactor.p7_factor_via_24`, not a name imported into this module),
so the traced run sees each call at the binding it patches.

Why each workload exists (see README.md for the metric map):

- via24_cover: the exact cover in `find_y_cover` dominates; the only
  workload that runs the Euler half-factor code.
- transversal_core: the same exact-cover layer used the other way round
  (`search_full_3regular`), plus the independent, spread and failing
  transversal searches on the shipped link structures.
- hunt_search: what `interval6 hunt --trials 10 --jobs 1` does; factor
  search does nearly all the work and its cost per graph is heavy-tailed.
- certify_planted: `color` then `verify` on a given factor; no search at
  all, so coloring, checkers and JSON I/O set the pace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from interval6 import bigraph, checker, coloring, generators, oracle, pathfactor, transversal
from interval6.errors import BudgetExceeded

import planted

PALETTE = 6

# `interval6 hunt` and `factor --method search` default.
HUNT_MAX_NODES = 10_000_000
# Graphs per hunt_search instance, as `interval6 hunt --trials 10`. The
# cost of one graph has a power-law tail, so the 11th-slowest of a few
# thousand single graphs moved by 15-20% from seed to seed; a call's sum
# of ten moves far less.
HUNT_TRIALS = 10
# Node cap for `search_full_3regular` on transversal_core, about 1 s of
# search on a 2-core x86 box. Heavy-tailed instances stop here and count
# as undecided rather than stall a run.
CORE_MAX_NODES = 10_000


class CheckFailed(RuntimeError):
    """An output failed the benchmark's own check."""


@dataclass(frozen=True)
class Instance:
    label: str
    pipeline: Callable[..., str]
    args: tuple


@dataclass(frozen=True)
class Workload:
    mix: tuple[int, ...]  # k of each instance in one round of the pool
    rounds: int  # rounds in one pool; a run that gets through them starts over


# The mixes put the median instance in a dense part of one size class
# (k=100, k=20, k=3, k=500), so that instance_p50_s does not jump
# between classes from seed to seed, and keep the heavy-tailed sizes
# rare enough that a run's sum of instance times varies little with the
# seed. The pools hold about as many instances as one 30 s run visits.
WORKLOADS = {
    "via24_cover": Workload((100, 100, 100, 200), 40),
    "transversal_core": Workload((20, 20, 20, 30), 100),  # plus one link structure
    "hunt_search": Workload((3,), 400),
    "certify_planted": Workload((250, 500, 1000), 4),
}


def derive_seed(*parts) -> int:
    """A 63-bit seed from the workload seed and an instance's coordinates."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# --- JSON text between steps, as the CLI writes and reads it ---------

def dump_factor(factor: checker.PathFactor) -> str:
    return json.dumps(checker.factor_to_dict(factor))


def load_factor(text: str) -> checker.PathFactor:
    return checker.factor_from_dict(json.loads(text))


def dump_coloring(col: checker.EdgeColoring) -> str:
    return json.dumps(checker.coloring_to_dict(col))


def load_coloring(text: str) -> checker.EdgeColoring:
    return checker.coloring_from_dict(json.loads(text))


# --- independent checks ------------------------------------------------

def verify_factor(g: bigraph.BipartiteMultigraph, factor: checker.PathFactor) -> None:
    why = checker.path_factor_violation(g, factor)
    if why is not None:
        raise CheckFailed(f"factor rejected: {why}")


def verify_coloring(g: bigraph.BipartiteMultigraph, col: checker.EdgeColoring) -> None:
    if col.palette_size != PALETTE:
        raise CheckFailed(f"palette {col.palette_size}, want {PALETTE}")
    if not checker.check_proper(g, col):
        raise CheckFailed("coloring is not proper")
    bad = checker.interval_violation(g, col)
    if bad is not None:
        raise CheckFailed(f"colors {bad[1]} at {bad[0].label} are not consecutive")


def verify_transversal(f: transversal.FGraph, ts: transversal.TripleSystem,
                       mixed: transversal.MixedTransversal) -> None:
    """One member per triple; each part independent in F or spread along its cycles."""
    if len(mixed.members) != len(ts.triples):
        raise CheckFailed("transversal does not pick one member per triple")
    if any(y not in t for y, t in zip(mixed.members, ts.triples)):
        raise CheckFailed("transversal member outside its triple")
    if sorted(i for p in mixed.parts for i in p.indices) != list(range(len(ts.triples))):
        raise CheckFailed("transversal parts do not partition the triples")
    for part in mixed.parts:
        chosen = {mixed.members[i] for i in part.indices}
        if part.case == "independent":
            if any(e.u in chosen and e.v in chosen for e in f.edges):
                raise CheckFailed("independent part has two members joined in F")
            continue
        verts = {y for i in part.indices for y in ts.triples[i]}
        for cyc in f.cycles:
            if cyc[0] not in verts:
                continue
            pos = [i for i, y in enumerate(cyc) if y in chosen]
            if not pos or any(b - a > 4 for a, b in zip(pos, pos[1:] + [pos[0] + len(cyc)])):
                raise CheckFailed("spread part leaves a gap over 3 on an F-cycle")


def _round_trip(g, factor: checker.PathFactor) -> checker.EdgeColoring:
    """Factor JSON round trip, color, coloring JSON round trip; both compared for equality."""
    back = load_factor(dump_factor(factor))
    if back != factor:
        raise CheckFailed("factor JSON round trip changed the factor")
    col = coloring.color_from_factor(g, back)
    col_back = load_coloring(dump_coloring(col))
    if col_back != col:
        raise CheckFailed("coloring JSON round trip changed the coloring")
    return col_back


# --- pipelines: each returns a verdict "found" | "none" | "verified" | "unknown"

def run_via24(graph_text: str) -> str:
    g = bigraph.from_json(graph_text)
    factor = pathfactor.p7_factor_via_24(g)
    if factor is None:
        raise CheckFailed("via24 found no factor on a planted Y-cover")
    col = _round_trip(g, factor)
    verify_factor(g, factor)
    verify_coloring(g, col)
    return "verified"


def run_core(graph_text: str) -> str:
    g = bigraph.from_json(graph_text)
    try:
        cert = pathfactor.search_full_3regular(g, max_nodes=CORE_MAX_NODES)
    except BudgetExceeded:
        return "unknown"
    if cert is None:
        raise CheckFailed("no full 3-regular subgraph found on a planted one")
    if not checker.check_full_3regular(g, cert):
        raise CheckFailed("subgraph certificate rejected")
    factor = transversal.factor_from_mixed_transversal(g, cert)
    if factor is None:
        return "none"
    col = _round_trip(g, factor)
    verify_factor(g, factor)
    verify_coloring(g, col)
    return "verified"


def run_links(n: int, fedges: tuple, triples: tuple, expect_found: bool) -> str:
    f = transversal.FGraph(n, tuple(transversal.FEdge(u, v) for u, v in fedges))
    ts = transversal.TripleSystem(triples)
    mixed = transversal.find_mixed_transversal(f, ts)
    if mixed is None:
        if expect_found:
            raise CheckFailed("no mixed transversal where one exists")
        return "none"
    if not expect_found:
        raise CheckFailed("mixed transversal reported on a structure that has none")
    verify_transversal(f, ts, mixed)
    return "found"


def run_hunt(k: int, seed: int) -> str:
    """One hunt call over HUNT_TRIALS consecutive seeds: "unknown" if any
    search hit its budget, else "none" if any graph has no factor."""
    statuses = set()
    for s in range(seed, seed + HUNT_TRIALS):
        g = generators.random_34_biregular(k, seed=s, simple_only=True)
        res = pathfactor.search_proper_path_factor(g, max_nodes=HUNT_MAX_NODES)
        if res.status == "found":
            verify_factor(g, res.factor)
        elif res.status == "none" and oracle.oracle_path_factor(g) is not None:
            raise CheckFailed(f"seed {s}: search says none but the oracle found a factor")
        statuses.add(res.status)
    return next(v for v in ("unknown", "none", "found") if v in statuses)


def run_certify(graph_text: str, factor_text: str) -> str:
    g = bigraph.from_json(graph_text)
    factor = load_factor(factor_text)
    verify_factor(g, factor)
    col = coloring.color_from_factor(g, factor)
    col_back = load_coloring(dump_coloring(col))
    if col_back != col:
        raise CheckFailed("coloring JSON round trip changed the coloring")
    verify_coloring(g, col_back)
    return "verified"


# --- pools ---------------------------------------------------------------

def link_instances() -> list[Instance]:
    """The shipped link structures, with whether a mixed transversal exists."""
    out = []
    for label, (f, ts), found in (
        ("independent_obstruction(12)", generators.independent_obstruction(12), True),
        ("independent_obstruction(18)", generators.independent_obstruction(18), True),
        ("independent_obstruction(24)", generators.independent_obstruction(24), True),
        ("spread_obstruction(8)", generators.spread_obstruction(8), True),
        ("spread_obstruction(16)", generators.spread_obstruction(16), True),
        ("no_mixed_transversal_instance", generators.no_mixed_transversal_instance(), False),
    ):
        fedges = tuple((e.u, e.v) for e in f.edges)
        out.append(Instance(label, run_links, (f.n, fedges, ts.triples, found)))
    return out


def build_pool(name: str, seed: int, mix: tuple[int, ...] | None = None,
               rounds: int | None = None) -> list[Instance]:
    """Instances of one workload, in the order the run visits them.

    Each round holds one instance per entry of the mix (and, for
    transversal_core, the next shipped link structure). The i-th
    instance of size k gets a generator seed derived from (seed,
    workload, k, i). `mix` and `rounds` override the workload's own
    values; the smoke tests use toy sizes.
    """
    w = WORKLOADS[name]
    mix = w.mix if mix is None else mix
    rounds = w.rounds if rounds is None else rounds
    links = link_instances() if name == "transversal_core" else []
    drawn: dict[int, int] = {}
    pool: list[Instance] = []
    for r in range(rounds):
        for k in mix:
            i = drawn[k] = drawn.get(k, -1) + 1
            if name == "hunt_search":
                # consecutive seeds, as `interval6 hunt --k K --seed BASE` draws them
                s = derive_seed(seed, name, k) + i * HUNT_TRIALS
            else:
                s = derive_seed(seed, name, k, i)
            label = f"k={k} seed={s}"
            if name == "via24_cover":
                g, _ = planted.cover_instance(k, s)
                pool.append(Instance(label, run_via24, (bigraph.to_json(g),)))
            elif name == "transversal_core":
                g, _ = planted.core_instance(k, s)
                pool.append(Instance(label, run_core, (bigraph.to_json(g),)))
            elif name == "hunt_search":
                pool.append(Instance(label, run_hunt, (k, s)))
            else:
                g, factor = planted.factor_instance(k, s)
                pool.append(Instance(label, run_certify, (bigraph.to_json(g), dump_factor(factor))))
        if links:
            pool.append(links[r % len(links)])
    return pool


def attempt(inst: Instance) -> tuple[str | None, str | None]:
    """Run one instance: (verdict, None) on success, (None, reason) on failure.

    This is the boundary that must keep running, so any exception is a
    failed operation; a budget stop inside a pipeline is a verdict.
    """
    try:
        return inst.pipeline(*inst.args), None
    except CheckFailed as exc:
        return None, f"{inst.label}: {exc}"
    except Exception as exc:  # noqa: BLE001 - counted and reported, never a timing
        return None, f"{inst.label}: {type(exc).__name__}: {exc}"
