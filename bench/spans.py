"""Span recorder for the benchmark's traced run.

`Tracer.install` wraps each library function listed in `TARGETS` at
every binding a caller resolves: the defining module's attribute and
every `interval6` (or benchmark) module global that holds the same
function object. So `coloring.build_q`, `pathfactor.build_q` and the
call inside `build_pgraph` are all timed, without editing the library.
Only the traced run installs a tracer; `uninstall` puts the originals
back.

A span is (name, start, end, parent span index, instance id, note).
Spans stay in memory and are written out once by `write`. A layer's
self time (`busy_s`) is its spans' durations minus the time covered by
their direct children; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

from interval6.errors import BudgetExceeded

# (module, function, span name). The benchmark's own JSON helpers count
# as the checker's serialisation layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("interval6.bigraph", "from_json", "bigraph.from_json"),
    ("interval6.bigraph", "to_json", "bigraph.to_json"),
    ("interval6.bigraph", "components", "bigraph.components"),
    ("interval6.bigraph", "eulerian_circuit", "bigraph.eulerian_circuit"),
    ("interval6.bigraph", "delete_y", "bigraph.delete_y"),
    ("interval6.checker", "path_factor_violation", "checker.path_factor_violation"),
    ("interval6.checker", "check_proper", "checker.check_proper"),
    ("interval6.checker", "interval_violation", "checker.interval_violation"),
    ("interval6.checker", "check_full_3regular", "checker.check_full_3regular"),
    ("interval6.coloring", "color_from_factor", "coloring.color_from_factor"),
    ("interval6.pathfactor", "find_y_cover", "pathfactor.find_y_cover"),
    ("interval6.pathfactor", "p7_factor_via_24", "pathfactor.p7_factor_via_24"),
    ("interval6.pathfactor", "p3_half_factor", "pathfactor.p3_half_factor"),
    ("interval6.pathfactor", "search_full_3regular", "pathfactor.search_full_3regular"),
    ("interval6.pathfactor", "search_proper_path_factor", "pathfactor.search_proper_path_factor"),
    ("interval6.pathfactor", "build_q", "pathfactor.build_q"),
    ("interval6.pathfactor", "build_pgraph", "pathfactor.build_pgraph"),
    ("interval6.pathfactor", "two_color_pgraph", "pathfactor.two_color_pgraph"),
    ("interval6.transversal", "proper_3_edge_color", "transversal.proper_3_edge_color"),
    ("interval6.transversal", "build_f", "transversal.build_f"),
    ("interval6.transversal", "find_mixed_transversal", "transversal.find_mixed_transversal"),
    ("interval6.transversal", "factor_from_mixed_transversal", "transversal.factor_from_mixed_transversal"),
    ("interval6.generators", "random_34_biregular", "generators.random_34_biregular"),
    ("interval6.oracle", "oracle_path_factor", "oracle.oracle_path_factor"),
    ("workloads", "dump_factor", "checker.json"),
    ("workloads", "load_factor", "checker.json"),
    ("workloads", "dump_coloring", "checker.json"),
    ("workloads", "load_coloring", "checker.json"),
)


def _note(name: str, result) -> str | None:
    """What a span's result says beyond its duration, for the counters."""
    if name == "pathfactor.search_proper_path_factor":
        return f"{result.status}:{result.nodes}"
    if name == "transversal.find_mixed_transversal":
        if result is None:
            return "none"
        return ",".join(p.case for p in result.parts)
    if name == "pathfactor.p7_factor_via_24":
        return "found" if result is not None else "none"
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.instance = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            note = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                note = _note(name, out)
                return out
            except BudgetExceeded:
                note = "budget_stop"
                raise
            except Exception:
                note = "raised"
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.instance, note)

        return traced

    def install(self) -> None:
        """Wrap every target at every binding that resolves to it."""
        holders = [m for n, m in sys.modules.items() if n == "interval6" or n.startswith("interval6.")]
        holders.append(sys.modules["workloads"])
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name)
            for mod in holders:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """All spans as JSON lines, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, inst, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst, "note": note}))
                fh.write("\n")


def layer_stats(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, notes.

    Only spans of timed instances count, except that `bigraph.to_json`
    runs only while the pool is built (instance id "setup") and is
    counted there.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, inst, note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "busy_s": 0.0, "notes": []})
    for sid, (name, start, end, parent, inst, note) in enumerate(spans):
        if inst == "setup" and name != "bigraph.to_json":
            continue
        st = stats[name]
        st["calls"] += 1
        st["total_s"] += end - start
        st["busy_s"] += end - start - child_time[sid]
        if note is not None:
            st["notes"].append(note)
    return stats


def per_layer_metrics(stats: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    def get(name: str) -> dict:
        return stats.get(name, {"calls": 0, "total_s": 0.0, "busy_s": 0.0, "notes": []})

    out: dict[str, tuple[float, str]] = {}

    def calls(name: str) -> None:
        out[f"{name}.calls"] = (get(name)["calls"], "count")

    def busy(name: str) -> None:
        out[f"{name}.busy_s"] = (get(name)["busy_s"], "s")

    for name in ("pathfactor.find_y_cover", "pathfactor.search_full_3regular",
                 "pathfactor.p3_half_factor", "bigraph.eulerian_circuit",
                 "pathfactor.search_proper_path_factor", "pathfactor.build_q",
                 "coloring.color_from_factor", "checker.path_factor_violation",
                 "checker.check_proper", "transversal.find_mixed_transversal",
                 "oracle.oracle_path_factor"):
        calls(name)
        busy(name)
    for name in ("bigraph.components", "bigraph.delete_y", "pathfactor.build_pgraph",
                 "pathfactor.two_color_pgraph", "checker.interval_violation",
                 "checker.check_full_3regular", "checker.json", "bigraph.from_json",
                 "bigraph.to_json", "transversal.proper_3_edge_color", "transversal.build_f",
                 "transversal.factor_from_mixed_transversal", "generators.random_34_biregular"):
        busy(name)

    out["pathfactor.search_full_3regular.budget_stops"] = (
        get("pathfactor.search_full_3regular")["notes"].count("budget_stop"), "count")

    factors = get("pathfactor.p7_factor_via_24")["notes"].count("found")
    half = get("pathfactor.p3_half_factor")["calls"]
    out["pathfactor.p3_half_factor.calls_per_factor"] = (half / factors if factors else 0.0, "ratio")

    search = get("pathfactor.search_proper_path_factor")
    statuses = [n.split(":") for n in search["notes"]]
    nodes = sum(int(n) for _, n in statuses)
    out["pathfactor.search_proper_path_factor.nodes"] = (nodes, "count")
    out["pathfactor.search_proper_path_factor.nodes_per_s"] = (
        nodes / search["total_s"] if search["total_s"] else 0.0, "1/s")
    for status in ("found", "none", "unknown"):
        out[f"pathfactor.search_proper_path_factor.{status}"] = (
            sum(1 for s, _ in statuses if s == status), "count")

    mixed = get("transversal.find_mixed_transversal")["notes"]
    out["transversal.find_mixed_transversal.none"] = (mixed.count("none"), "count")
    cases = [c for n in mixed if n != "none" for c in n.split(",")]
    out["transversal.find_mixed_transversal.parts_independent"] = (cases.count("independent"), "count")
    out["transversal.find_mixed_transversal.parts_spread"] = (cases.count("spread"), "count")
    return out
