"""Benchmark of the interval6 pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it holding `src/` and
`bench/`). One process, no extra threads, one instance at a time: a
closed loop over the workload's instance pool until S seconds have
passed. Every instance's certificates are checked; a failed check or an
unexpected exception is a failed operation, never a timing.

Times are machine-normalised: between slices of about SLICE_S seconds
of instances the run times a fixed piece of pure-Python work (the
reference), and each instance's seconds are scaled by REF_S over the
mean of the reference times on either side of its slice. On a shared
host whose speed drifts by tens of percent for tens of seconds at a
time this removes most of the drift, while a change to the library
still moves the figures in full. The raw wall-clock figures are printed
as comment lines.

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 the run first measures half the time
untraced, then patches the library's public functions (bench/spans.py),
replays the same instances traced, writes every span to
bench/results/, and prints the per-layer metrics instead. The process
exits 1 if any operation failed and 2 if the sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPS = 3  # set-up is timed this many times; the median is reported
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
DECIDED = ("found", "none", "verified")

REF_LOOPS = 20_000  # size of the reference work
# Roughly the reference's time on the 2-vCPU x86 VM the benchmark was
# written on (3.5-6 ms across its two speeds), so that normalised
# seconds read about as wall-clock seconds there.
REF_S = 0.004
SLICE_S = 0.25  # instances run between two reference timings


def locate_sources() -> None:
    """Put this checkout's src/ first on the path; exit 2 if it is missing."""
    if not (SRC / "interval6" / "__init__.py").is_file():
        print(f"error: no interval6 sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def import_library() -> None:
    """Import interval6 afresh, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "interval6" or n.startswith("interval6.")]:
        del sys.modules[name]
    lib = importlib.import_module("interval6")
    if Path(lib.__file__).resolve().parent != SRC / "interval6":
        print(f"error: imported interval6 from {lib.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def src_loc() -> int:
    """Non-blank, non-comment lines of the library's Python sources."""
    count = 0
    for path in sorted((SRC / "interval6").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            text = line.strip()
            if text and not text.startswith("#"):
                count += 1
    return count


def commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference() -> float:
    """Seconds the fixed reference work takes now: the machine's current speed."""
    start = perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(REF_LOOPS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        acc += i * 3 % 7
    return perf_counter() - start


def measure(attempt, pool, seconds: float | None = None, count: int | None = None,
            on_start=None) -> tuple[list[tuple[float, float, str | None, str | None]], float]:
    """Closed loop over `pool` for `seconds` (at least one instance), or for exactly `count`.

    Instances run in slices of about SLICE_S seconds with a reference
    timing before and after each slice. Returns (per-instance (seconds,
    normalised seconds, verdict, failure), wall seconds).
    """
    def more() -> bool:
        return (i == 0 or perf_counter() - start < seconds) if count is None else i < count

    results = []
    start = perf_counter()
    ref_before = reference()
    i = 0
    while more():
        timed = []
        slice_start = perf_counter()
        while more() and (not timed or perf_counter() - slice_start < SLICE_S):
            inst = pool[i % len(pool)]
            if on_start is not None:
                on_start(i)
            t0 = perf_counter()
            verdict, failure = attempt(inst)
            timed.append((perf_counter() - t0, verdict, failure))
            i += 1
        ref_after = reference()
        scale = 2 * REF_S / (ref_before + ref_after)
        results += [(dt, dt * scale, verdict, failure) for dt, verdict, failure in timed]
        ref_before = ref_after
    return results, perf_counter() - start


def end_to_end(results, wall: float, setup_s: float) -> tuple[dict, list[str]]:
    """End-to-end metrics as name -> (value, unit), plus report lines."""
    ok = [(dt, norm, verdict) for dt, norm, verdict, failure in results if failure is None]
    times = sorted(norm for _, norm, _ in ok)
    n = len(times)
    decided = sum(1 for _, _, verdict in ok if verdict in DECIDED)
    at = max(0, n - TAIL_BEYOND - 1)
    busy = sum(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (n / busy if busy else 0.0, "1/s"),
        "instance_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "instance_tail_s": (times[at] if times else 0.0, "s"),
        "decided_fraction": (decided / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = sorted(dt for dt, _, _ in ok)
    notes = [
        f"instance_tail_s is the p{100 * (at + 1) / max(n, 1):.1f} of {n} instance times",
        f"decided_fraction base: {decided} decided of {len(results)} attempted",
        f"wall clock: {n / wall if wall else 0.0:.6g} instances/s over {wall:.3g} s,"
        f" instance p50 {statistics.median(raw) if raw else 0.0:.6g} s,"
        f" tail {raw[at] if raw else 0.0:.6g} s",
        f"machine speed: normalised over raw instance time {busy / sum(raw) if raw else 1.0:.4f}",
    ]
    return metrics, notes


def timed_setup(step) -> float:
    """Normalised seconds `step()` takes, bracketed by reference timings."""
    ref_before = reference()
    start = perf_counter()
    step()
    took = perf_counter() - start
    return took * 2 * REF_S / (ref_before + reference())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    locate_sources()
    import_s = statistics.median(timed_setup(import_library) for _ in range(SETUP_REPS))
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    pools = []
    build_s = statistics.median(
        timed_setup(lambda: pools.append(workloads.build_pool(args.workload, args.seed)))
        for _ in range(SETUP_REPS))
    pool = pools[-1]
    setup_s = import_s + build_s

    if args.trace:
        results, metrics, notes = traced_run(workloads, args, pool)
    else:
        results, wall = measure(workloads.attempt, pool, seconds=args.seconds)
        metrics, notes = end_to_end(results, wall, setup_s)

    failures = [failure for _, _, _, failure in results if failure is not None]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} commit {commit()}"
          f" src_loc {src_loc()} pool {len(pool)}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


def traced_run(workloads, args, pool):
    """Untraced pass, then the same instances traced; per-layer metrics."""
    spans = importlib.import_module("spans")
    plain, _ = measure(workloads.attempt, pool, seconds=args.seconds / 2)

    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.build_pool(args.workload, args.seed)  # traced set-up, instance id "setup"
        traced, _ = measure(workloads.attempt, pool, count=len(plain),
                            on_start=lambda i: setattr(tracer, "instance", i))
    finally:
        tracer.uninstall()

    stats = spans.layer_stats(tracer.spans)
    metrics = spans.per_layer_metrics(stats)
    # the same instances in the same order, so normalised busy times compare
    metrics["trace.overhead"] = (sum(r[1] for r in traced) / sum(r[1] for r in plain), "ratio")
    metrics["repo.src_loc"] = (src_loc(), "count")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"spans_{args.workload}_seed{args.seed}.jsonl"
    tracer.write(str(out))
    busy = sorted(((st["busy_s"], name) for name, st in stats.items()), reverse=True)
    total = sum(b for b, _ in busy) or 1.0
    notes = [f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}",
             f"{len(traced)} instances traced; self-time shares:"]
    notes += [f"  {name} {b / total:.1%}" for b, name in busy[:6]]
    return plain + traced, metrics, notes


if __name__ == "__main__":
    sys.exit(main())
