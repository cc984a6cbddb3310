"""Command-line front end.

Subcommands: gen, factor, color, verify, hunt, export. All file formats
are the JSON shapes defined in bigraph and checker; "-" means stdin or
stdout. Exit codes: 0 success or verified, 1 definitive negative, 2
unknown, bounded out, out of memory or an internal error (shown with its
traceback), 3 input error: bad usage or a file that cannot be read or
written. Commands raise and `main` alone maps exceptions to codes, so 0
and 1 come only from a command that finished.
"""

import argparse
import json
import multiprocessing
import os
import sys
import traceback
from typing import Any, Callable, NoReturn

from .bigraph import BipartiteMultigraph, from_json, to_dict, to_dot, to_json
from .checker import (
    EdgeColoring,
    PathFactor,
    _coloring_scan,
    cert_from_dict,
    check_full_3regular,
    coloring_from_dict,
    coloring_to_dict,
    factor_from_dict,
    factor_to_dict,
    path_factor_violation,
)
from .coloring import PALETTE, color_from_factor, color_summary
from .errors import BudgetExceeded
from .generators import (
    claw_triple_graph,
    eight_triples_graph,
    random_34_biregular,
    subset_graph_6,
    two_eight_triples,
)
from .oracle import oracle_interval_coloring, oracle_path_factor
from .pathfactor import (
    p7_factor_via_24,
    pivot_path_factor,
    search_full_3regular,
    search_proper_path_factor,
)
from .transversal import factor_from_mixed_transversal

EXIT_OK = 0
EXIT_NONE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(path: str, what: str, parse: Callable[[str], Any] = json.loads) -> Any:
    """`parse` of the text at `path`; a file that cannot be read or parsed is an input error."""
    try:
        return parse(_read_text(path))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what} from {path}: {exc}") from exc


def _load_coloring(path: str, g: BipartiteMultigraph) -> EdgeColoring:
    """The coloring at `path`; an input error unless it has one color per edge of g."""
    coloring = coloring_from_dict(_load(path, "coloring"))
    if len(coloring.colors) != g.edge_count:
        raise ValueError(f"coloring covers {len(coloring.colors)} edges, graph has {g.edge_count}")
    return coloring


def _report(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_gen(args: argparse.Namespace) -> int:
    factor = None
    if args.family == "subset6":
        g, factor = subset_graph_6()
    elif args.family == "eight-triples":
        g = eight_triples_graph()
    elif args.family == "claw-triple":
        g = claw_triple_graph()
    elif args.family == "two-eight-triples":
        g, factor = two_eight_triples()
    else:
        if args.k is None:
            raise ValueError("--family random needs --k")
        g = random_34_biregular(args.k, seed=args.seed, simple_only=not args.multi)
    if args.factor_out and factor is None:  # refuse before writing anything
        raise ValueError(f"family {args.family} has no canonical factor")
    _write_text(args.out, to_json(g) + "\n")
    if args.factor_out:
        _write_text(args.factor_out, json.dumps(factor_to_dict(factor)) + "\n")
    return EXIT_OK


def _factor_lengths(factor: PathFactor) -> list[int]:
    return sorted(p.length for p in factor.paths)


def cmd_factor(args: argparse.Namespace) -> int:
    g = _load(args.graph, "graph", from_json)
    report: dict = {"method": args.method}
    if args.method == "search":
        res = search_proper_path_factor(g, max_nodes=args.max_nodes)
        report["status"] = res.status
        report["nodes"] = res.nodes
        if res.status == "unknown":
            report["reason"] = "budget"
        factor = res.factor
    elif args.method == "oracle":
        factor = oracle_path_factor(g)
        report["status"] = "found" if factor else "none"
    else:
        factor = None
        try:
            if args.method == "via24":
                factor = p7_factor_via_24(g, max_nodes=args.max_nodes)
                reason = "no-y-cover"
            else:
                cert = search_full_3regular(g, max_nodes=args.max_nodes)
                reason = "no-full-3regular-subgraph"
                if cert is not None:
                    factor = factor_from_mixed_transversal(g, cert)
                    reason = "no-mixed-transversal"
        except BudgetExceeded:
            reason = "budget"
        report["status"] = "unknown" if factor is None else "found"
        if factor is None:
            report["reason"] = reason

    if factor is not None:  # every method returns its factor checked
        report["lengths"] = _factor_lengths(factor)
        if args.out:
            _write_text(args.out, json.dumps(factor_to_dict(factor)) + "\n")
    _report(report)
    return {"found": EXIT_OK, "none": EXIT_NONE}.get(report["status"], EXIT_UNKNOWN)


def cmd_color(args: argparse.Namespace) -> int:
    g = _load(args.graph, "graph", from_json)
    factor = factor_from_dict(_load(args.factor, "factor"))
    try:
        coloring = color_from_factor(g, factor)  # checks the factor first
    except ValueError as exc:
        msg = str(exc)
        why = msg.removeprefix("not a proper path factor: ")
        if why == msg:
            raise
        raise ValueError(f"factor rejected: {why}") from None
    out = args.out or "-"
    _write_text(out, json.dumps(coloring_to_dict(coloring)) + "\n")
    if args.dot:
        _write_text(args.dot, to_dot(g, coloring.colors))
    if args.summary:
        for v, got in color_summary(g, coloring).items():
            print(f"{v.label}: {' '.join(map(str, got))}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.graph, "graph", from_json)
    if not (args.factor or args.coloring or args.cert or args.oracle):
        raise ValueError("nothing to verify: pass --factor, --coloring, --cert or --oracle")
    worst = EXIT_OK

    if args.factor:
        factor = factor_from_dict(_load(args.factor, "factor"))
        why = path_factor_violation(g, factor)
        if why is None:
            print(f"factor: ok ({len(factor.paths)} paths, lengths {_factor_lengths(factor)})")
        else:
            print(f"factor: FAIL ({why})")
            worst = max(worst, EXIT_NONE)

    if args.coloring:
        coloring = _load_coloring(args.coloring, g)
        proper, gap = _coloring_scan(g, coloring)  # one pass decides both
        if proper and gap is None:
            print(f"coloring: ok (proper interval, palette {coloring.palette_size})")
        else:
            why = "not proper" if not proper else f"colors {list(gap[1])} at {gap[0].label} are not consecutive"
            print(f"coloring: FAIL ({why})")
            worst = max(worst, EXIT_NONE)

    if args.cert:
        cert = cert_from_dict(_load(args.cert, "subgraph certificate"))
        if check_full_3regular(g, cert):
            print(f"cert: ok (full 3-regular subgraph, {len(cert.edge_set)} edges)")
        else:
            print("cert: FAIL (not a full 3-regular subgraph)")
            worst = max(worst, EXIT_NONE)

    if args.oracle:
        factor = oracle_path_factor(g)
        print(f"oracle path factor: {'found' if factor else 'none (definitive)'}")
        coloring = oracle_interval_coloring(g, PALETTE)
        print(f"oracle interval {PALETTE}-coloring: {'found' if coloring else 'none (definitive)'}")
        if factor is None or coloring is None:
            worst = max(worst, EXIT_NONE)

    return worst


def _hunt_trial(task: tuple[int, int, int]) -> tuple[str, dict | None]:
    k, seed, max_nodes = task
    g = random_34_biregular(k, seed=seed, simple_only=True)
    res = search_proper_path_factor(g, max_nodes=max_nodes)
    if res.status != "none":
        return res.status, None
    # a definitive miss is publishable; double-check with the pivot search,
    # which shares no search code with the per-Y engine, before shouting
    ref = pivot_path_factor(g, max_nodes=max_nodes).status
    return {"none": "none", "found": "disagree"}.get(ref, "unconfirmed"), to_dict(g)


def cmd_hunt(args: argparse.Namespace) -> int:
    tasks = [(args.k, args.seed + i, args.max_nodes) for i in range(args.trials)]
    chunk = 16
    workers = min(args.jobs, -(-len(tasks) // chunk))  # no more workers than chunks
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_hunt_trial, tasks, chunksize=chunk)
    else:
        results = [_hunt_trial(t) for t in tasks]

    tallies = {"factor": 0, "none": 0, "unknown": 0}
    hits = []
    disagreements = []
    unconfirmed = []
    for i, (status, graph) in enumerate(results):
        if status == "found":
            tallies["factor"] += 1
        elif status == "unknown":
            tallies["unknown"] += 1
        elif status == "disagree":
            disagreements.append(args.seed + i)
        else:  # "none", or "unconfirmed" when the reference hit its node cap
            tallies["none"] += 1
            hits.append({"seed": args.seed + i, "graph": graph})
            if status == "unconfirmed":
                unconfirmed.append(args.seed + i)

    _report({
        "k": args.k,
        "trials": args.trials,
        "seed": args.seed,
        "max_nodes": args.max_nodes,
        "tallies": tallies,
        "counterexample_seeds": [h["seed"] for h in hits],
        "unconfirmed_seeds": unconfirmed,
        "search_oracle_disagreements": disagreements,
    })
    # archive after reporting, so a failed write cannot lose the seeds
    if hits:
        os.makedirs(args.archive, exist_ok=True)
    for hit in hits:
        name = os.path.join(args.archive, f"counterexample_k{args.k}_seed{hit['seed']}.json")
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(hit["graph"], fh)
        print(f"COUNTEREXAMPLE: no proper path factor; archived {name}", file=sys.stderr)
    return EXIT_NONE if hits or disagreements else EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    g = _load(args.graph, "graph", from_json)
    colors = _load_coloring(args.coloring, g).colors if args.coloring else None
    _write_text(args.dot, to_dot(g, colors))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3, not argparse's 2, which here
    means unknown or bounded out. Subparsers are built from this class too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str, least: int = 0) -> int:
    """An integer option value of at least `least`: by default a non-negative one."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _positive(text: str) -> int:
    """A positive integer option value."""
    return _count(text, 1)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="interval6",
        description="Interval 6-colorings of (3,4)-biregular bipartite multigraphs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write an example or random instance")
    p.add_argument("--family", required=True,
                   choices=["subset6", "eight-triples", "claw-triple", "random", "two-eight-triples"])
    p.add_argument("--k", type=_positive, help="size parameter for --family random")
    p.add_argument("--seed", type=int, default=0)
    edges = p.add_mutually_exclusive_group()
    edges.add_argument("--simple", action="store_true", help="reject parallel edges (default)")
    edges.add_argument("--multi", action="store_true", help="allow parallel edges")
    p.add_argument("--out", default="-", help="graph JSON destination")
    p.add_argument("--factor-out", help="also write the family's canonical factor")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("factor", help="find a proper path factor")
    p.add_argument("--in", dest="graph", required=True, help="graph JSON")
    p.add_argument("--method", default="search",
                   choices=["search", "via24", "transversal", "oracle"])
    p.add_argument("--max-nodes", type=_count, default=10_000_000)
    p.add_argument("--out", help="factor JSON destination")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("color", help="interval 6-coloring from a factor")
    p.add_argument("--in", dest="graph", required=True, help="graph JSON")
    p.add_argument("--factor", required=True, help="factor JSON")
    p.add_argument("--out", help="coloring JSON destination (default stdout)")
    p.add_argument("--dot", help="also write DOT with colored edges")
    p.add_argument("--summary", action="store_true", help="print per-vertex color table")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check certificates against a graph")
    p.add_argument("--in", dest="graph", required=True, help="graph JSON")
    p.add_argument("--factor", help="path factor JSON")
    p.add_argument("--coloring", help="edge coloring JSON")
    p.add_argument("--cert", help="full 3-regular subgraph JSON")
    p.add_argument("--oracle", action="store_true",
                   help="exhaustive factor and coloring existence checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hunt", help="search random instances for counterexamples")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--trials", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--max-nodes", type=_count, default=10_000_000)
    p.add_argument("--archive", default="counterexamples",
                   help="directory for archived counterexample instances")
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("export", help="DOT rendering of a graph")
    p.add_argument("--in", dest="graph", required=True, help="graph JSON")
    p.add_argument("--coloring", help="edge coloring JSON for colored edges")
    p.add_argument("--dot", default="-", help="DOT destination (default stdout)")
    p.set_defaults(func=cmd_export)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # a crash decides nothing, so it must not read as a negative
        print("error: out of memory", file=sys.stderr)
        return EXIT_UNKNOWN
    except Exception:  # a bug decides nothing either
        traceback.print_exc()
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
