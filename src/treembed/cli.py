"""Command line harness.

Subcommands: gen, check, verify-example, sweep, stress.  Exit codes: 0 for
embedded or confirmed, 1 for not-embedded or a counterexample, 2 for usage
and parse errors, 3 for inconclusive (timeout, unknown, out of memory, or a
stress trial that answered timeout or unknown or whose refutation its
recheck could not confirm, when no trial is a confirmed counterexample), so
CI scripts can assert outcomes directly.
`main(argv)` keeps them when called repeatedly in one process; it builds
its parser on the first call.

Every command with fixed arguments and seed produces byte-identical
primary output; wall-clock timings only appear where explicitly requested.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Optional

from .embedding import (
    Budget,
    EmbedVerdict,
    Verdict,
    auto_embed,
    exact_embed,
    greedy_min_degree_embed,
    strategy_embed,
)
from .families import (
    ExtremalParams,
    broom_tree,
    complete_bipartite,
    matched_wing_degree_forms,
    matched_wing_host,
    two_wing_degree_forms,
    two_wing_host,
    wing_clique_degree_forms,
    wing_clique_host,
)
from .formats import (
    InstanceReport,
    ParseError,
    graph_to_dimacs,
    graph_to_json,
    parse_graph_file,
    witness_to_text,
)
from .graphs import GraphError, TreeGraph, degree_stats
from .randgen import random_host, random_tree, trial_seed
from .rational import as_fraction
from .structure import verify_broom_obstruction

_VERDICT_NAMES = {
    Verdict.EMBEDDED: "Embedded",
    Verdict.NOT_EMBEDDED: "NotEmbedded",
    Verdict.UNKNOWN: "Unknown",
    Verdict.TIMEOUT: "Timeout",
}

_EXIT_BY_VERDICT = {
    Verdict.EMBEDDED: 0,
    Verdict.NOT_EMBEDDED: 1,
    Verdict.UNKNOWN: 3,
    Verdict.TIMEOUT: 3,
}

_HOST_BUILDERS = {
    "h": two_wing_host,
    "g": wing_clique_host,
    "hprime": matched_wing_host,
}

# node cap keeping stress verdicts independent of machine speed
_STRESS_NODE_BUDGET = 200_000


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treembed",
        description="generate, check, and stress tree containment instances",
    )
    seed = _flag("--seed", type=int, default=0, help="master seed")
    timeout = _flag(
        "--timeout-ms", type=float, default=None, dest="timeout_ms",
        help="wall clock budget per solver call",
    )
    out = _flag("--out", default=None, help="output file (default stdout)")
    fmt = _flag(
        "--format", choices=("json", "dimacs"), default="json", help="graph file format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[out, fmt], help="write a generated graph")
    p.add_argument(
        "--family", required=True, choices=("h", "g", "hprime", "broom", "kbip")
    )
    p.add_argument("--ell", type=int, help="number of wings/stars (odd, >= 3)")
    p.add_argument("--c", type=int, help="width multiplier")
    p.add_argument("--k", type=int, help="tree edge count the host is tuned to")
    p.add_argument("--stars", help="comma list of star orders, e.g. 4,4,4")
    p.add_argument("--n1", type=int, help="first side of the complete bipartite host")
    p.add_argument("--n2", type=int, help="second side of the complete bipartite host")

    p = sub.add_parser("check", parents=[timeout], help="embed a tree file in a host file")
    p.add_argument("--tree", required=True, help="tree graph file")
    p.add_argument("--host", required=True, help="host graph file")
    p.add_argument(
        "--solver", choices=("exact", "greedy", "strategy", "auto"), default="auto"
    )
    p.add_argument("--max-nodes", type=int, default=None, dest="max_nodes")
    p.add_argument("--witness-out", default=None, dest="witness_out")

    p = sub.add_parser(
        "verify-example", parents=[timeout],
        help="confirm a non-embedding claim for an extremal pair",
    )
    p.add_argument("--family", required=True, choices=("h", "g", "hprime"))
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--c", type=int, required=True)

    p = sub.add_parser("sweep", parents=[out], help="CSV of host degree facts")
    p.add_argument("--family", choices=("h", "g", "hprime"), default="h")
    p.add_argument("--ell-list", required=True, dest="ell_list", help="e.g. 3,5,7")
    p.add_argument("--c-list", required=True, dest="c_list", help="e.g. 1,2,3")

    p = sub.add_parser(
        "stress", parents=[seed, timeout, out], help="random embed trials, JSONL out"
    )
    p.add_argument("--k", type=int, required=True, help="tree edge count")
    p.add_argument("--n", type=int, required=True, help="host order")
    p.add_argument("--alpha", default="0.0", help="degree condition parameter")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument(
        "--max-tree-degree", type=int, default=None, dest="max_tree_degree"
    )
    p.add_argument(
        "--timings", action="store_true",
        help="include elapsed_ms (breaks byte-identical reruns)",
    )
    return parser


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise GraphError(f"{flag} must be a comma list of integers, got {text!r}") from None
    if not values:
        raise GraphError(f"{flag} must be nonempty")
    return values


def _need(args: argparse.Namespace, family: str, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise GraphError(f"family {family} requires {', '.join(missing)}")


def _write_text(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def run_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family in _HOST_BUILDERS:
        _need(args, family, "ell", "c", "k")
        tagged = _HOST_BUILDERS[family](ExtremalParams(args.ell, args.c, args.k))
        graph, parts, meta = tagged.graph, tagged.parts, dict(tagged.meta)
    elif family == "broom":
        _need(args, family, "stars")
        stars = _parse_int_list(args.stars, "--stars")
        if len(set(stars)) != 1:
            raise GraphError(f"star orders must all be equal, got {args.stars}")
        if stars[0] < 1:
            raise GraphError("star orders must be positive")
        ell, k = len(stars), sum(stars)
        tree = broom_tree(ell, k)
        graph = tree.graph
        parts = {"hub": (0,)}
        meta = {"family": "broom", "ell": ell, "k": k}
    else:
        _need(args, family, "n1", "n2")
        tagged = complete_bipartite(args.n1, args.n2)
        graph, parts, meta = tagged.graph, tagged.parts, dict(tagged.meta)
    meta["parts"] = {name: len(vs) for name, vs in parts.items()}
    text = graph_to_json(graph, meta) if args.format == "json" else graph_to_dimacs(graph)
    _write_text(args.out, text)
    stats = degree_stats(graph)
    info = sys.stdout if args.out is not None else sys.stderr
    print("parts: " + " ".join(f"{name}={len(vs)}" for name, vs in parts.items()), file=info)
    print(
        f"n={graph.n} m={graph.m} delta={stats.min_degree} Delta={stats.max_degree}",
        file=info,
    )
    return 0


def _budget_from(args: argparse.Namespace) -> Optional[Budget]:
    nodes = args.max_nodes
    if nodes is not None and nodes < 0:
        raise GraphError(f"--max-nodes must be nonnegative, got {nodes}")
    if args.timeout_ms is None and nodes is None:
        return None
    return Budget(max_nodes=nodes, time_ms=args.timeout_ms)


def run_check(args: argparse.Namespace) -> int:
    tree_graph, _ = parse_graph_file(args.tree)
    host, _ = parse_graph_file(args.host)
    try:
        tree = TreeGraph(tree_graph)
    except GraphError as exc:
        raise GraphError(f"{args.tree} is not a tree: {exc}") from exc
    budget = _budget_from(args)
    if args.solver == "exact":
        verdict = exact_embed(tree, host, budget=budget)
    elif args.solver == "greedy":
        verdict = greedy_min_degree_embed(tree, host)
    elif args.solver == "strategy":
        verdict = strategy_embed(tree, host, budget=budget)
    else:
        verdict = auto_embed(tree, host, budget=budget)
    print(_VERDICT_NAMES[verdict.kind])
    if verdict.detail:
        print(f"detail: {verdict.detail}")
    if args.witness_out is not None and verdict.kind is Verdict.EMBEDDED:
        Path(args.witness_out).write_text(witness_to_text(verdict.embedding))
    return _EXIT_BY_VERDICT[verdict.kind]


def run_verify_example(args: argparse.Namespace) -> int:
    family = args.family
    k = args.c * args.ell * (args.ell + 1)
    params = ExtremalParams(args.ell, args.c, k)
    host = _HOST_BUILDERS[family](params).graph
    tree = broom_tree(args.ell, k)
    pieces = []
    cert_ok = True
    if family == "h":
        cert = verify_broom_obstruction(args.ell, args.c, k)
        cert_ok = cert.holds
        pieces.append("certificate holds" if cert_ok else "certificate fails")
    budget = Budget(time_ms=args.timeout_ms) if args.timeout_ms is not None else None
    verdict = exact_embed(tree, host, budget=budget)
    pieces.append(f"oracle: {_VERDICT_NAMES[verdict.kind]}")
    if verdict.kind is Verdict.NOT_EMBEDDED and cert_ok:
        pieces.append("CONFIRMED")
        code = 0
    elif verdict.kind is Verdict.TIMEOUT:
        if family == "h" and cert_ok:
            pieces.append("INCONCLUSIVE (certificate-only confirmation)")
        else:
            pieces.append("INCONCLUSIVE")
        code = 3
    else:
        pieces.append("REFUTED")
        code = 1
    print("; ".join(pieces))
    return code


_SWEEP_COLUMNS = [
    "family", "ell", "c", "k", "n", "m", "delta", "Delta",
    "delta_form", "Delta_form", "delta_matches", "Delta_matches",
    "delta_ge_half_k", "certificate_holds", "alpha_low", "alpha_high",
]


def run_sweep(args: argparse.Namespace) -> int:
    family = args.family
    ells = _parse_int_list(args.ell_list, "--ell-list")
    cs = _parse_int_list(args.c_list, "--c-list")
    lines = [",".join(_SWEEP_COLUMNS)]
    for ell in ells:
        for c in cs:
            k = c * ell * (ell + 1)
            params = ExtremalParams(ell, c, k)
            graph = _HOST_BUILDERS[family](params).graph
            stats = degree_stats(graph)
            if family == "h":
                delta_form, big_delta_form = two_wing_degree_forms(params)
                certificate = str(verify_broom_obstruction(ell, c, k).holds)
            elif family == "g":
                delta_form, big_delta_form, _realized = wing_clique_degree_forms(params)
                certificate = "n/a"
            else:
                delta_form, big_delta_form = matched_wing_degree_forms(params)
                certificate = "n/a"
            row = {
                "family": family,
                "ell": ell,
                "c": c,
                "k": k,
                "n": graph.n,
                "m": graph.m,
                "delta": stats.min_degree,
                "Delta": stats.max_degree,
                "delta_form": delta_form,
                "Delta_form": big_delta_form,
                "delta_matches": stats.min_degree == delta_form,
                "Delta_matches": stats.max_degree == big_delta_form,
                "delta_ge_half_k": Fraction(stats.min_degree) >= Fraction(k, 2),
                "certificate_holds": certificate,
                "alpha_low": 1 - Fraction(stats.max_degree, 2 * k),
                "alpha_high": Fraction(2 * stats.min_degree, k) - 1,
            }
            lines.append(",".join(str(row[col]) for col in _SWEEP_COLUMNS))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def run_stress(args: argparse.Namespace) -> int:
    k, n = args.k, args.n
    if k < 1:
        raise GraphError(f"k must be positive, got {k}")
    if args.trials < 0:
        raise GraphError(f"--trials must be nonnegative, got {args.trials}")
    if n < k + 1:
        raise GraphError(f"n={n} cannot host a tree with {k} edges (need n >= {k + 1})")
    try:
        alpha = as_fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise GraphError(f"--alpha must be a rational number, got {args.alpha!r}") from None
    if not (0 <= alpha < Fraction(1, 3)):
        raise GraphError(f"alpha must be in [0, 1/3), got {alpha}")
    if ceil(2 * (1 - alpha) * k) > n - 1:
        raise GraphError(
            f"maximum degree bound 2(1-alpha)k = {2 * (1 - alpha) * k} "
            f"exceeds the {n - 1} available neighbors"
        )
    out = open(args.out, "w") if args.out is not None else sys.stdout
    counterexamples = inconclusive = 0
    try:
        for i in range(args.trials):
            seed = trial_seed(args.seed, i)
            rng = random.Random(seed)
            tree = random_tree(k, rng, max_degree=args.max_tree_degree)
            host = random_host(n, k, alpha, rng)
            budget = Budget(max_nodes=_STRESS_NODE_BUDGET, time_ms=args.timeout_ms)
            t0 = time.perf_counter()
            verdict = auto_embed(tree, host, budget=budget)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            counterexample = False
            if verdict.kind is Verdict.NOT_EMBEDDED:
                # an independent search: no symmetry reductions, same budget
                recheck = exact_embed(tree, host, budget=budget, symmetry=False)
                if recheck.kind is Verdict.EMBEDDED:
                    raise RuntimeError(
                        "solver bug: NotEmbedded, but a search without "
                        "symmetry reductions embeds the tree"
                    )
                counterexample = recheck.kind is Verdict.NOT_EMBEDDED
            counterexamples += counterexample
            # a timeout, an unknown, or a refutation the recheck left open
            inconclusive += verdict.kind is not Verdict.EMBEDDED and not counterexample
            stats = degree_stats(host)
            report = InstanceReport(
                instance_id=f"stress-{args.seed}-{i:04d}",
                family="random",
                params={
                    "k": k,
                    "n": n,
                    "alpha": str(alpha),
                    "max_tree_degree": args.max_tree_degree,
                },
                n=host.n,
                m=host.m,
                min_degree=stats.min_degree,
                max_degree=stats.max_degree,
                k=k,
                verdict=verdict.kind.value,
                counterexample=counterexample,
                witness=verdict.embedding if verdict.kind is Verdict.EMBEDDED else None,
                nodes_explored=verdict.nodes_explored,
                seed=seed,
                elapsed_ms=elapsed_ms,
            )
            out.write(report.to_jsonl(include_timings=args.timings) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    # an inconclusive trial, such as a refutation the recheck could not
    # confirm, may still hide a counterexample
    return 1 if counterexamples else 3 if inconclusive else 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # by name when called, so a rebound cli.run_<command> is the one that runs
    run = globals()["run_" + args.command.replace("-", "_")]
    try:
        # also rejects nan, which would leave the wall clock unarmed
        timeout_ms = getattr(args, "timeout_ms", None)
        if timeout_ms is not None and not timeout_ms >= 0:
            raise GraphError(f"--timeout-ms must be nonnegative, got {timeout_ms}")
        return run(args)
    except (GraphError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the run is inconclusive", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
