"""Command-line front end.

Subcommands cover the whole pipeline: ``preprocess`` builds the
metric-independent artifact, ``customize`` joins it with a weight
function, ``query``/``knn`` answer batches against the customized
artifact, and ``bench`` runs everything end to end with a seeded query
workload and reports per-phase timings plus query statistics.

``preprocess`` and ``bench`` share one build stage (``_build``), and
``customize`` and ``bench`` one customization stage (``_customize``); each
stage's arguments are declared once, in a parent parser.

Exit codes: 0 success; ``EXIT_CODES`` maps each error class to its code:
2 parse errors (``FormatError`` included), 3 consistency errors, 4 state
errors, 5 I/O errors. Any other exception propagates (exit 1). Vertex
IDs in batch, source, and target files are 0-based original IDs; DIMACS
files stay 1-based.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from . import __version__
from .customize import Customized, customize, query_input_graph
from .errors import ConsistencyError, ParseError, StateError
from .formats import (export_order, import_order, load_cch, load_customized, load_dimacs_co,
                      load_dimacs_gr, load_metric, read_id_lines, read_pairs, save_cch,
                      save_customized)
from .graph import INFINITY, InputGraph
from .order import RankOrder, nested_dissection_order
from .preprocess import Cch, build_cch
from .query import (QueryState, RphastState, knn_dijkstra, knn_query, knn_select,
                    query, rphast_source, unpack_path)

BENCH_SCHEMA = "cchroute-bench/1"
EXIT_CODES = {ParseError: 2, ConsistencyError: 3, StateError: 4, OSError: 5}


def _check_positive(value: int, name: str) -> None:
    if value < 1:
        raise ConsistencyError(f"{name} must be at least 1")


def _check_threads(flag: int | None) -> None:
    """Require ``--threads``, else ``CCH_THREADS`` when it is set, to be a
    positive integer. Customization is sequential, so nothing reads it."""
    if flag is not None:
        _check_positive(flag, "--threads")
    elif env := os.environ.get("CCH_THREADS"):
        try:
            value = int(env)
        except ValueError:
            raise ConsistencyError(f"CCH_THREADS must be an integer, got {env!r}") from None
        _check_positive(value, "CCH_THREADS")


def _dump_decomposition(decomp, out) -> None:
    stack = [(decomp, 0)]
    while stack:
        node, depth = stack.pop()
        sep = node.cell_hi - node.sep_lo
        out.write("  " * depth
                  + f"cell [{node.cell_lo}, {node.cell_hi}) separator [{node.sep_lo}, {node.cell_hi})"
                  + f" ({sep} vertices)\n")
        for child in reversed(node.children):
            stack.append((child, depth + 1))


def _order(args, g: InputGraph) -> RankOrder:
    """The order file ``--order`` names, else the nested dissection order
    computed from ``--coords``; a command given neither exits 3."""
    if args.order:
        return import_order(args.order, g.vertex_count)
    if not args.coords:
        raise ConsistencyError(f"{args.command} needs --coords (to compute an order) or --order")
    return nested_dissection_order(g, load_dimacs_co(args.coords, g.vertex_count))


def _build(args, g: InputGraph) -> tuple[Cch, float, float]:
    """The hierarchy of ``g`` under ``_order``, with the seconds spent
    ordering and contracting."""
    t0 = time.perf_counter()
    order = _order(args, g)
    t1 = time.perf_counter()
    cch = build_cch(g, order=order)
    return cch, t1 - t0, time.perf_counter() - t1


def _customize(args, g: InputGraph, cch: Cch, timings: dict | None = None) -> Customized:
    """``cch`` customized with the ``--weights`` file, else ``g``'s weights."""
    weights = load_metric(args.weights, g) if args.weights else list(g.weight)
    return customize(cch, weights, use_perfect=not args.no_perfect, timings=timings)


def cmd_preprocess(args) -> int:
    g = load_dimacs_gr(args.graph)
    cch, order_s, contract_s = _build(args, g)
    save_cch(cch, args.out)
    if args.export_order:
        export_order(cch.order, args.export_order)
    if args.dump_decomposition:
        _dump_decomposition(cch.decomposition, sys.stdout)
    shortcuts = cch.ug.arc_count - len(g.undirected_edges())
    print(f"preprocessed {args.graph}: {g.vertex_count} vertices, {g.arc_count} arcs, "
          f"{cch.ug.arc_count} upward arcs ({shortcuts} shortcuts)")
    if g.dropped_self_loops:
        print(f"dropped {g.dropped_self_loops} self-loops at load time")
    print(f"ordering {order_s:.3f}s, contraction+tree {contract_s:.3f}s -> {args.out}")
    return 0


def cmd_customize(args) -> int:
    _check_threads(args.threads)
    g = load_dimacs_gr(args.graph)
    cch = load_cch(args.cch)
    cch.check_graph(g)
    times: dict = {}
    c = _customize(args, g, cch, times)
    save_customized(c, args.out)
    if args.json:
        print(json.dumps({"schema": BENCH_SCHEMA, "kind": "customize",
                          "perfect": not args.no_perfect, "seconds": times}))
    else:
        print(f"mode: {'basic only' if args.no_perfect else 'perfect'}")
        print("phase      seconds")
        for name in ("respect", "basic", "perfect", "construct", "total"):
            print(f"{name:<10} {times[name]:8.3f}")
    print(f"customized artifact -> {args.out}", file=sys.stderr)
    return 0


def _format_dist(d: int) -> str:
    return "inf" if d == INFINITY else str(d)


def cmd_query(args) -> int:
    c = load_customized(args.customized)
    order = c.cch.order
    n = c.cch.ug.vertex_count
    pairs = read_pairs(args.pairs, n)
    state = QueryState.for_vertex_count(n)
    for s, t in pairs:
        dist = query(order.rank_of[s], order.rank_of[t], state, c.graphs, c.cch.parent)
        line = f"{s}\t{t}\t{_format_dist(dist)}"
        if args.paths:
            path = unpack_path(state, c.graphs)
            line += "\t" + ("-" if path is None else " ".join(str(order.vertex_at[v]) for v in path))
        print(line)
    return 0


def cmd_knn(args) -> int:
    _check_positive(args.k, "-k")
    c = load_customized(args.customized)
    order = c.cch.order
    n = c.cch.ug.vertex_count
    sources = read_id_lines(args.sources, n)
    targets = read_id_lines(args.targets, n)
    rank_targets = [order.rank_of[v] for v in targets]
    if args.algo == "sep":
        poi = knn_select(rank_targets, n)
        state = RphastState(c.graphs, c.cch.parent)

        def search(s: int) -> list[tuple[int, int]]:
            rphast_source(s, state)
            return knn_query(s, args.k, poi, None, state)
    else:
        g = query_input_graph(c)

        def search(s: int) -> list[tuple[int, int]]:
            return knn_dijkstra(g, s, args.k, rank_targets)
    for s in sources:
        for v, d in search(order.rank_of[s]):
            print(f"{s}\t{order.vertex_at[v]}\t{_format_dist(d)}")
    return 0


def cmd_bench(args) -> int:
    import random

    _check_positive(args.count, "--count")
    _check_threads(args.threads)
    g = load_dimacs_gr(args.graph)
    n = g.vertex_count
    cch, order_s, contract_s = _build(args, g)
    t0 = time.perf_counter()
    c = _customize(args, g, cch)
    phase_seconds = {"ordering": order_s, "contraction": contract_s,
                     "customization": time.perf_counter() - t0}

    rng = random.Random(args.seed)
    rank_of = cch.order.rank_of
    state = QueryState.for_vertex_count(n)
    samples = []
    for _ in range(args.count):
        s = rng.randrange(n)
        t = rng.randrange(n)
        v0, r0 = state.visited, state.relaxed
        q0 = time.perf_counter_ns()
        dist = query(rank_of[s], rank_of[t], state, c.graphs, cch.parent)
        q1 = time.perf_counter_ns()
        path = unpack_path(state, c.graphs)
        samples.append({
            "s": s, "t": t,
            "distance": None if dist == INFINITY else dist,
            "ns": q1 - q0,
            "visited": state.visited - v0,
            "relaxed": state.relaxed - r0,
            "path_vertices": 0 if path is None else len(path),
        })

    times_us = [s["ns"] / 1000.0 for s in samples]
    stats = {
        "mean_us": statistics.fmean(times_us),
        "median_us": statistics.median(times_us),
        "mean_visited": statistics.fmean(s["visited"] for s in samples),
        "mean_relaxed": statistics.fmean(s["relaxed"] for s in samples),
        "mean_path_vertices": statistics.fmean(s["path_vertices"] for s in samples),
    }

    if args.json:
        print(json.dumps({"schema": BENCH_SCHEMA, "kind": "bench",
                          "seed": args.seed, "count": args.count, "perfect": not args.no_perfect,
                          "phase_seconds": phase_seconds,
                          "query_stats": stats}))
        for sample in samples:
            print(json.dumps({"schema": BENCH_SCHEMA, "kind": "sample", **sample}))
    else:
        print(f"bench: seed={args.seed} "
              f"count={args.count} mode={'basic' if args.no_perfect else 'perfect'}")
        print("phase          seconds")
        for name, value in phase_seconds.items():
            print(f"{name:<14} {value:8.3f}")
        print("query stat          value")
        for name, value in stats.items():
            print(f"{name:<18} {value:10.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cchroute",
                                     description="Customizable contraction hierarchies toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    build = argparse.ArgumentParser(add_help=False)  # the arguments of _build
    build.add_argument("--graph", required=True, help="DIMACS .gr file")
    build.add_argument("--coords", help="DIMACS .co file (to compute a dissection order)")
    build.add_argument("--order", help="pre-computed order file (overrides --coords)")
    custom = argparse.ArgumentParser(add_help=False)  # the arguments of _customize
    custom.add_argument("--weights", help="metric file overriding the graph's weights")
    custom.add_argument("--no-perfect", action="store_true",
                        help="stop after the basic customization")
    custom.add_argument("--threads", type=int, default=None,
                        help="validated and ignored; customization is sequential")

    p = sub.add_parser("preprocess", parents=[build], help="build the metric-independent artifact")
    p.add_argument("--out", required=True, help="output artifact path")
    p.add_argument("--export-order", help="also write the improved order to this file")
    p.add_argument("--dump-decomposition", action="store_true",
                   help="print the separator decomposition as an indented tree")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("customize", parents=[custom], help="compute a customized metric")
    p.add_argument("--graph", required=True, help="DIMACS .gr file the hierarchy was built from")
    p.add_argument("--cch", required=True, help="preprocessing artifact")
    p.add_argument("--out", required=True, help="output customized artifact")
    p.add_argument("--json", action="store_true", help="machine-readable timing output")
    p.set_defaults(fn=cmd_customize)

    p = sub.add_parser("query", help="answer a batch of point-to-point queries")
    p.add_argument("--customized", required=True, help="customized artifact")
    p.add_argument("--pairs", required=True, help="batch file: lines '<s> <t>' (0-based)")
    p.add_argument("--paths", action="store_true", help="also print unpacked paths")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("knn", help="k-nearest-neighbor queries")
    p.add_argument("--customized", required=True)
    p.add_argument("--sources", required=True, help="file with one source ID per line")
    p.add_argument("--targets", required=True, help="file with one target ID per line")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--algo", choices=("sep", "dijkstra"), default="sep",
                   help="sep: bucket search on the elimination tree (every vertex "
                        "keeps the k nearest targets below it; a query scans the "
                        "buckets on the source's root path); dijkstra: plain Dijkstra")
    p.set_defaults(fn=cmd_knn)

    p = sub.add_parser("bench", parents=[build, custom], help="end-to-end pipeline benchmark")
    p.add_argument("--seed", type=int, default=0, help="seed of the random query pairs")
    p.add_argument("--count", type=int, default=1000, help="number of queries")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per line: the report, then each query sample")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
