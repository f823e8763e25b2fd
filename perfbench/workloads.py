"""The three benchmark workloads, their oracle checks and their metrics.

Every workload is a closed loop with one client: the next request starts
when the previous one has returned. Requests are timed one by one, and
each time is later scaled to a nominal host speed (``hostspeed``); the
loop ends once the time spent inside requests reaches the run length.
Oracle checks run between requests, CHECK_BATCH at a time, and are never
timed. Customization
always runs with ``threads=1``, the single-threaded production path.

* ``serve``: an interleaved mix of point-to-point queries with path
  unpacking, one-to-many rows, k-NN queries and turn-aware A* queries on a
  CCHM that an untimed preparation step wrote. Ordering and customization
  never run in the timed part.
* ``recustomize``: traffic metrics applied one after another to a CCHP an
  untimed preparation step wrote; each update customizes and writes a
  CCHM, then point-to-point queries run on the fresh metric.
* ``build``: cold passes from the parsed ``.gr``/``.co`` through CCHP and
  CCHM on disk to answers, which a fresh process writes to a result file.

Generation and preparation run in a child process, so the peak RSS of the
measuring process covers the workload inputs it holds, set-up and the loop.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict

from cchroute import (INFINITY, QueryState, RphastState, astar_with_cch_potential, build_cch,
                      customize, dijkstra, expand_turns, knn_dijkstra, knn_query, knn_select,
                      load_cch, load_customized, load_dimacs_co, load_dimacs_gr, load_turn_table,
                      nested_dissection_order, query, query_input_graph, rphast_distance,
                      rphast_source, save_cch, save_customized, unpack_path)

import gen
from hostspeed import HostSpeed
from spans import Tracer

SCHEMA = "cchroute-perfbench/1"
WORKLOADS = ("serve", "recustomize", "build")

SETUP_REPEATS = 5
# One in this many requests of a kind is also checked against Dijkstra;
# every unpacked path is checked against its distance.
P2P_ORACLE_STRIDE = 100
ASTAR_ORACLE_STRIDE = 10
# Oracle checks wait and run this many at a time: a check walks far more
# memory than a request, and a request right after one runs on cold caches.
CHECK_BATCH = 100
MAX_FAILURE_MESSAGES = 20

# The traced run measures tracemalloc peaks on a small instance: at the
# full size tracemalloc slows the pure-Python layers 15-30x.
PROBE_SIDE = 20
PROBE_OPS = 300

# The cost of one span comes from a micro-loop of traced and untraced calls.
SPAN_COST_CALLS = 20000
SPAN_COST_REPEATS = 5


class Run:
    """Measurements and oracle verdicts of one benchmark invocation."""

    def __init__(self, seconds: float, trace: bool, max_ops: int | None = None,
                 check_all: bool = False, tracer: Tracer | None = None):
        self.seconds = seconds
        self.max_ops = max_ops
        self.check_all = check_all
        self.tr = tracer if tracer is not None else Tracer(trace)
        self.speed = HostSpeed()
        # kind -> (start, seconds, traced) of each request that returned
        self.samples: dict[str, list[tuple[float, float, bool]]] = defaultdict(list)
        self.counters: dict[str, list[float]] = defaultdict(list)
        self.busy = 0.0
        self.loop: list[tuple[float, float]] = []
        self.pending: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def more(self) -> bool:
        return self.busy < self.seconds and (self.max_ops is None or self.attempted < self.max_ops)

    def settle(self) -> None:
        """Collect garbage left by untimed work, so that no timed request
        pays for it; called before each set-up, the loop and each long
        request."""
        gc.collect()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)

    def defer(self, check, *args) -> None:
        """Queue an oracle check; see CHECK_BATCH."""
        self.pending.append((check, args))
        if len(self.pending) >= CHECK_BATCH:
            self.run_checks()

    def run_checks(self) -> None:
        for check, args in self.pending:
            check(*args)
        self.pending.clear()

    def checked(self, kind: str, stride: int) -> bool:
        """Whether the request just sampled of this kind gets the full oracle."""
        return self.check_all or (len(self.samples[kind]) - 1) % stride == 0

    def since(self, t0: float, spent: float) -> float:
        """Seconds since ``t0``, less what the host-speed probe took since
        it had spent ``spent``."""
        return time.perf_counter() - t0 - (self.speed.spent - spent)

    def scaled(self, t0: float, dt: float) -> float:
        """A timing scaled to the nominal host speed."""
        return dt * self.speed.scale(t0, t0 + dt)

    def request(self, kind: str, fn, *args, busy: bool = True):
        """Run one timed operation; its result, or None if it raised.

        ``busy=False`` marks a request nested in another one, whose time
        already counts toward the loop.
        """
        self.attempted += 1
        with self.tr.request(kind):
            traced = self.tr.enabled
            spent, t0 = self.speed.spent, time.perf_counter()
            try:
                result = fn(*args)
            except Exception:
                result = None
                self.fail(f"{kind} raised:\n{traceback.format_exc()}")
            dt = self.since(t0, spent)
        if busy:
            self.busy += dt
            self.loop.append((t0, dt))
        if result is not None:
            self.samples[kind].append((t0, dt, traced))
        return result

    def setup(self, fn, *args):
        """Set up SETUP_REPEATS times, timing each; returns the last result.

        Set-up is neither an operation nor loop time.
        """
        result = None
        for _ in range(SETUP_REPEATS):
            result = None  # free the previous set-up before the next one
            self.settle()
            with self.tr.request("setup"):
                spent, t0 = self.speed.spent, time.perf_counter()
                result = fn(*args)
                self.samples["setup"].append((t0, self.since(t0, spent), self.tr.enabled))
        return result

    def p2p(self, state: QueryState, c, s: int, t: int, busy: bool = True):
        """Distance plus unpacked path in rank space, as (distance, path)."""
        v0, r0 = state.visited, state.relaxed
        out = self.request("p2p", _p2p, self.tr, state, c, s, t, busy=busy)
        if out is not None:
            self.counters["query.visited"].append(state.visited - v0)
            self.counters["query.relaxed"].append(state.relaxed - r0)
            self.counters["query.path_vertices"].append(0 if out[1] is None else len(out[1]))
        return out

    def check_p2p(self, g, s: int, t: int, dist: int, path, full: bool) -> None:
        """The path must walk ``g`` from s to t with weight ``dist``; with
        ``full`` the distance must also equal Dijkstra's."""
        if path is None:
            ok = dist == INFINITY
        else:
            ok = path[0] == s and path[-1] == t and path_weight(g, path) == dist
        if ok and full:
            ok = dijkstra(g, s, targets=[t])[t] == dist
        if not ok:
            self.fail(f"p2p {s}->{t}: distance {dist} or its path disagrees with the oracle")


def _p2p(tr: Tracer, state: QueryState, c, s: int, t: int):
    dist = tr.call("query.p2p", query, s, t, state, c.graphs, c.cch.parent)
    return dist, tr.call("query.unpack", unpack_path, state, c.graphs)


def path_weight(g, path: list[int]) -> int | None:
    """Weight of a vertex walk in ``g``, or None if a step is not an arc."""
    total = 0
    for a, b in zip(path, path[1:]):
        idx = g.arc_index(a, b)
        if idx is None:
            return None
        total += g.weight[idx]
    return total


# ----------------------------------------------------------------------
# Preparation, shared by the untimed step and the build passes


def preprocess(tr: Tracer, g, coords, cchp: str):
    order = tr.call("order.nested_dissection", nested_dissection_order, g, coords)
    cch = tr.call("preprocess.build_cch", build_cch, g, order=order)
    tr.call("preprocess.save_cch", save_cch, cch, cchp)
    return order, cch


def update(tr: Tracer, cch, weights: list[int], cchm: str):
    """New weight vector in memory to a CCHM on disk."""
    timings: dict = {}
    c = tr.call("customize.customize", customize, cch, weights, use_perfect=True,
                threads=1, timings=timings)
    tr.call("customize.save", save_customized, c, cchm)
    return c, timings


def record_structure(run: Run, g, order, cch, cchp: str) -> None:
    """Order and hierarchy counters; they repeat exactly for a seed."""
    node = order.decomposition
    run.counters["order.decomposition_nodes"].append(sum(1 for _ in node.preorder()))
    # A disconnected instance splits into components first; the top
    # separator is the first real one on the way down the largest cells.
    while node.sep_lo == node.cell_hi and node.children:
        node = max(node.children, key=lambda child: child.cell_hi - child.cell_lo)
    run.counters["order.top_separator_size"].append(node.cell_hi - node.sep_lo)
    ug = cch.ug
    updeg = [ug.first_arc[u + 1] - ug.first_arc[u] for u in range(ug.vertex_count)]
    depth = [0] * ug.vertex_count
    for v in range(ug.vertex_count - 1, -1, -1):
        p = cch.parent[v]
        if p >= 0:
            depth[v] = depth[p] + 1
    run.counters["preprocess.upward_arcs"].append(ug.arc_count)
    run.counters["preprocess.shortcuts"].append(ug.arc_count - len(g.undirected_edges()))
    run.counters["preprocess.etree_height"].append(max(depth) + 1 if depth else 0)
    run.counters["preprocess.triangles"].append(sum(d * (d - 1) // 2 for d in updeg))
    run.counters["preprocess.cchp_bytes"].append(os.path.getsize(cchp))


def record_customization(run: Run, c, timings: dict, cchm: str) -> None:
    for key, name in (("respect", "respect_s"), ("basic", "basic_s"),
                      ("perfect", "perfect_s"), ("construct", "reduced_s")):
        run.counters[f"customize.{name}"].append(timings[key])
    kept = c.graphs.forward.arc_count + c.graphs.backward.arc_count
    run.counters["customize.kept_arc_frac"].append(kept / (2 * c.cch.ug.arc_count))
    run.counters["customize.cchm_bytes"].append(os.path.getsize(cchm))


def prep(run: Run, workload: str, paths: dict) -> None:
    """Untimed preparation: ``serve`` needs a CCHM, ``recustomize`` a CCHP."""
    tr = run.tr
    g = tr.call("dimacs.load_gr", load_dimacs_gr, paths["grid.gr"])
    coords = tr.call("dimacs.load_co", load_dimacs_co, paths["grid.co"], g.vertex_count)
    order, cch = preprocess(tr, g, coords, paths["grid.cchp"])
    record_structure(run, g, order, cch, paths["grid.cchp"])
    if workload == "serve":
        cch = tr.call("preprocess.load_cch", load_cch, paths["grid.cchp"])
        c, timings = update(tr, cch, list(g.weight), paths["grid.cchm"])
        record_customization(run, c, timings, paths["grid.cchm"])


RUN_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def prep_in_child(run: Run, workload: str, seed: int, side: int, work: str) -> None:
    """Generate and prepare in a child process; take over its spans and counters."""
    subprocess.run([sys.executable, RUN_SCRIPT, "--prep", workload, "--seed", str(seed),
                    "--side", str(side), "--dir", work,
                    "--trace", "1" if run.tr.traced else "0"], check=True, timeout=900)
    with open(os.path.join(work, "prep.json"), encoding="utf-8") as f:
        done = json.load(f)
    run.tr.absorb(done["spans"])
    for name, values in done["counters"].items():
        run.counters[name].extend(values)


def prep_main(workload: str, seed: int, side: int, work: str, trace: bool) -> int:
    """Child-process entry of ``prep_in_child``; ``build`` prepares nothing."""
    gen.generate(seed, work, side=side)
    run = Run(seconds=0, trace=trace)
    if workload != "build":
        prep(run, workload, artifact_paths(work))
    with open(os.path.join(work, "prep.json"), "w", encoding="utf-8") as f:
        json.dump({"spans": run.tr.spans, "counters": run.counters}, f)
    return 0


def artifact_paths(work: str) -> dict:
    names = ("grid.gr", "grid.co", "grid.turns", "inputs.json", "grid.cchp", "grid.cchm",
             "result.txt")
    return {name: os.path.join(work, name) for name in names}


# ----------------------------------------------------------------------
# serve


class ServeState:
    """Everything a serving process holds after start-up."""

    def __init__(self, tr: Tracer, paths: dict, poi: list[int]):
        self.g = tr.call("dimacs.load_gr", load_dimacs_gr, paths["grid.gr"])
        turns = tr.call("dimacs.load_turns", load_turn_table, paths["grid.turns"], self.g)
        self.c = tr.call("customize.load", load_customized, paths["grid.cchm"])
        self.expansion = tr.call("turns.expand", expand_turns, self.g, turns)
        cch = self.c.cch
        self.rank = cch.order.rank_of
        # An arc-vertex's potential is the distance from its tail, which
        # bounds every turn-aware path leaving that arc from below.
        self.arc_rank = [self.rank[self.g.tail[a]] for a in self.expansion.arc_of_vertex]
        n = cch.ug.vertex_count
        self.state = QueryState.for_vertex_count(n)
        self.forward = RphastState(self.c.graphs, cch.parent)
        self.reverse = RphastState(self.c.graphs, cch.parent, reverse=True)
        self.poi = tr.call("query.knn_select", knn_select, [self.rank[v] for v in poi], n,
                           original=cch.order.vertex_at)


def _row(tr: Tracer, st: RphastState, s: int, targets: list[int]) -> list[int]:
    tr.call("query.rphast_source", rphast_source, s, st)
    return [tr.call("query.rphast_distance", rphast_distance, t, st) for t in targets]


def _knn(tr: Tracer, st: RphastState, s: int, k: int, poi, decomposition):
    tr.call("query.rphast_source", rphast_source, s, st)
    return tr.call("query.knn", knn_query, s, k, poi, decomposition, st)


def _astar(tr: Tracer, sv: ServeState, s: int, t: int, counters: dict) -> int:
    return tr.call("query.astar", astar_with_cch_potential, s, t, sv.expansion.graph,
                   sv.reverse, vertex_map=sv.arc_rank, counters=counters)


def serve(run: Run, paths: dict, inputs: dict) -> None:
    tr = run.tr
    sv = run.setup(ServeState, tr, paths, inputs["poi"])
    run.counters["turns.expanded_arcs"].append(sv.expansion.graph.arc_count)
    g, rank, k = sv.g, sv.rank, inputs["knn_k"]
    qg = query_input_graph(sv.c)
    expanded = sv.expansion.graph
    ops = inputs["serve_ops"]
    i = 0
    run.settle()
    while run.more():
        op = ops[i % len(ops)]
        i += 1
        kind = op[0]
        if kind == "p2p":
            s, t = rank[op[1]], rank[op[2]]
            out = run.p2p(sv.state, sv.c, s, t)
            if out is not None:
                run.defer(run.check_p2p, qg, s, t, *out, run.checked("p2p", P2P_ORACLE_STRIDE))
        elif kind == "row":
            s, targets = rank[op[1]], [rank[v] for v in op[2]]
            r0 = sv.forward.relaxations
            got = run.request("row", _row, tr, sv.forward, s, targets)
            if got is not None:
                run.counters["query.rphast_relaxations_per_row"].append(sv.forward.relaxations - r0)
                run.defer(check_row, run, qg, s, targets, got)
        elif kind == "knn":
            s = rank[op[1]]
            r0 = sv.forward.relaxations
            got = run.request("knn", _knn, tr, sv.forward, s, k, sv.poi, sv.c.cch.decomposition)
            if got is not None:
                run.counters["query.knn_relaxations"].append(sv.forward.relaxations - r0)
                run.defer(check_knn, run, qg, s, k, sv.poi.targets, got)
        else:
            s, t = g.arc_index(*op[1]), g.arc_index(*op[2])
            counters: dict = {}
            r0 = sv.reverse.relaxations
            got = run.request("astar", _astar, tr, sv, s, t, counters)
            if got is not None:
                run.counters["query.astar_settled"].append(counters["settled"])
                run.counters["query.astar_potential_relaxations"].append(
                    sv.reverse.relaxations - r0)
                if run.checked("astar", ASTAR_ORACLE_STRIDE):
                    run.defer(check_astar, run, expanded, s, t, got)
    run.run_checks()


def check_row(run: Run, qg, s: int, targets: list[int], got: list[int]) -> None:
    dist = dijkstra(qg, s)
    if got != [dist[t] for t in targets]:
        run.fail(f"one-to-many row from {s} disagrees with Dijkstra")


def check_knn(run: Run, qg, s: int, k: int, targets, got) -> None:
    if got != knn_dijkstra(qg, s, k, targets):
        run.fail(f"k-NN from {s} disagrees with knn_dijkstra")


def check_astar(run: Run, expanded, s: int, t: int, got: int) -> None:
    if dijkstra(expanded, s, targets=[t])[t] != got:
        run.fail(f"turn-aware A* {s}->{t} disagrees with Dijkstra")


# ----------------------------------------------------------------------
# recustomize


def recustomize_setup(tr: Tracer, paths: dict):
    g = tr.call("dimacs.load_gr", load_dimacs_gr, paths["grid.gr"])
    return g, tr.call("preprocess.load_cch", load_cch, paths["grid.cchp"])


def traffic_weights(g, changes: list[list[int]]) -> list[int]:
    weights = list(g.weight)
    for t, h, w in changes:
        weights[g.arc_index(t, h)] = w
    return weights


def recustomize(run: Run, paths: dict, inputs: dict) -> None:
    tr = run.tr
    g, cch = run.setup(recustomize_setup, tr, paths)
    metrics = [traffic_weights(g, changes) for changes in inputs["metrics"]]
    rank = cch.order.rank_of
    state = QueryState.for_vertex_count(g.vertex_count)
    i = 0
    while run.more():
        m = i % len(metrics)
        i += 1
        run.settle()
        out = run.request("update", update, tr, cch, metrics[m], paths["grid.cchm"])
        if out is None:
            continue
        c, timings = out
        record_customization(run, c, timings, paths["grid.cchm"])
        qg = query_input_graph(c)
        for s, t in inputs["metric_pairs"][m]:
            s, t = rank[s], rank[t]
            got = run.p2p(state, c, s, t)
            if got is not None:
                run.defer(run.check_p2p, qg, s, t, *got, run.checked("p2p", P2P_ORACLE_STRIDE))
        run.run_checks()


# ----------------------------------------------------------------------
# build


def build_setup(tr: Tracer, paths: dict):
    g = tr.call("dimacs.load_gr", load_dimacs_gr, paths["grid.gr"])
    return g, tr.call("dimacs.load_co", load_dimacs_co, paths["grid.co"], g.vertex_count)


def _build_pass(run: Run, g, coords, pairs: list[list[int]], paths: dict):
    """One cold pass; returns what the counters need afterwards, with
    (start, seconds) of its preprocessing and its update."""
    tr = run.tr
    spent, t0 = run.speed.spent, time.perf_counter()
    order, cch = preprocess(tr, g, coords, paths["grid.cchp"])
    preprocess_s = (t0, run.since(t0, spent))
    cch = tr.call("preprocess.load_cch", load_cch, paths["grid.cchp"])
    spent, t1 = run.speed.spent, time.perf_counter()
    c, timings = update(tr, cch, list(g.weight), paths["grid.cchm"])
    update_s = (t1, run.since(t1, spent))
    answer_in_child(run, paths)
    return order, cch, c, timings, preprocess_s, update_s


def answer(run: Run, paths: dict, pairs: list[list[int]]) -> None:
    """Load the CCHM and write each pair's distance and path to the result
    file in original IDs, as ``cchroute query --paths`` does."""
    c = run.tr.call("customize.load", load_customized, paths["grid.cchm"])
    rank, vertex_at = c.cch.order.rank_of, c.cch.order.vertex_at
    state = QueryState.for_vertex_count(c.cch.ug.vertex_count)
    with open(paths["result.txt"], "w", encoding="utf-8") as f:
        for s, t in pairs:
            out = run.p2p(state, c, rank[s], rank[t], busy=False)
            if out is None:
                continue
            dist, path = out
            walk = "-" if path is None else " ".join(str(vertex_at[v]) for v in path)
            f.write(f"{s}\t{t}\t{'inf' if dist == INFINITY else dist}\t{walk}\n")


def answer_in_child(run: Run, paths: dict) -> None:
    """Answer a pass's queries in a fresh process, as a separate
    ``cchroute query`` command would: in the pass's own process they would
    run in a heap that ordering left fragmented, which made them 4-23%
    slower by an amount that changed from seed to seed. Take over the
    child's samples, counters, spans, peaks and verdicts."""
    work = os.path.dirname(paths["grid.cchm"])
    tr = run.tr
    command = [sys.executable, RUN_SCRIPT, "--answer", "--dir", work,
               "--trace", "1" if tr.enabled else "0"]
    subprocess.run(command + (["--memory"] if tr.memory else []), check=True, timeout=600)
    with open(os.path.join(work, "answer.json"), encoding="utf-8") as f:
        done = json.load(f)
    tr.absorb(done["spans"], nested=True)
    for layer, added in done["peaks"].items():
        tr.peaks[layer] = max(tr.peaks.get(layer, 0), added)
    run.samples["p2p"].extend(tuple(sample) for sample in done["p2p"])
    for name, values in done["counters"].items():
        run.counters[name].extend(values)
    run.attempted += done["attempted"]
    run.failed += done["failed"]
    run.failures += done["failures"][:MAX_FAILURE_MESSAGES - len(run.failures)]


def answer_main(work: str, trace: bool, memory: bool) -> int:
    """Child-process entry of ``answer_in_child``."""
    paths = artifact_paths(work)
    with open(paths["inputs.json"], encoding="utf-8") as f:
        pairs = json.load(f)["build_pairs"]
    run = Run(seconds=float("inf"), trace=trace, tracer=Tracer(trace, memory=memory))
    if memory:
        tracemalloc.start()
    # One request around the answers, so that every query shares its tracing state.
    with run.tr.request("answer"):
        answer(run, paths, pairs)
    tracemalloc.stop()
    with open(os.path.join(work, "answer.json"), "w", encoding="utf-8") as f:
        json.dump({"p2p": run.samples["p2p"], "counters": run.counters, "spans": run.tr.spans,
                   "peaks": run.tr.peaks, "attempted": run.attempted, "failed": run.failed,
                   "failures": run.failures}, f)
    return 0


def build(run: Run, paths: dict, inputs: dict) -> None:
    g, coords = run.setup(build_setup, run.tr, paths)
    pairs = inputs["build_pairs"]
    while run.more():
        run.settle()
        out = run.request("pass", _build_pass, run, g, coords, pairs, paths)
        if out is None:
            continue
        order, cch, c, timings, preprocess_s, update_s = out
        traced = run.samples["pass"][-1][2]
        run.samples["preprocess"].append((*preprocess_s, traced))
        run.samples["update"].append((*update_s, traced))
        record_structure(run, g, order, cch, paths["grid.cchp"])
        record_customization(run, c, timings, paths["grid.cchm"])
        check_result_file(run, g, pairs, paths["result.txt"])


def check_result_file(run: Run, g, pairs: list[list[int]], path: str) -> None:
    """Every line of a pass's answers, in original IDs, against the oracles."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if len(lines) != len(pairs):
        run.fail(f"result file has {len(lines)} lines for {len(pairs)} queries")
    for i, (line, (s, t)) in enumerate(zip(lines, pairs)):
        fields = line.split("\t")
        if fields[:2] != [str(s), str(t)]:
            run.fail(f"result line {i + 1} answers the wrong pair: {line[:40]!r}")
            continue
        dist = INFINITY if fields[2] == "inf" else int(fields[2])
        path = None if fields[3] == "-" else [int(v) for v in fields[3].split()]
        run.check_p2p(g, s, t, dist, path,
                      full=run.check_all or i % P2P_ORACLE_STRIDE == 0)


# ----------------------------------------------------------------------
# Running and reporting


RUNNERS = {"serve": serve, "recustomize": recustomize, "build": build}


def percentile(values: list[float], q: float) -> float:
    """Inclusive percentile q in [0, 100] with linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Metrics a user sees, from the untraced requests, with every time
    scaled to the nominal host speed; ``*_wall_*`` are the unscaled times."""
    def secs(kind, wall=False):
        samples = run.samples.get(kind, ())
        chosen = [s for s in samples if not s[2]] or samples
        return [dt if wall else run.scaled(t0, dt) for t0, dt, _ in chosen]

    out: dict[str, tuple[float, str]] = {}
    if secs("setup"):
        out["setup_s"] = (statistics.median(secs("setup")), "s")
        out["setup_wall_s"] = (statistics.median(secs("setup", wall=True)), "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    p2p = secs("p2p")
    if p2p:
        out["p2p_p50_us"] = (percentile(p2p, 50) * 1e6, "us")
        out["p2p_p90_us"] = (percentile(p2p, 90) * 1e6, "us")
        out["p2p_p50_wall_us"] = (percentile(secs("p2p", wall=True), 50) * 1e6, "us")
    if run.busy > 0:
        scaled_busy = sum(run.scaled(t0, dt) for t0, dt in run.loop)
        out["throughput_ops_s"] = (run.attempted / scaled_busy, "1/s")
        out["throughput_wall_ops_s"] = (run.attempted / run.busy, "1/s")
    if run.speed.loops:
        out["host.reference_us"] = (run.speed.median_loop_s() * 1e6, "us")
        out["host.samples"] = (len(run.speed.loops), "count")
    out["ops"] = (run.attempted, "count")
    out["failed_ops"] = (run.failed, "count")
    for kind, name, scale, unit in (("row", "one_to_many_p50_ms", 1e3, "ms"),
                                    ("knn", "knn_p50_ms", 1e3, "ms"),
                                    ("astar", "turn_astar_p50_ms", 1e3, "ms"),
                                    ("update", "update_p50_s", 1, "s"),
                                    ("preprocess", "preprocess_s", 1, "s"),
                                    ("pass", "pipeline_s", 1, "s")):
        if secs(kind):
            out[name] = (statistics.median(secs(kind)) * scale, unit)
            out[name.rsplit("_", 1)[0] + "_count"] = (len(secs(kind)), "count")
    return out


SPAN_METRICS = (
    # (metric, span name, scale, unit)
    ("dimacs.load_gr_s", "dimacs.load_gr", 1, "s"),
    ("dimacs.load_co_s", "dimacs.load_co", 1, "s"),
    ("dimacs.load_turns_s", "dimacs.load_turns", 1, "s"),
    ("order.nested_dissection_s", "order.nested_dissection", 1, "s"),
    ("preprocess.build_cch_s", "preprocess.build_cch", 1, "s"),
    ("preprocess.save_cch_s", "preprocess.save_cch", 1, "s"),
    ("preprocess.load_cch_s", "preprocess.load_cch", 1, "s"),
    ("customize.save_s", "customize.save", 1, "s"),
    ("customize.load_s", "customize.load", 1, "s"),
    ("turns.expand_s", "turns.expand", 1, "s"),
    ("query.p2p_us", "query.p2p", 1e6, "us"),
    ("query.unpack_us", "query.unpack", 1e6, "us"),
    ("query.rphast_source_us", "query.rphast_source", 1e6, "us"),
    ("query.rphast_distance_us", "query.rphast_distance", 1e6, "us"),
    ("query.knn_us", "query.knn", 1e6, "us"),
    ("query.astar_us", "query.astar", 1e6, "us"),
)

COUNTER_METRICS = (
    # (metric, counter, unit); a counter named *_mean is averaged, the
    # others take the median over their samples
    ("order.decomposition_nodes", "order.decomposition_nodes", "count"),
    ("order.top_separator_size", "order.top_separator_size", "count"),
    ("preprocess.upward_arcs", "preprocess.upward_arcs", "count"),
    ("preprocess.shortcuts", "preprocess.shortcuts", "count"),
    ("preprocess.etree_height", "preprocess.etree_height", "count"),
    ("preprocess.triangles", "preprocess.triangles", "count"),
    ("preprocess.cchp_bytes", "preprocess.cchp_bytes", "B"),
    ("customize.respect_s", "customize.respect_s", "s"),
    ("customize.basic_s", "customize.basic_s", "s"),
    ("customize.perfect_s", "customize.perfect_s", "s"),
    ("customize.reduced_s", "customize.reduced_s", "s"),
    ("customize.cchm_bytes", "customize.cchm_bytes", "B"),
    ("customize.kept_arc_frac", "customize.kept_arc_frac", "ratio"),
    ("turns.expanded_arcs", "turns.expanded_arcs", "count"),
    ("query.visited_mean", "query.visited", "count"),
    ("query.relaxed_mean", "query.relaxed", "count"),
    ("query.path_vertices_mean", "query.path_vertices", "count"),
    ("query.rphast_relaxations_per_row", "query.rphast_relaxations_per_row", "count"),
    ("query.knn_relaxations_mean", "query.knn_relaxations", "count"),
    ("query.astar_settled_mean", "query.astar_settled", "count"),
    ("query.astar_potential_relaxations_mean", "query.astar_potential_relaxations", "count"),
)

def per_layer(run: Run, peaks: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Layer metrics from the traced requests, counters and the memory probe."""
    out: dict[str, tuple[float, str]] = {}
    for metric, span, scale, unit in SPAN_METRICS:
        durations = run.tr.durations(span)
        if durations:
            out[metric] = (statistics.median(durations) * scale, unit)
    p2p = run.tr.durations("query.p2p")
    if p2p:
        out["query.p2p_p99_us"] = (percentile(p2p, 99) * 1e6, "us")
    for metric, counter, unit in COUNTER_METRICS:
        values = run.counters.get(counter)
        if values:
            reduce = statistics.fmean if metric.endswith("_mean") else statistics.median
            out[metric] = (reduce(values), unit)
    for layer, seconds in run.tr.self_seconds_per_call().items():
        out[f"{layer}.self_per_call_s"] = (seconds, "s")
    for layer, added in peaks.items():
        out[f"{layer}.peak_alloc_mb"] = (added / 2**20, "MB")
    out["trace.span_cost_ns"] = (span_cost_ns(), "ns")
    traced = [run.scaled(t0, dt) for t0, dt, on in run.samples.get("p2p", ()) if on]
    plain = [run.scaled(t0, dt) for t0, dt, on in run.samples.get("p2p", ()) if not on]
    if traced and plain:
        # Report only: the difference of two noisy medians, a few spans' cost.
        out["trace.p2p_overhead_us"] = (
            (statistics.median(traced) - statistics.median(plain)) * 1e6, "us")
        out["trace.p2p_overhead_samples"] = (min(len(traced), len(plain)), "count")
    return out


def span_cost_ns() -> float:
    """Nanoseconds one traced call adds over an untraced one: the median
    over repeats of a micro-loop of ``Tracer.call`` on a no-op."""
    def noop():
        return None

    costs = []
    for _ in range(SPAN_COST_REPEATS):
        per_call = []
        for traced in (False, True):
            tr = Tracer(traced)
            t0 = time.perf_counter_ns()
            for _ in range(SPAN_COST_CALLS):
                tr.call("trace.noop", noop)
            per_call.append((time.perf_counter_ns() - t0) / SPAN_COST_CALLS)
        costs.append(per_call[1] - per_call[0])
    return statistics.median(costs)


def memory_probe(workload: str, seed: int, work: str) -> tuple[dict[str, int], Run]:
    """Peak tracemalloc allocation per layer on a small instance.

    Runs the workload's own preparation, set-up and loop, capped at
    PROBE_OPS operations, with every call traced.
    """
    probe_dir = os.path.join(work, "probe")
    gen.generate(seed, probe_dir, side=PROBE_SIDE)
    paths = artifact_paths(probe_dir)
    with open(paths["inputs.json"], encoding="utf-8") as f:
        inputs = json.load(f)
    run = Run(seconds=float("inf"), trace=True, max_ops=PROBE_OPS,
              tracer=Tracer(True, memory=True))
    tracemalloc.start()
    try:
        if workload != "build":
            prep(run, workload, paths)
        RUNNERS[workload](run, paths, inputs)
    finally:
        tracemalloc.stop()
    return run.tr.peaks, run


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: str,
                 side: int = gen.SIDE, max_ops: int | None = None,
                 check_all: bool = False) -> dict:
    """Generate, prepare, set up, run and check one workload.

    Returns the report: ``correct``, ``attempted``, ``failed``, the
    end-to-end and per-layer metrics as (value, unit) and failure notes.
    """
    run = Run(seconds, trace, max_ops=max_ops, check_all=check_all)
    prep_in_child(run, workload, seed, side, work)
    paths = artifact_paths(work)
    with open(paths["inputs.json"], encoding="utf-8") as f:
        inputs = json.load(f)
    run.speed.start()
    try:
        RUNNERS[workload](run, paths, inputs)
    finally:
        run.speed.stop()
    e2e = end_to_end(run)
    layers: dict = {}
    if trace:
        peaks, probe = memory_probe(workload, seed, work)
        layers = per_layer(run, peaks)
        run.attempted += probe.attempted
        run.failed += probe.failed
        run.failures += probe.failures
    return {"schema": SCHEMA, "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "side": side, "correct": run.failed == 0,
            "attempted": run.attempted, "failed": run.failed, "end_to_end": e2e,
            "per_layer": layers, "failures": run.failures, "tracer": run.tr}
