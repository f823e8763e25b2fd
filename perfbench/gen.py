"""Seeded generator for the benchmark instance and every workload input.

The instance is a perturbed square grid: about 90% of the grid edges are
kept, about 10% of the kept edges are one-way, weights are random travel
times over jittered coordinates. It is written as DIMACS ``.gr``/``.co``
files, the turn table in the toolkit's ``t`` format, and all other
workload inputs (query pairs, one-to-many rows, the POI set, turn-aware
query pairs, traffic metrics) as one JSON file. Every ID on disk is an
original vertex ID (1-based in DIMACS files, 0-based in the JSON), so the
program under test sees only files and plain arrays.

The same seed and side length give byte-identical files.
"""

from __future__ import annotations

import json
import os
import random

INFINITY = 0xFFFFFFFF

SIDE = 100
KEEP_EDGE = 0.9
ONE_WAY = 0.1
SPACING = 1000
JITTER = 300

# serve: counts of one pass through the interleaved request mix
SERVE_P2P = 4000
SERVE_ROWS = 50
ROW_TARGETS = 100
SERVE_KNN = 100
KNN_K = 4
POI_SHARE = 0.01
SERVE_ASTAR = 200
UTURN_BAN = 0.8
TURN_COST_SHARE = 0.25
MAX_TURN_COST = 2000

# recustomize: traffic metrics applied one after another
METRICS = 8
SCALED_SHARE = 0.2
CLOSED_SHARE = 0.01
QUERIES_PER_METRIC = 200

# build: queries answered at the end of each cold pass
BUILD_QUERIES = 500


class Instance:
    """Generated graph: arcs as (tail, head, weight) with 0-based IDs."""

    def __init__(self, n: int, arcs: list[tuple[int, int, int]],
                 xs: list[int], ys: list[int]):
        self.n = n
        self.arcs = arcs
        self.xs = xs
        self.ys = ys


def make_instance(rng: random.Random, side: int) -> Instance:
    n = side * side
    xs = [(v % side) * SPACING + rng.randint(-JITTER, JITTER) + SPACING for v in range(n)]
    ys = [(v // side) * SPACING + rng.randint(-JITTER, JITTER) + SPACING for v in range(n)]

    def travel_time(a: int, b: int) -> int:
        length = ((xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2) ** 0.5
        return max(1, int(length * rng.uniform(1.0, 3.0)))

    arcs = []
    for v in range(n):
        r, c = divmod(v, side)
        for w in ((v + 1) if c + 1 < side else None, (v + side) if r + 1 < side else None):
            if w is None or rng.random() >= KEEP_EDGE:
                continue
            if rng.random() < ONE_WAY:
                a, b = (v, w) if rng.random() < 0.5 else (w, v)
                arcs.append((a, b, travel_time(a, b)))
            else:
                arcs.append((v, w, travel_time(v, w)))
                arcs.append((w, v, travel_time(w, v)))
    return Instance(n, arcs, xs, ys)


def turn_table(rng: random.Random, inst: Instance) -> list[tuple[int, int, int, int | None]]:
    """Entries (in-tail, via, out-head, cost); cost None bans the turn.

    Most U-turns are banned and a share of the other turns gets a cost;
    turns not listed are free.
    """
    out_heads: list[list[int]] = [[] for _ in range(inst.n)]
    for t, h, _ in inst.arcs:
        out_heads[t].append(h)
    entries = []
    for t, via, _ in inst.arcs:
        for w in out_heads[via]:
            if w == t:
                if rng.random() < UTURN_BAN:
                    entries.append((t, via, w, None))
            elif rng.random() < TURN_COST_SHARE:
                entries.append((t, via, w, rng.randint(0, MAX_TURN_COST)))
    return entries


def serve_ops(rng: random.Random, inst: Instance) -> list[list]:
    """One pass of the interleaved request mix, in a seeded order."""
    n = inst.n
    ops: list[list] = []
    ops += [["p2p", rng.randrange(n), rng.randrange(n)] for _ in range(SERVE_P2P)]
    ops += [["row", rng.randrange(n), [rng.randrange(n) for _ in range(ROW_TARGETS)]]
            for _ in range(SERVE_ROWS)]
    ops += [["knn", rng.randrange(n)] for _ in range(SERVE_KNN)]
    ends = [[t, h] for t, h, _ in inst.arcs]
    ops += [["astar", rng.choice(ends), rng.choice(ends)] for _ in range(SERVE_ASTAR)]
    rng.shuffle(ops)
    return ops


def traffic_metrics(rng: random.Random, inst: Instance) -> list[list[list[int]]]:
    """Per metric, the changed arcs as [tail, head, new weight].

    About SCALED_SHARE of the arcs are slowed by x1.2 to x4 and about
    CLOSED_SHARE are closed (weight INFINITY). Weights never drop below
    the base metric.
    """
    metrics = []
    for _ in range(METRICS):
        changes = []
        for t, h, w in inst.arcs:
            x = rng.random()
            if x < CLOSED_SHARE:
                changes.append([t, h, INFINITY])
            elif x < CLOSED_SHARE + SCALED_SHARE:
                changes.append([t, h, min(INFINITY - 1, int(w * rng.uniform(1.2, 4.0)))])
        metrics.append(changes)
    return metrics


def generate(seed: int, out_dir: str, side: int = SIDE) -> dict[str, str]:
    """Write the instance and all workload inputs; return their paths."""
    rng = random.Random(seed)
    inst = make_instance(rng, side)
    n = inst.n
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("grid.gr", "grid.co", "grid.turns", "inputs.json")}

    with open(paths["grid.gr"], "w", encoding="utf-8") as f:
        f.write(f"c perturbed {side}x{side} grid, seed {seed}\n")
        f.write(f"p sp {n} {len(inst.arcs)}\n")
        f.writelines(f"a {t + 1} {h + 1} {w}\n" for t, h, w in inst.arcs)
    with open(paths["grid.co"], "w", encoding="utf-8") as f:
        f.write(f"p aux sp co {n}\n")
        f.writelines(f"v {v + 1} {inst.xs[v]} {inst.ys[v]}\n" for v in range(n))
    with open(paths["grid.turns"], "w", encoding="utf-8") as f:
        f.writelines(f"t {a + 1} {b + 1} {c + 1} {'x' if cost is None else cost}\n"
                     for a, b, c, cost in turn_table(rng, inst))

    inputs = {
        "seed": seed,
        "side": side,
        "knn_k": KNN_K,
        "poi": sorted(rng.sample(range(n), max(1, round(n * POI_SHARE)))),
        "serve_ops": serve_ops(rng, inst),
        "metrics": traffic_metrics(rng, inst),
        "metric_pairs": [[[rng.randrange(n), rng.randrange(n)] for _ in range(QUERIES_PER_METRIC)]
                         for _ in range(METRICS)],
        "build_pairs": [[rng.randrange(n), rng.randrange(n)] for _ in range(BUILD_QUERIES)],
    }
    with open(paths["inputs.json"], "w", encoding="utf-8") as f:
        json.dump(inputs, f, sort_keys=True, separators=(",", ":"))
    return paths
