"""Loop oracles of ``customize()``, of the ordering's minimum cut and of
graph construction.

Respect, the basic sweep and the perfect step run one triangle at a time
on plain lists; ``cchroute.kernels`` must reproduce them element for
element: weights, witnesses and deletion marks
(``test_customize.py::TestKernelsMatchLoopOracles``). Edmonds-Karp on the
split graph spelled out, one shortest augmenting path per BFS, gives the
flow and the reached states that ``order._min_cut`` must return
(``test_order.py::TestMinCut``).
``from_arcs`` collapses parallel arcs through a dict before it sorts,
``undirected_edges`` collects each arc's endpoints in a set, and
``tails`` finds each arc's tail by bisecting ``first_out``; the one-pass
``InputGraph`` methods and ``graph.tails`` must match them field for
field (``test_graph.py::TestFromArcsOracle``). ``turn_table`` is the turn-file
loader as a dict keyed by arc pairs; ``load_turn_table``'s columns must
hold its entries and raise its errors
(``test_graph.py::TestTurnTableOracle``). One climb per target through
the backward search graph gives the k-NN bucket table that
``PoiIndex.buckets`` builds in one sweep (``test_query.py::TestKnnBuckets``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque

from cchroute import (FORBIDDEN, INFINITY, SENTINEL, ConsistencyError, CustomizedMetric,
                      InputGraph, ParseError, SearchGraphs, UpwardGraph)


def respect(ug: UpwardGraph, weights: list[int]) -> CustomizedMetric:
    """Initialize the metric from input arc weights.

    Original arcs get their input weight per direction, missing one-way
    directions and shortcuts get INFINITY, witnesses are cleared.
    """
    if len(weights) != ug.input_arc_count:
        raise ConsistencyError(
            f"weight array has {len(weights)} entries, hierarchy expects {ug.input_arc_count}")
    m = ug.arc_count
    l_up = [INFINITY] * m
    l_down = [INFINITY] * m
    orig_up, orig_down = ug.orig_up, ug.orig_down
    for i in range(m):
        o = orig_up[i]
        if o != SENTINEL:
            l_up[i] = weights[o]
        o = orig_down[i]
        if o != SENTINEL:
            l_down[i] = weights[o]
    return CustomizedMetric(
        l_up=l_up, l_down=l_down,
        up_a=[SENTINEL] * m, up_b=[SENTINEL] * m,
        down_a=[SENTINEL] * m, down_b=[SENTINEL] * m,
        delete_up=bytearray(m), delete_down=bytearray(m))


def basic_sweep(m: CustomizedMetric, ug: UpwardGraph) -> CustomizedMetric:
    """Basic customization via upper-triangle enumeration with a linear sweep.

    For each arc uv the upper triangles (u, v, w) are found by sweeping
    v's neighborhood once: chordality makes u's upward neighborhood a
    subset of v's, so the sweep never backtracks. Each triangle relaxes
    the opposite arc vw in both directions.
    """
    first, head = ug.first_arc, ug.head
    l_up, l_down = m.l_up, m.l_down
    up_a, up_b, down_a, down_b = m.up_a, m.up_b, m.down_a, m.down_b
    for u in range(ug.vertex_count):
        lo, hi = first[u], first[u + 1]
        for ei in range(lo, hi):
            v = head[ei]
            k = first[v]
            lup_ei = l_up[ei]
            ldown_ei = l_down[ei]
            for ej in range(ei + 1, hi):
                w = head[ej]
                while head[k] != w:
                    k += 1
                cand = ldown_ei + l_up[ej]
                if cand < l_up[k]:
                    l_up[k] = cand
                    up_a[k] = ei
                    up_b[k] = ej
                cand = lup_ei + l_down[ej]
                if cand < l_down[k]:
                    l_down[k] = cand
                    down_a[k] = ei
                    down_b[k] = ej
    return m


def perfect(m: CustomizedMetric, ug: UpwardGraph) -> CustomizedMetric:
    """Perfect customization: every arc weight becomes the exact distance
    between its endpoints, and changed arc-directions are marked for
    removal.

    Vertices are processed top down. Every triangle (u, v, w) above u
    relaxes the two arcs incident to u: the upper triangle of uv and the
    intermediate triangle of uw, both directions each. Arc-directions
    that shrink are marked superfluous; witnesses stay untouched because
    marked arcs are dropped anyway. ``m`` must have been through
    ``basic_sweep``: before it a shortcut can sit at INFINITY in both
    directions over a finite lower triangle, and distances would inflate.
    """
    first, head = ug.first_arc, ug.head
    l_up, l_down = m.l_up, m.l_down
    delete_up, delete_down = m.delete_up, m.delete_down
    for u in range(ug.vertex_count - 1, -1, -1):
        a_lo, a_hi = first[u], first[u + 1]
        for ei in range(a_lo, a_hi):
            v = head[ei]
            k = first[v]
            for ej in range(ei + 1, a_hi):
                w = head[ej]
                while head[k] != w:
                    k += 1
                lup_k = l_up[k]
                ldown_k = l_down[k]
                cand = l_up[ej] + ldown_k
                if cand < l_up[ei]:
                    l_up[ei] = cand
                    delete_up[ei] = 1
                cand = lup_k + l_down[ej]
                if cand < l_down[ei]:
                    l_down[ei] = cand
                    delete_down[ei] = 1
                cand = l_up[ei] + lup_k
                if cand < l_up[ej]:
                    l_up[ej] = cand
                    delete_up[ej] = 1
                cand = ldown_k + l_down[ei]
                if cand < l_down[ej]:
                    l_down[ej] = cand
                    delete_down[ej] = 1
    return m


def edmonds_karp_vertex_cut(adj: list[list[int]], sources: list[int],
                            sinks: list[int]) -> tuple[int, list[bool], list[bool]]:
    """Flow value and reached states of a minimum vertex cut between two
    disjoint vertex sets.

    Edmonds-Karp, one shortest augmenting path per BFS, on the split
    graph spelled out: node 2v is v's in-state and 2v + 1 its out-state,
    joined by an arc of capacity 1, or unbounded for a terminal with no
    neighbour among the other side's terminals. Every edge of ``adj``
    gives an unbounded arc from each end's out-state to the other end's
    in-state, a super-source feeds every source's in-state and every
    sink's out-state drains into a super-sink. Residual capacities live in one dict keyed by
    node pairs. Returns the flow and flags marking the in-states and
    out-states reachable from the super-source in the final residual
    graph.
    """
    n = len(adj)
    unbounded = n + 1
    source, sink = 2 * n, 2 * n + 1
    residual: dict[tuple[int, int], int] = {}
    out: list[list[int]] = [[] for _ in range(2 * n + 2)]

    def arc(a: int, b: int, cap: int) -> None:
        for key in ((a, b), (b, a)):
            if key not in residual:
                residual[key] = 0
                out[key[0]].append(key[1])
        residual[(a, b)] += cap

    source_set, sink_set = set(sources), set(sinks)
    for v in range(n):
        other = sink_set if v in source_set else source_set if v in sink_set else None
        free = other is not None and not any(w in other for w in adj[v])
        arc(2 * v, 2 * v + 1, unbounded if free else 1)
        for w in adj[v]:
            arc(2 * v + 1, 2 * w, unbounded)
    for s in sources:
        arc(source, 2 * s, unbounded)
    for t in sinks:
        arc(2 * t + 1, sink, unbounded)
    flow = 0
    while True:
        pred = {source: source}
        queue = deque([source])
        while queue and sink not in pred:
            a = queue.popleft()
            for b in out[a]:
                if b not in pred and residual[(a, b)] > 0:
                    pred[b] = a
                    queue.append(b)
        if sink not in pred:
            return (flow, [2 * v in pred for v in range(n)],
                    [2 * v + 1 in pred for v in range(n)])
        path = []
        b = sink
        while b != source:
            path.append((pred[b], b))
            b = pred[b]
        push = min(residual[key] for key in path)
        for a, b in path:
            residual[(a, b)] -= push
            residual[(b, a)] += push
        flow += push


def from_arcs(vertex_count: int, arcs) -> InputGraph:
    """``InputGraph.from_arcs`` by a dict of the lightest weight per
    (tail, head), sorted afterwards, into the same array columns."""
    best: dict[tuple[int, int], int] = {}
    dropped = 0
    for t, h, w in arcs:
        if not (0 <= t < vertex_count and 0 <= h < vertex_count):
            raise ConsistencyError(f"arc ({t}, {h}) out of vertex range [0, {vertex_count})")
        if not (0 <= w < INFINITY):
            raise ConsistencyError(f"arc ({t}, {h}) weight {w} outside [0, {INFINITY})")
        if t == h:
            dropped += 1
            continue
        key = (t, h)
        prev = best.get(key)
        if prev is None or w < prev:
            best[key] = w
    first_out = [0] * (vertex_count + 1)
    head, weight = [], []
    for (t, h), w in sorted(best.items()):
        first_out[t + 1] += 1
        head.append(h)
        weight.append(w)
    for u in range(vertex_count):
        first_out[u + 1] += first_out[u]
    return InputGraph(vertex_count, array("i", first_out), array("i", head), array("I", weight),
                      dropped_self_loops=dropped)


def tails(first_out) -> array:
    """``graph.tails`` by a bisection per arc: the tail of arc a is the last
    vertex u with ``first_out[u] <= a``."""
    return array("i", [bisect_right(first_out, a) - 1 for a in range(first_out[-1])])


def turn_table(path: str, g: InputGraph) -> dict[tuple[int, int], int]:
    """``formats.load_turn_table`` as a dict (in-arc, out-arc) -> cost, keyed
    through ``InputGraph.arc_index``, with a duplicate found by key. Each
    line is checked in the loader's order and raises its class and message."""
    table: dict[tuple[int, int], int] = {}
    n = g.vertex_count
    with open(path, encoding="utf-8") as f:
        lines = [(lineno, raw.strip()) for lineno, raw in enumerate(f, start=1)]
    for lineno, line in lines:
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "t":
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
        if len(parts) != 5:
            raise ParseError(f"expected 't <inTail> <inHead> <outHead> <cost|x>', got {' '.join(parts)}", lineno)
        try:
            a, b, c = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError("non-integer vertex fields", lineno) from None
        if not (1 <= a <= n and 1 <= b <= n and 1 <= c <= n):
            raise ConsistencyError(f"line {lineno}: vertex ID out of [1, {n}]")
        self_loop = a == b or b == c
        if not self_loop:
            in_arc = g.arc_index(a - 1, b - 1)
            out_arc = g.arc_index(b - 1, c - 1)
            if in_arc is None or out_arc is None:
                raise ConsistencyError(f"line {lineno}: turn references nonexistent arc")
        if parts[4] == "x":
            cost = FORBIDDEN
        else:
            try:
                cost = int(parts[4])
            except ValueError:
                raise ParseError(f"cost must be an integer or 'x', got {parts[4]!r}", lineno) from None
            if not (0 <= cost < INFINITY):
                raise ConsistencyError(f"line {lineno}: turn cost {cost} outside [0, {INFINITY})")
        if self_loop:
            continue
        key = (in_arc, out_arc)
        if key in table:
            raise ConsistencyError(f"line {lineno}: duplicate turn entry")
        table[key] = cost
    return table


def undirected_edges(g: InputGraph) -> list[tuple[int, int]]:
    """``InputGraph.undirected_edges`` by a set of every arc's endpoints."""
    return sorted({(t, h) if t < h else (h, t) for t, h in zip(tails(g.first_out), g.head)})


def knn_buckets(graphs: SearchGraphs, parent, targets, k: int) -> list[tuple[tuple[int, int], ...]]:
    """``PoiIndex.buckets`` by one climb per target: each target p relaxes
    the backward arcs of its root path in ascending rank, which gives
    d(v->p) on every ancestor v, and every vertex keeps its k smallest
    finite ``(d(v->p), p)`` from the full candidate list."""
    adj = graphs.backward.adj
    found: list[list[tuple[int, int]]] = [[] for _ in adj]
    for p in targets:
        dist = {p: 0}
        v = p
        while v != SENTINEL:
            d = dist.get(v, INFINITY)
            if d < INFINITY:
                found[v].append((d, p))
                for w, wt in adj[v]:
                    if d + wt < dist.get(w, INFINITY):
                        dist[w] = d + wt
            v = parent[v]
    return [tuple(sorted(entries)[:k]) for entries in found]
