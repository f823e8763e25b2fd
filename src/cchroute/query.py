"""Query algorithms on a customized hierarchy.

All of them share one structural fact: every arc leaving a vertex points
to one of its elimination-tree ancestors, so a search from any vertex
only ever touches the vertex's root path. Point-to-point queries climb
both root paths in rank-interleaved order, resetting tentative distances
on the fly so the workspace is clean again when they return. One-to-many
queries memoize exact distances down the tree (Lazy RPHAST). k-NN keeps,
per target set, a bucket on every vertex with the k nearest targets below
it; a query climbs its source's root path once and scans the buckets
there.

Vertex IDs are ranks throughout this module.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field

from .customize import SearchGraphs
from .errors import ConsistencyError, StateError
from .graph import INFINITY, InputGraph
from .preprocess import SENTINEL

UNKNOWN = -1


@dataclass
class QueryState:
    """Reusable point-to-point workspace.

    Between queries every tentative distance equals INFINITY; the query
    itself restores that invariant while it runs. ``parent_up[v]`` and
    ``parent_down[v]`` hold the vertex whose search arc last improved v;
    they are only meaningful along the chains written by the most recent
    query, whose (s, t, distance, meeting vertex) is ``last``.
    """

    d_up: list[int]
    d_down: list[int]
    parent_up: list[int]
    parent_down: list[int]
    visited: int = field(default=0, init=False)
    relaxed: int = field(default=0, init=False)
    last: tuple[int, int, int, int] | None = field(default=None, init=False)

    @classmethod
    def for_vertex_count(cls, n: int) -> QueryState:
        return cls(d_up=[INFINITY] * n, d_down=[INFINITY] * n,
                   parent_up=[SENTINEL] * n, parent_down=[SENTINEL] * n)


def query(s: int, t: int, state: QueryState, graphs: SearchGraphs,
          parent: Sequence[int]) -> int:
    """Exact s-to-t distance under the customized metric.

    Climbs the two root paths interleaved by rank until they meet, then
    ascends jointly while maintaining the tentative total distance and
    skipping vertices that already exceed it. Every processed vertex's
    tentative distance is reset immediately afterwards.
    """
    if s == t:
        state.last = (s, t, 0, s)
        return 0
    orig_s, orig_t = s, t
    f_adj, b_adj = graphs.forward.adj, graphs.backward.adj
    d_up, d_down = state.d_up, state.d_down
    p_up, p_down = state.parent_up, state.parent_down
    d_up[s] = 0
    d_down[t] = 0
    p_up[s] = SENTINEL
    p_down[t] = SENTINEL
    visited = relaxed = 0

    while s != t:
        if t == SENTINEL or (s != SENTINEL and s < t):
            d = d_up[s]
            if d != INFINITY:
                arcs = f_adj[s]
                relaxed += len(arcs)
                for v, w in arcs:
                    nd = d + w
                    if nd < d_up[v]:
                        d_up[v] = nd
                        p_up[v] = s
            d_up[s] = INFINITY
            visited += 1
            s = parent[s]
        else:
            d = d_down[t]
            if d != INFINITY:
                arcs = b_adj[t]
                relaxed += len(arcs)
                for v, w in arcs:
                    nd = d + w
                    if nd < d_down[v]:
                        d_down[v] = nd
                        p_down[v] = t
            d_down[t] = INFINITY
            visited += 1
            t = parent[t]

    mu = INFINITY
    meet = SENTINEL
    u = s
    while u != SENTINEL:
        du = d_up[u]
        dd = d_down[u]
        if du != INFINITY and dd != INFINITY:
            total = du + dd
            if total < mu:
                mu = total
                meet = u
        if du < mu:
            arcs = f_adj[u]
            relaxed += len(arcs)
            for v, w in arcs:
                nd = du + w
                if nd < d_up[v]:
                    d_up[v] = nd
                    p_up[v] = u
        d_up[u] = INFINITY
        if dd < mu:
            arcs = b_adj[u]
            relaxed += len(arcs)
            for v, w in arcs:
                nd = dd + w
                if nd < d_down[v]:
                    d_down[v] = nd
                    p_down[v] = u
        d_down[u] = INFINITY
        visited += 1
        u = parent[u]

    state.visited += visited
    state.relaxed += relaxed
    state.last = (orig_s, orig_t, mu, meet)
    return mu


def _expand_arcs(graphs: SearchGraphs, side_up: bool, arc: int, out: list[int]) -> None:
    """Append the expansion of one hierarchy arc (excluding the vertex its
    traversal starts from).

    The arc is traversed upward (tail to head) if ``side_up``, else
    downward. An arc with no witness in that direction is an input edge;
    otherwise its downward leg expands downward and its upward leg upward,
    left to right.
    """
    ug, m = graphs.ug, graphs.metric
    head, tail = ug.head, ug.tail
    up_a, up_b, down_a, down_b = m.up_a, m.up_b, m.down_a, m.down_b
    work = [(side_up, arc)]
    while work:
        up, a = work.pop()
        if up:
            down_leg, up_leg = up_a[a], up_b[a]
        else:
            down_leg, up_leg = down_b[a], down_a[a]
        if down_leg == SENTINEL:
            out.append(head[a] if up else tail[a])
        else:
            # emit down leg first, then up leg (LIFO order)
            work.append((True, up_leg))
            work.append((False, down_leg))


def unpack_path(state: QueryState, graphs: SearchGraphs) -> list[int] | None:
    """Vertex sequence of the most recent query's shortest path.

    Returns None when the pair was unreachable. The sequence is an
    input-graph walk whose weight equals the returned distance. Each hop
    (p, v) of the search path is a hierarchy arc, found by
    ``ug.arc_index(p, v)`` bisecting p's heads, which every loaded or
    built hierarchy holds strictly ascending.
    """
    if state.last is None:
        raise StateError("no query has been run on this state")
    s, t, dist, meet = state.last
    if dist == INFINITY:
        return None
    if s == t:
        return [s]
    parent_up, parent_down = state.parent_up, state.parent_down
    up_chain = []
    v = meet
    while v != s:
        p = parent_up[v]
        up_chain.append(graphs.ug.arc_index(p, v))
        v = p
    path = [s]
    for e in reversed(up_chain):
        _expand_arcs(graphs, True, e, path)
    v = meet
    while v != t:
        p = parent_down[v]
        _expand_arcs(graphs, False, graphs.ug.arc_index(p, v), path)
        v = p
    return path


@dataclass
class RphastState:
    """Incremental one-to-many (or many-to-one) workspace over ``graphs``
    and the elimination tree ``parent``; its memos, sized from ``parent``,
    and its counters are no arguments. After ``rphast_source`` fixes the
    endpoint, every ``rphast_distance`` call memoizes exact distances along
    the queried vertex's root path, so later queries descend only into
    unexplored territory. ``reverse=True`` swaps the two search graphs and
    computes distances *to* the fixed endpoint instead.
    """

    graphs: SearchGraphs
    parent: Sequence[int]
    reverse: bool = False
    d_climb: list[int] = field(init=False)
    known: list[int] = field(init=False)
    relaxations: int = field(default=0, init=False)
    source: int = field(default=SENTINEL, init=False)
    _touched: list[int] = field(default_factory=list, init=False)

    def __post_init__(self):
        self.d_climb = [INFINITY] * len(self.parent)
        self.known = [UNKNOWN] * len(self.parent)


def rphast_source(s: int, state: RphastState) -> None:
    """Fix the source (or target, in reverse mode) and run its climb."""
    for v in state._touched:
        state.d_climb[v] = INFINITY
        state.known[v] = UNKNOWN
    state._touched.clear()
    state.source = s
    adj = (state.graphs.backward if state.reverse else state.graphs.forward).adj
    d_climb = state.d_climb
    parent = state.parent
    d_climb[s] = 0
    v = s
    while v != SENTINEL:
        state._touched.append(v)
        d = d_climb[v]
        if d != INFINITY:
            arcs = adj[v]
            state.relaxations += len(arcs)
            for w, wt in arcs:
                nd = d + wt
                if nd < d_climb[w]:
                    d_climb[w] = nd
        v = parent[v]


def rphast_distance(t: int, state: RphastState) -> int:
    """Exact distance between the fixed endpoint and ``t``.

    Pushes the unknown suffix of t's root path onto a stack, then fills
    the memo top-down: each vertex takes the better of its climb value
    and any arc into an already-known ancestor.
    """
    if state.source == SENTINEL:
        raise StateError("rphast_distance before rphast_source")
    known = state.known
    if known[t] != UNKNOWN:
        return known[t]
    adj = (state.graphs.forward if state.reverse else state.graphs.backward).adj
    d_climb = state.d_climb
    parent = state.parent
    stack = []
    v = t
    while known[v] == UNKNOWN:
        stack.append(v)
        p = parent[v]
        if p == SENTINEL:
            break
        v = p
    touched = state._touched
    relaxations = 0
    for v in reversed(stack):
        d = d_climb[v]
        arcs = adj[v]
        relaxations += len(arcs)
        for w, wt in arcs:
            cand = wt + known[w]
            if cand < d:
                d = cand
        known[v] = d
        touched.append(v)
    state.relaxations += relaxations
    return known[t]


def astar_with_cch_potential(s: int, t: int, search_graph: InputGraph,
                             state: RphastState, vertex_map: Sequence[int],
                             counters: dict | None = None) -> int:
    """A* on an arbitrary search graph guided by hierarchy distances.

    ``state`` must be a reverse-mode workspace over a metric whose arc
    weights are lower bounds of the search graph's, where ``vertex_map[v]``
    is the hierarchy vertex of search vertex v. Distances toward the target
    are then valid potentials; a relaxed arc with negative reduced cost
    means the precondition was violated and raises. The potential of v is
    the workspace's memo ``state.known[vertex_map[v]]``, computed by
    ``rphast_distance`` while unknown. A vertex enters the heap only with
    a finite potential and on a strict improvement, so the entry keyed
    ``dist[u]`` plus u's potential is u's one current entry; the others
    are stale and skipped.
    """
    if not state.reverse:
        raise StateError("potentials need a reverse-mode workspace")
    rphast_source(vertex_map[t], state)
    known = state.known
    first_out, head, weight = search_graph.first_out, search_graph.head, search_graph.weight
    dist = [INFINITY] * search_graph.vertex_count
    dist[s] = 0
    pot_s = rphast_distance(vertex_map[s], state)
    heap = [(pot_s, s)] if pot_s != INFINITY else []
    settled = 0
    result = INFINITY
    while heap:
        key, u = heapq.heappop(heap)
        du = dist[u]
        pu = known[vertex_map[u]]
        if key != du + pu:
            continue
        settled += 1
        if u == t:
            result = du
            break
        for e in range(first_out[u], first_out[u + 1]):
            v = head[e]
            pv = known[vertex_map[v]]
            if pv == UNKNOWN:
                pv = rphast_distance(vertex_map[v], state)
            if pv == INFINITY:
                continue
            w = weight[e]
            if w + pv < pu:
                raise ConsistencyError(
                    f"negative reduced cost on arc ({u}, {v}): potentials are not lower bounds")
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd + pv, v))
    if counters is not None:
        counters["settled"] = settled
    return result


@dataclass
class PoiIndex:
    """Sorted target set for k-nearest-neighbor queries.

    It also caches the bucket table of the search graphs and k it was last
    queried under. The table is built by the first ``knn_query`` for that
    pair and rebuilt when either changes: the graphs are compared by
    identity, and the cache holds them, so a freed ``SearchGraphs`` can
    never pass for a new one.
    """

    targets: list[int]
    _table: tuple[SearchGraphs, int, list[tuple[tuple[int, int], ...]]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def buckets(self, graphs: SearchGraphs, k: int) -> list[tuple[tuple[int, int], ...]]:
        """Per vertex v, the k smallest ``(d(v->p), p)`` over the targets p,
        where d follows downward arcs only, i.e. backward-graph arcs out of p
        up to v. Unreachable targets are left out.

        One sweep in ascending rank: a vertex's candidates are final once
        every vertex below it has pushed its bucket, plus the arc weight, up
        along its backward arcs. Pushing only the k kept entries is exact:
        a target dropped at u is beaten there by k others, ties going to
        smaller IDs, and each of them stays at least as close through u to
        every vertex above.
        """
        table = self._table
        if table is not None and table[0] is graphs and table[1] == k:
            return table[2]
        adj = graphs.backward.adj
        n = len(adj)
        pending: list[dict[int, int] | None] = [None] * n
        for p in self.targets:
            pending[p] = {p: 0}
        result: list[tuple[tuple[int, int], ...]] = [()] * n
        for u in range(n):
            found = pending[u]
            if not found:
                continue
            pending[u] = None
            bucket = tuple(sorted(zip(found.values(), found))[:k])
            result[u] = bucket
            for w, wt in adj[u]:
                into = pending[w]
                if into is None:
                    into = pending[w] = {}
                for d, p in bucket:
                    nd = d + wt
                    if nd < into.get(p, INFINITY):
                        into[p] = nd
        self._table = (graphs, k, result)
        return result


def knn_select(targets, n: int, original=None) -> PoiIndex:
    """Sort and deduplicate a target set (rank IDs).

    ``original`` is accepted for compatibility and ignored: answers are
    rank IDs, which the caller maps back itself.
    """
    unique = sorted(set(targets))
    for v in unique:
        if not (0 <= v < n):
            raise ConsistencyError(f"target {v} out of range [0, {n})")
    return PoiIndex(targets=unique)


def knn_query(s: int, k: int, poi: PoiIndex, decomp: object,
              state: RphastState) -> list[tuple[int, int]]:
    """k nearest targets by customized-metric distance from ``s``, as
    ``(target, distance)`` pairs.

    ``state`` must be a forward workspace fixed at ``s`` by
    ``rphast_source``, whose climb left the upward distance from ``s`` to
    every vertex of its root path in ``d_climb``. Every shortest path
    from ``s`` to a target p meets p's downward search at a common
    ancestor v, so scanning the buckets of ``s``'s root path (see
    ``PoiIndex.buckets``) finds each answer at ``d_climb[v] + d(v->p)``;
    a target missing from the bucket of its best meeting vertex is beaten
    there by k others, so it is not an answer. No arc is relaxed. Ties
    break toward smaller vertex IDs. Unreachable targets never appear;
    fewer than k reachable targets give a shorter result. ``decomp`` is
    accepted for compatibility and ignored.
    """
    if state.source != s or state.reverse:
        raise StateError("knn_query requires rphast_source(s) on a forward state")
    if k <= 0:
        return []
    buckets = poi.buckets(state.graphs, k)
    d_climb, parent = state.d_climb, state.parent
    best: dict[int, int] = {}
    v = s
    while v != SENTINEL:
        d = d_climb[v]
        if d != INFINITY:
            for b, p in buckets[v]:
                nd = d + b
                if nd < best.get(p, INFINITY):
                    best[p] = nd
        v = parent[v]
    return [(p, d) for d, p in sorted(zip(best.values(), best))[:k]]


def knn_dijkstra(g: InputGraph, s: int, k: int, targets) -> list[tuple[int, int]]:
    """Baseline k-NN: plain Dijkstra with early exit past the k-th target.

    It settles every vertex at the k-th target's distance before it stops,
    then keeps the k smallest ``(distance, vertex)`` hits, so ties break
    toward smaller vertex IDs exactly as in ``knn_query``. A vertex is
    pushed only on a strict improvement, never at INFINITY, so its one
    current entry is the one at ``dist[u]``.
    """
    if k <= 0:
        return []
    target_set = set(targets)
    dist = [INFINITY] * g.vertex_count
    dist[s] = 0
    first_out, head, weight = g.first_out, g.head, g.weight
    heap = [(0, s)]
    found: list[tuple[int, int]] = []
    while heap:
        d, u = heapq.heappop(heap)
        if d != dist[u]:
            continue
        if len(found) >= k and d > found[k - 1][1]:
            break
        if u in target_set:
            found.append((u, d))
        for e in range(first_out[u], first_out[u + 1]):
            v = head[e]
            nd = d + weight[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    found.sort(key=lambda hit: (hit[1], hit[0]))
    return found[:k]
