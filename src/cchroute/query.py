"""Query algorithms on a customized hierarchy.

All of them share one structural fact: every arc leaving a vertex points
to one of its elimination-tree ancestors, so a search from any vertex
only ever touches the vertex's root path. Point-to-point queries climb
both root paths in rank-interleaved order, resetting tentative distances
on the fly so the workspace is clean again when they return. One-to-many
queries memoize exact distances down the tree (Lazy RPHAST); the k-NN
search walks the separator decomposition and prunes cells against the
k-th best distance found so far.

Vertex IDs are ranks throughout this module.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass, field

from .customize import SearchGraphs
from .errors import ConsistencyError, StateError
from .graph import INFINITY, InputGraph
from .order import SeparatorDecomposition
from .preprocess import SENTINEL

UNKNOWN = -1


@dataclass
class QueryState:
    """Reusable point-to-point workspace.

    Between queries every tentative distance equals INFINITY; the query
    itself restores that invariant while it runs. ``parent_up[v]`` and
    ``parent_down[v]`` hold the vertex whose search arc last improved v;
    they are only meaningful along the chains written by the most recent
    query.
    """

    d_up: list[int]
    d_down: list[int]
    parent_up: list[int]
    parent_down: list[int]
    visited: int = 0
    relaxed: int = 0
    last: tuple[int, int, int, int] | None = None

    @classmethod
    def for_vertex_count(cls, n: int) -> QueryState:
        return cls(d_up=[INFINITY] * n, d_down=[INFINITY] * n,
                   parent_up=[SENTINEL] * n, parent_down=[SENTINEL] * n)


def query(s: int, t: int, state: QueryState, graphs: SearchGraphs,
          parent: Sequence[int], prune: bool = True) -> int:
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
        if du < mu or (not prune and du != INFINITY):
            arcs = f_adj[u]
            relaxed += len(arcs)
            for v, w in arcs:
                nd = du + w
                if nd < d_up[v]:
                    d_up[v] = nd
                    p_up[v] = u
        d_up[u] = INFINITY
        if dd < mu or (not prune and dd != INFINITY):
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


def _hop_arc(graphs: SearchGraphs, p: int, v: int) -> int:
    """Hierarchy arc ID of the search-path hop between parent p and v."""
    e = graphs.ug.arc_index(p, v)
    if e is None:
        raise ConsistencyError(f"search path hop ({p}, {v}) is not a hierarchy arc")
    return e


def unpack_path(state: QueryState, graphs: SearchGraphs) -> list[int] | None:
    """Vertex sequence of the most recent query's shortest path.

    Returns None when the pair was unreachable. The sequence is an
    input-graph walk whose weight equals the returned distance. Each hop
    (p, v) of the search path is the hierarchy arc ``ug.arc_index(p, v)``,
    unique since a vertex's heads are distinct.
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
        up_chain.append(_hop_arc(graphs, p, v))
        v = p
    path = [s]
    for e in reversed(up_chain):
        _expand_arcs(graphs, True, e, path)
    v = meet
    while v != t:
        p = parent_down[v]
        _expand_arcs(graphs, False, _hop_arc(graphs, p, v), path)
        v = p
    return path


@dataclass
class RphastState:
    """Incremental one-to-many (or many-to-one) workspace.

    After ``rphast_source`` establishes the fixed endpoint, every
    ``rphast_distance`` call memoizes exact distances along the queried
    vertex's root path, so later queries descend only into unexplored
    territory. ``reverse=True`` swaps the roles of the two search graphs
    and computes distances *to* the fixed endpoint instead.
    """

    graphs: SearchGraphs
    parent: Sequence[int]
    reverse: bool = False
    d_climb: list[int] = field(default_factory=list)
    known: list[int] = field(default_factory=list)
    relaxations: int = 0
    source: int = SENTINEL
    _touched: list[int] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.parent)
        self.d_climb = [INFINITY] * n
        self.known = [UNKNOWN] * n


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
                             state: RphastState, vertex_map=None,
                             counters: dict | None = None) -> int:
    """A* on an arbitrary search graph guided by hierarchy distances.

    ``state`` must be a reverse-mode workspace over a metric whose arc
    weights are lower bounds of the search graph's (after mapping search
    vertices through ``vertex_map``). Distances toward the target are
    then valid potentials; a relaxed arc with negative reduced cost means
    the precondition was violated and raises.
    """
    if not state.reverse:
        raise StateError("potentials need a reverse-mode workspace")
    mapped_t = vertex_map[t] if vertex_map is not None else t
    rphast_source(mapped_t, state)

    n = search_graph.vertex_count
    pot = [UNKNOWN] * n

    def potential(v: int) -> int:
        p = pot[v]
        if p == UNKNOWN:
            p = rphast_distance(vertex_map[v] if vertex_map is not None else v, state)
            pot[v] = p
        return p

    first_out, head, weight = search_graph.first_out, search_graph.head, search_graph.weight
    dist = [INFINITY] * n
    dist[s] = 0
    settled = 0
    pot_s = potential(s)
    if pot_s == INFINITY:
        if counters is not None:
            counters["settled"] = 0
        return INFINITY
    heap = [(pot_s, s)]
    done = [False] * n
    result = INFINITY
    while heap:
        _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        settled += 1
        if u == t:
            result = dist[u]
            break
        du = dist[u]
        pu = potential(u)
        for e in range(first_out[u], first_out[u + 1]):
            v = head[e]
            w = weight[e]
            pv = potential(v)
            if pv == INFINITY:
                continue
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
    """Sorted target set for k-nearest-neighbor queries."""

    targets: list[int]
    original: list[int] | None = None


def knn_select(targets, n: int, original=None) -> PoiIndex:
    """Sort and deduplicate a target set (rank IDs).

    ``original`` optionally maps rank IDs back to caller-level IDs and is
    carried along aligned with the sorted targets.
    """
    unique = sorted(set(targets))
    for v in unique:
        if not (0 <= v < n):
            raise ConsistencyError(f"target {v} out of range [0, {n})")
    aligned = [original[v] for v in unique] if original is not None else None
    return PoiIndex(targets=unique, original=aligned)


def knn_query(s: int, k: int, poi: PoiIndex, decomp: SeparatorDecomposition,
              state: RphastState) -> list[tuple[int, int]]:
    """k nearest targets by customized-metric distance from ``s``.

    Walks the separator decomposition from the root. Visiting a node
    computes exact distances to its whole separator (one descent), scans
    the separator's targets by binary search on the sorted index, and
    bounds every child cell by the smallest distance seen on its
    enclosing separators; cells that cannot beat the current k-th best
    are pruned. Ties break toward smaller vertex IDs. Unreachable targets
    never appear; fewer than k reachable targets give a shorter result.
    """
    if state.source != s:
        raise StateError("knn_query requires rphast_source(s) on this state")
    if k <= 0:
        return []
    targets = poi.targets
    known = state.known
    best: list[tuple[int, int]] = []
    stack = [(decomp, INFINITY)]
    while stack:
        node, bound = stack.pop()
        inside = node.cell_lo <= s < node.cell_hi
        if not inside:
            if bound == INFINITY:
                continue
            if len(best) == k and bound > best[-1][0]:
                continue
        sep_lo, hi = node.sep_lo, node.cell_hi
        child_bound = bound
        if sep_lo < hi:
            rphast_distance(sep_lo, state)
            dmin = INFINITY
            for v in range(sep_lo, hi):
                d = known[v]
                if d < dmin:
                    dmin = d
            i = bisect_left(targets, sep_lo)
            while i < len(targets) and targets[i] < hi:
                x = targets[i]
                d = known[x]
                if d != INFINITY:
                    insort(best, (d, x))
                    if len(best) > k:
                        best.pop()
                i += 1
            if dmin < child_bound:
                child_bound = dmin
        entries = []
        for child in node.children:
            b = 0 if child.cell_lo <= s < child.cell_hi else child_bound
            entries.append((b, child.cell_lo, child))
        entries.sort()
        for b, _, child in reversed(entries):
            stack.append((child, b))
    return [(x, d) for d, x in best]


def knn_dijkstra(g: InputGraph, s: int, k: int, targets) -> list[tuple[int, int]]:
    """Baseline k-NN: plain Dijkstra with early exit past the k-th target.

    It settles every vertex at the k-th target's distance before it stops,
    then keeps the k smallest ``(distance, vertex)`` hits, so ties break
    toward smaller vertex IDs exactly as in ``knn_query``.
    """
    if k <= 0:
        return []
    target_set = set(targets)
    n = g.vertex_count
    dist = [INFINITY] * n
    dist[s] = 0
    done = bytearray(n)
    first_out, head, weight = g.first_out, g.head, g.weight
    heap = [(0, s)]
    found: list[tuple[int, int]] = []
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d != dist[u] or d == INFINITY:
            continue
        if len(found) >= k and d > found[k - 1][1]:
            break
        done[u] = 1
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
