"""Input graph model: undirected topology with a directed weight function.

Arcs are stored grouped by tail in a flat adjacency array, sorted by head
within each group. A stored arc (u, v) carries the cost of traversing the
edge {u, v} from u to v; if the reverse arc is absent it is semantically
present with weight INFINITY. This keeps one-way streets representable
while the topology itself stays undirected.

All weights are 32-bit unsigned integers. INFINITY is the largest
representable value and never a weight: stored weights lie in
[0, INFINITY), the customization kernels cap their sums at INFINITY, and
the query loops compare against it, so unreachability never wraps around
into a finite distance.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import sub

from .errors import ConsistencyError

INFINITY = 0xFFFFFFFF
"""Reserved sentinel: maximum 32-bit unsigned value, never a real weight."""


def find_arc(first: array, head: array, u: int, v: int) -> int | None:
    """Index of arc (u, v) in an adjacency array whose heads ascend within
    each tail's range ``first[u]:first[u+1]``, or None if absent."""
    lo, hi = first[u], first[u + 1]
    i = bisect_left(head, v, lo, hi)
    if i < hi and head[i] == v:
        return i
    return None


def tails(first: array) -> array:
    """The tail of every arc of an adjacency array, as ``array('i')``."""
    tail = array("i")
    for u, count in enumerate(map(sub, first[1:], first)):
        tail += array("i", [u]) * count
    return tail


def le_bytes(arr: array) -> bytes:
    """Little-endian bytes of a 4-byte ``array``: the encoding of every
    artifact column and of ``graph_fingerprint``'s input."""
    if sys.byteorder != "little":  # pragma: no cover
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


@dataclass
class InputGraph:
    """Immutable weighted graph in adjacency-array form.

    ``first_out[u]:first_out[u+1]`` is the arc range of vertex ``u`` into
    the parallel ``head`` (``array('i')``, as ``first_out``) and ``weight``
    (``array('I')``) columns; ``tail`` is derived from ``first_out`` on
    first read. Instances are immutable and may be shared across threads.
    """

    vertex_count: int
    first_out: array
    head: array
    weight: array
    dropped_self_loops: int = field(default=0, kw_only=True)
    _undirected: list[list[int]] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def arc_count(self) -> int:
        return len(self.head)

    tail = cached_property(lambda self: tails(self.first_out))

    @classmethod
    def from_arcs(cls, vertex_count: int, arcs) -> InputGraph:
        """Build a graph from (tail, head, weight) triples in any order.

        ``arcs`` may be any iterable. One pass over the triples sorted
        keeps the first, lightest, arc of each (tail, head) run, so
        parallel arcs collapse to their minimum weight and each tail's
        heads ascend strictly. Self-loops are dropped (counted in
        ``dropped_self_loops``). A vertex out of range or a weight outside
        [0, INFINITY) raises ConsistencyError.
        """
        out_degree = [0] * vertex_count
        head, weight = array("i"), array("I")
        dropped = 0
        last_t = last_h = -1
        for t, h, w in sorted(arcs):
            if not (0 <= t < vertex_count and 0 <= h < vertex_count):
                raise ConsistencyError(f"arc ({t}, {h}) out of vertex range [0, {vertex_count})")
            if not (0 <= w < INFINITY):
                raise ConsistencyError(f"arc ({t}, {h}) weight {w} outside [0, {INFINITY})")
            if t == h:
                dropped += 1
            elif h != last_h or t != last_t:
                last_t, last_h = t, h
                out_degree[t] += 1
                head.append(h)
                weight.append(w)
        return cls(vertex_count, array("i", accumulate(out_degree, initial=0)), head, weight,
                   dropped_self_loops=dropped)

    def arc_index(self, u: int, v: int) -> int | None:
        """Index of the stored arc (u, v), or None if absent."""
        return find_arc(self.first_out, self.head, u, v)

    def undirected_adjacency(self) -> list[list[int]]:
        """Sorted neighbor lists of the undirected topology (cached)."""
        if self._undirected is None:
            nbrs: list[set[int]] = [set() for _ in range(self.vertex_count)]
            for t, h in zip(self.tail, self.head):
                nbrs[t].add(h)
                nbrs[h].add(t)
            self._undirected = [sorted(s) for s in nbrs]
        return self._undirected

    def undirected_edges(self) -> list[tuple[int, int]]:
        """All unordered pairs {u, v} with at least one stored direction,
        as (u, v) with u < v, ascending."""
        return [(u, v) for u, nbrs in enumerate(self.undirected_adjacency())
                for v in nbrs if u < v]


@dataclass
class Coordinates:
    """Per-vertex fixed-point geographic coordinates, ``x`` and ``y`` of one length."""

    x: list[int]
    y: list[int]

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ConsistencyError(f"coordinates have {len(self.x)} x and {len(self.y)} y values")

    def __len__(self) -> int:
        return len(self.x)


def dijkstra(g: InputGraph, source: int, targets=None, stats: dict | None = None) -> list[int]:
    """One-to-all (or early-terminated one-to-many) exact distances.

    This is the correctness oracle for every accelerated query in the
    toolkit: plain Dijkstra on the stored arcs; a sum at or past INFINITY
    never improves a distance.
    When ``targets`` is given the search stops once all of them are
    settled. ``stats["settled"]`` receives the settle count if provided.
    """
    n = g.vertex_count
    if not (0 <= source < n):
        raise ConsistencyError(f"source {source} out of range [0, {n})")
    dist = [INFINITY] * n
    dist[source] = 0
    first_out, head, weight = g.first_out, g.head, g.weight
    remaining = set(targets) if targets is not None else None
    settled = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d != dist[u] or d == INFINITY:
            continue
        settled += 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for e in range(first_out[u], first_out[u + 1]):
            v = head[e]
            nd = d + weight[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if stats is not None:
        stats["settled"] = settled
    return dist
