"""Metric customization: turn input weights into hierarchy weights.

The metric lives in two arrays indexed by upward arc: ``l_up[uv]`` is the
cost of traversing arc uv upward (tail to head) and ``l_down[uv]`` the
cost downward. Respecting copies the input weights in, with shortcuts
starting at INFINITY; the basic step enforces the lower triangle
inequality bottom up; the optional perfect step shrinks every arc to the
true distance between its endpoints top down, marking every arc-direction
it changed as superfluous. Per-direction search graphs drop the marked
arcs and hold the rest as one list of ``(head, weight)`` tuples per tail,
which is what the query loops iterate; without the perfect step nothing
is marked and the search graphs hold the whole hierarchy.

``customize()`` runs respect, basic and perfect as numpy kernels
(``kernels.py``), one elimination-tree depth level at a time; the
``Customized`` it returns builds its search graphs. The basic step goes
bottom up, deepest level first: the triangles below a vertex read its
own arcs, which only its descendants write, all deeper, and relax the
arcs between its upward neighbors, all ancestors of smaller depth, so
the vertices of one level never touch each other's arcs. The perfect
step goes top down over the same levels: an arc out of u becomes exact
from the basic weights of u's arcs and the exact weights between u's
upward neighbors, whose tails are of smaller depth. Both steps run on
``Cch.schedule``: the depth levels, arc keys and opposite arc of every
triangle, built by the first ``customize()`` on a ``Cch`` and counted
under ``respect``. The loop oracles in ``tests/oracles.py`` compute the
same metric triangle by triangle.

Witness recording: an arc improved by the basic step stores the two
arcs of its improving triangle, so paths unpack in time proportional to
their length. For an arc (x, y) the pair is (arc joining the lower via
vertex to x, arc joining it to y); the first leg is always traversed
downward and the second upward, regardless of the direction being
unpacked. The triangle is the one the sequential sweep settles on: the
smallest candidate, ties going to the lowest via vertex, and only when
it lies strictly below the respected weight. Witnesses are hierarchy arc
IDs everywhere, in memory and in CCHM artifacts; path unpacking reaches
them from a search hop (p, v) through ``UpwardGraph.arc_index(p, v)``.
"""

from __future__ import annotations

import gc
import time
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, compress, pairwise, repeat

from .errors import ConsistencyError
from .graph import INFINITY, InputGraph
from .preprocess import Cch, SENTINEL, UpwardGraph


@dataclass
class CustomizedMetric:
    """Weights, unpack witnesses, and deletion marks per upward arc.

    ``up_a``/``up_b`` witness the strict improvement of ``l_up`` by the
    basic step (SENTINEL means the arc still carries its respected weight);
    ``down_a``/``down_b`` likewise for ``l_down``. ``customize()`` and
    ``load_customized()`` store weights as ``array('I')`` and witnesses as
    ``array('i')``; the loop oracles of the tests fill plain lists.
    Deletion marks are one byte per arc, 0 or 1.
    """

    l_up: array | list[int]
    l_down: array | list[int]
    up_a: array | list[int]
    up_b: array | list[int]
    down_a: array | list[int]
    down_b: array | list[int]
    delete_up: bytearray
    delete_down: bytearray


@dataclass
class SearchGraph:
    """One direction of the query topology: the hierarchy arcs that survive
    in this direction, grouped by tail as in the hierarchy.

    ``adj[u]`` lists a ``(head, weight)`` tuple per kept arc out of u, heads
    ascending, where ``weight`` is the cost of traversing the arc in this
    graph's direction (tail->head for the forward graph, head->tail for the
    backward graph). Queries iterate these tuples; path unpacking finds a
    hop's hierarchy arc ID through ``UpwardGraph.arc_index``.
    """

    adj: list[list[tuple[int, int]]]

    @property
    def arc_count(self) -> int:
        return sum(map(len, self.adj))


@dataclass
class SearchGraphs:
    """Both search graphs plus the hierarchy and metric they were cut from.

    Witnesses stay hierarchy arc IDs: a hop (p, v) of the forward graph
    unpacks its hierarchy arc e = ``ug.arc_index(p, v)`` via
    ``metric.up_a[e]``/``up_b[e]``, one of the backward graph via
    ``metric.down_b[e]``/``down_a[e]`` (down leg first, then up leg).
    """

    forward: SearchGraph
    backward: SearchGraph
    ug: UpwardGraph
    metric: CustomizedMetric


_KEEP = bytes([1]) + bytes(255)
"""``bytes.translate`` table turning deletion marks into keep flags."""


def _search_direction(ug: UpwardGraph, deleted: bytearray, weight: array | list[int],
                      vertices: list[int]) -> SearchGraph:
    """Group the arcs of one direction that are not marked deleted by tail,
    keeping their order. Heads are taken from ``vertices`` so that every
    adjacency list shares one int per vertex."""
    keep = deleted.translate(_KEEP)
    arcs = list(zip(map(vertices.__getitem__, compress(ug.head, keep)), compress(weight, keep)))
    first = ug.first_arc
    bounds = [0, *accumulate(map(keep.count, repeat(1), first, first[1:]))]
    return SearchGraph(adj=[arcs[lo:hi] for lo, hi in pairwise(bounds)])


def build_reduced(m: CustomizedMetric, ug: UpwardGraph) -> SearchGraphs:
    """Construct the per-direction search graphs without the arcs marked
    deleted; with no deletion marks they hold the whole hierarchy."""
    vertices = list(range(ug.vertex_count))
    # The adjacency is some 170k fresh tuples on a 10k-vertex grid, and
    # each collection the allocations trigger would walk all of them.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return SearchGraphs(forward=_search_direction(ug, m.delete_up, m.l_up, vertices),
                            backward=_search_direction(ug, m.delete_down, m.l_down, vertices),
                            ug=ug, metric=m)
    finally:
        if gc_was_enabled:
            gc.enable()


def check_witnesses(ug: UpwardGraph, m: CustomizedMetric) -> None:
    """Require every witness of a search arc to be a lower triangle of its
    arc whose legs survive in the directions they are traversed.

    The down leg starts where the arc's traversal starts, the up leg ends
    where it ends, and both legs share their lower end, which ranks below
    both ends of the arc. Unpacking therefore recurses on strictly lower
    tails and, since the down leg is a backward search arc and the up leg
    a forward one, reaches only arcs checked here.
    """
    arc_count, head, tail = ug.arc_count, ug.head, ug.tail
    delete_up, delete_down = m.delete_up, m.delete_down
    for deleted, down_leg, up_leg, start, end in (
            (delete_up, m.up_a, m.up_b, tail, head),
            (delete_down, m.down_b, m.down_a, head, tail)):
        for e in compress(range(arc_count), deleted.translate(_KEEP)):
            a = down_leg[e]
            if a == SENTINEL:
                continue
            b = up_leg[e]
            if not (0 <= a < arc_count and 0 <= b < arc_count
                    and head[a] == start[e] and head[b] == end[e] and tail[a] == tail[b]):
                raise ConsistencyError(
                    f"unpack witness ({a}, {b}) is not a lower triangle of its arc")
            if delete_down[a] or delete_up[b]:
                raise ConsistencyError("unpack witness of a surviving arc was deleted")


@dataclass
class Customized:
    """A hierarchy joined with one customized metric, ready for queries.

    ``input_weights`` is an ``array('I')``. ``graphs`` is derived at
    construction by ``build_reduced``."""

    cch: Cch
    metric: CustomizedMetric
    graphs: SearchGraphs = field(init=False)
    perfect: bool
    input_weights: array

    def __post_init__(self):
        self.graphs = build_reduced(self.metric, self.cch.ug)


def customize(cch: Cch, weights: list[int], use_perfect: bool = True,
              threads: int = 1, timings: dict | None = None) -> Customized:
    """Run the customization pipeline for one weight function.

    Respect, then the basic step, then optionally the perfect step, as
    level-synchronous numpy kernels, then search-graph construction, all
    sequential. The same hierarchy can be customized any number of times
    with different weights. ``threads`` is accepted for compatibility and
    selects nothing: results do not depend on it. Per-phase wall-clock
    seconds land in ``timings`` when given; ``respect`` includes building
    the hierarchy's customization schedule on the first call for ``cch``,
    which later calls reuse, and ``construct`` covers packing the metric
    into arrays and building the search graphs.
    """
    from .kernels import metric_columns  # numpy loads only on this path

    ug = cch.ug
    if len(weights) != ug.input_arc_count:
        raise ConsistencyError(
            f"weight array has {len(weights)} entries, hierarchy expects {ug.input_arc_count}")
    # The kernels store weights as 32-bit unsigned ints, so anything else
    # would wrap around silently.
    if weights and (min(weights) < 0 or max(weights) > INFINITY):
        raise ConsistencyError(f"weight outside [0, {INFINITY}]")
    phases: dict[str, float] = {}
    t0 = time.perf_counter()
    metric = CustomizedMetric(*metric_columns(cch, weights, use_perfect, phases))
    c = Customized(cch, metric, use_perfect, array("I", weights))
    total = time.perf_counter() - t0
    if timings is not None:
        timings.update(phases, construct=total - sum(phases.values()), total=total)
    return c


def query_input_graph(c: Customized) -> InputGraph:
    """Rank-space input graph under the customized weights.

    Baselines (plain Dijkstra, k-NN Dijkstra) run on this graph so their
    results are directly comparable with hierarchy queries. Directions
    weighted INFINITY are omitted.
    """
    ug = c.cch.ug
    w = c.input_weights
    arcs = []
    for i in range(ug.arc_count):
        o = ug.orig_up[i]
        if o != SENTINEL and w[o] < INFINITY:
            arcs.append((ug.tail[i], ug.head[i], w[o]))
        o = ug.orig_down[i]
        if o != SENTINEL and w[o] < INFINITY:
            arcs.append((ug.head[i], ug.tail[i], w[o]))
    return InputGraph.from_arcs(ug.vertex_count, arcs)
