"""numpy kernels behind ``customize()``: respect, basic and perfect steps
run one elimination-tree level at a time.

Only the customization path imports this module, so loading artifacts and
answering queries never pay for numpy. Everything the kernels need that
depends on the hierarchy alone, the level schedules and the opposite arc
of every lower triangle, is one ``Schedule`` per ``Cch``: the first
``customize()`` on a hierarchy builds it, counting that time under
``respect``, and later calls reuse it. Every kernel returns exactly what
the loop oracles in ``tests/oracles.py`` compute.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from .graph import INFINITY
from .preprocess import SENTINEL, Cch, UpwardGraph


def _view(column: array) -> np.ndarray:
    """Read-only int32 view of an ``array('i')`` column, without a copy."""
    view = np.frombuffer(column, dtype=np.intc)
    view.flags.writeable = False
    return view


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each group begins when groups of these sizes are laid end to end."""
    ends = np.cumsum(counts)
    return ends - counts


def _heights(ug: UpwardGraph) -> np.ndarray:
    """Elimination-tree height per vertex; leaves are 0."""
    first, head, n = ug.first_arc, ug.head, ug.vertex_count
    height = [0] * n
    for u in range(n):
        if first[u] < first[u + 1]:
            p = head[first[u]]
            if height[p] <= height[u]:
                height[p] = height[u] + 1
    return np.array(height, dtype=np.int64)


def _depths(ug: UpwardGraph) -> np.ndarray:
    """Elimination-tree depth per vertex; roots are 0."""
    first, head, n = ug.first_arc, ug.head, ug.vertex_count
    depth = [0] * n
    for u in range(n - 1, -1, -1):
        if first[u] < first[u + 1]:
            depth[u] = depth[head[first[u]]] + 1
    return np.array(depth, dtype=np.int64)


def _levels(level: np.ndarray, degree: np.ndarray) -> list[np.ndarray]:
    """Vertices with two or more upward arcs, the only ones below a
    triangle, grouped by ascending level and ascending within a level."""
    vertices = np.flatnonzero(degree > 1)
    vertices = vertices[np.argsort(level[vertices], kind="stable")]
    groups = np.split(vertices.astype(np.intc), np.cumsum(np.bincount(level[vertices]))[:-1])
    return [group for group in groups if len(group)]


class Schedule:
    """The part of customization that depends on the hierarchy alone.

    ``by_height`` and ``by_depth`` list, level by level, the vertices that
    lie below a triangle: two upward arcs ``ei < ej`` of a vertex and the
    arc ``k`` joining their heads. ``tri_k`` stores every ``k`` as its
    offset from ``first[head[ei]]`` in the order the basic step meets them:
    ``tri_k[bounds[i]:bounds[i + 1]]`` is height level i, by vertex, then
    ``ei``, then ``ej``; a vertex's triangles start at ``block[vertex]``.
    An offset is below an up-degree, so ``tri_k`` takes the smallest
    unsigned type that holds the largest one: one byte per triangle on a
    100x100 grid. ``first``, ``head`` and ``tail`` view the hierarchy's
    columns. Every array is read-only, so concurrent customizations can
    share one schedule.
    """

    def __init__(self, ug: UpwardGraph):
        self.first, self.head, self.tail = first, head, tail = (
            _view(ug.first_arc), _view(ug.head), _view(ug.tail))
        degree = np.diff(first).astype(np.int64)
        self.by_height = _levels(_heights(ug), degree)
        self.by_depth = _levels(_depths(ug), degree)
        triangles = degree * (degree - 1) // 2
        # One lookup of every triangle's opposite arc among the arc keys
        # ``tail * n + head``, which ascend with the arc ID.
        n = ug.vertex_count
        key = tail.astype(np.int64) * n + head
        self.tri_k = np.empty(int(triangles.sum()),
                              dtype=np.min_scalar_type(int(degree.max(initial=0))))
        self.block = np.zeros(n, dtype=np.int64)
        self.bounds = [0]
        for vertices in self.by_height:
            arcs, later, ej = self.pairs(vertices)
            lo = self.bounds[-1]
            self.block[vertices] = lo + _starts(triangles[vertices])
            v = np.repeat(head[arcs].astype(np.int64), later)
            k = np.searchsorted(key, v * n + head[ej])
            self.tri_k[lo:lo + len(ej)] = k - self.opposite(arcs, later, 0)
            self.bounds.append(lo + len(ej))
        for column in (self.block, self.tri_k, *self.by_height, *self.by_depth):
            column.flags.writeable = False

    def pairs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arcs of ``vertices`` that open triangles (all but each
        vertex's last), how many each opens, and the later arc ``ej`` of
        every triangle, grouped by ``ei`` ascending."""
        lo = self.first[vertices].astype(np.int64)
        opening = self.first[vertices + 1] - lo - 1
        arcs = np.arange(opening.sum()) + np.repeat(lo - _starts(opening), opening)
        later = np.repeat(lo + opening, opening) - arcs
        ej = np.arange(later.sum()) + np.repeat(arcs + 1 - _starts(later), later)
        return arcs, later, ej

    def opposite(self, arcs: np.ndarray, later: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Arc IDs ``k`` of the triangles ``pairs`` lists, from their
        ``tri_k`` entries."""
        return np.repeat(self.first[self.head[arcs]].astype(np.int64), later) + offsets

    def entries(self, vertices: np.ndarray) -> np.ndarray:
        """Positions in ``tri_k`` of the triangles of ``vertices``, in the
        order ``pairs`` lists them."""
        first = self.first
        degree = (first[vertices + 1] - first[vertices]).astype(np.int64)
        count = degree * (degree - 1) // 2
        return np.arange(count.sum()) + np.repeat(self.block[vertices] - _starts(count), count)


def schedule_of(cch: Cch) -> Schedule:
    """The hierarchy's schedule, built on the first call and kept on the
    ``Cch``. Threads that get here together may each build one; they are
    equal, and each caller goes on with the one it holds."""
    schedule = cch._schedule
    if schedule is None:
        schedule = cch._schedule = Schedule(cch.ug)
    return schedule


def respect(ug: UpwardGraph, weights: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Respected ``l_up``/``l_down``: one gather of the input weights."""
    w = np.append(np.array(weights, dtype=np.int64), INFINITY)
    # SENTINEL (-1) indexes the appended INFINITY.
    return w[_view(ug.orig_up)], w[_view(ug.orig_down)]


def basic(s: Schedule, l_up: np.ndarray, l_down: np.ndarray):
    """Basic step bottom up by height; returns the new weights and the
    witnesses ``up_a, up_b, down_a, down_b``.

    Every arc holds the key ``(weight << b) | lower_arc`` and each triangle
    offers ``(cand << b) | ei``, so one ``np.minimum.at`` per direction
    keeps the smallest candidate with the lowest via vertex, and only a
    candidate strictly below the respected weight changes the key. Arcs
    out of a level are final before it runs, and it writes only arcs of
    higher levels. The upper leg of each witness is looked up once at the
    end. Candidates are capped at INFINITY, which can never improve an
    arc, so keys fit in int64 while arc IDs fit in int32, as witnesses
    must.
    """
    b = max(1, len(s.head).bit_length())
    key_up, key_down = l_up << b, l_down << b
    for vertices, lo, hi in zip(s.by_height, s.bounds, s.bounds[1:]):
        arcs, later, ej = s.pairs(vertices)
        ei = np.repeat(arcs, later)
        k = s.opposite(arcs, later, s.tri_k[lo:hi])
        cand = np.minimum(np.repeat(key_down[arcs] >> b, later) + (key_up[ej] >> b), INFINITY)
        np.minimum.at(key_up, k, (cand << b) | ei)
        cand = np.minimum(np.repeat(key_up[arcs] >> b, later) + (key_down[ej] >> b), INFINITY)
        np.minimum.at(key_down, k, (cand << b) | ei)
    n = len(s.first) - 1
    arc_key = s.tail.astype(np.int64) * n + s.head
    out = []
    for key, respected in ((key_up, l_up), (key_down, l_down)):
        weight = key >> b
        improved = np.flatnonzero(weight < respected)
        lower = np.full(len(key), SENTINEL, dtype=np.int64)
        upper = lower.copy()
        lower[improved] = key[improved] & ((1 << b) - 1)
        upper[improved] = np.searchsorted(
            arc_key, s.tail[lower[improved]].astype(np.int64) * n + s.head[improved])
        out.append((weight, lower, upper))
    (w_up, up_a, up_b), (w_down, down_a, down_b) = out
    return w_up, w_down, up_a, up_b, down_a, down_b


def perfect(s: Schedule, l_up: np.ndarray, l_down: np.ndarray):
    """Perfect step top down by depth; returns the exact weights.

    The exact distance from u to an upward neighbor x is the least basic
    weight of an arc (u, w) plus the exact weight between w and x (w = x
    keeps the arc itself); the other direction mirrors it. The arcs
    between u's upward neighbors have tails of smaller depth, so they are
    exact before u's level runs. Each arc's triangles as ``ei`` are
    adjacent, so their minimum is one ``reduceat``.
    """
    x_up, x_down = l_up.copy(), l_down.copy()
    for vertices in s.by_depth:
        arcs, later, ej = s.pairs(vertices)
        k = s.opposite(arcs, later, s.tri_k[s.entries(vertices)])
        up_k, down_k = x_up[k], x_down[k]
        starts = _starts(later)
        x_up[arcs] = np.minimum(x_up[arcs], np.minimum.reduceat(l_up[ej] + down_k, starts))
        x_down[arcs] = np.minimum(x_down[arcs], np.minimum.reduceat(up_k + l_down[ej], starts))
        np.minimum.at(x_up, ej, np.repeat(l_up[arcs], later) + up_k)
        np.minimum.at(x_down, ej, down_k + np.repeat(l_down[arcs], later))
    return x_up, x_down


def _to_array(values: np.ndarray, typecode: str) -> array:
    """Copy a numpy vector into a compact ``array`` of the given type."""
    return array(typecode, values.astype(np.dtype(typecode)).tobytes())


def _to_marks(marks: np.ndarray) -> bytearray:
    return bytearray(marks.astype(np.uint8).tobytes())


def metric_columns(cch: Cch, weights: list[int], use_perfect: bool, phases: dict) -> tuple:
    """Customize one weight function; return the metric in
    ``CustomizedMetric`` field order: weights as ``array('I')``, witnesses
    as ``array('i')``, deletion marks as ``bytearray``.

    Seconds spent in respect, basic and perfect land in ``phases``;
    ``respect`` includes building the hierarchy's schedule on the first
    call. The numpy temporaries die on return, before the caller builds
    search graphs.
    """
    t0 = time.perf_counter()
    schedule = schedule_of(cch)
    l_up, l_down = respect(cch.ug, weights)
    t1 = time.perf_counter()
    l_up, l_down, *witnesses = basic(schedule, l_up, l_down)
    t2 = time.perf_counter()
    exact_up, exact_down = perfect(schedule, l_up, l_down) if use_perfect else (l_up, l_down)
    t3 = time.perf_counter()
    phases.update(respect=t1 - t0, basic=t2 - t1, perfect=t3 - t2)
    return (_to_array(exact_up, "I"), _to_array(exact_down, "I"),
            *(_to_array(w, "i") for w in witnesses),
            _to_marks(exact_up < l_up), _to_marks(exact_down < l_down))
