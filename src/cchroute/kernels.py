"""numpy kernels behind ``customize()``: respect, basic and perfect steps
run one elimination-tree depth level at a time, basic from the deepest
level up and perfect from the roots down.

Only the customization path imports this module, so loading artifacts and
answering queries never pay for numpy. Everything the kernels need that
depends on the hierarchy alone, the depth levels, the arc keys and the
opposite arc of every lower triangle, is ``Cch.schedule``, built by the
first ``customize()`` on a hierarchy, which rejects it if it is not
chordal. Every kernel returns exactly what the loop oracles in
``tests/oracles.py`` compute.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from .errors import ConsistencyError
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

    ``by_depth`` lists, level by level from the roots down, the vertices
    that lie below a triangle: two upward arcs ``ei < ej`` of a vertex and
    the arc ``k`` joining their heads. Two vertices of one depth are never
    ancestor and descendant, so the basic step runs the levels deepest
    first and the perfect step runs them in order. ``tri_k`` stores every
    ``k`` as its offset from ``first[head[ei]]``: ``tri_k[bounds[i]:bounds[i
    + 1]]`` is depth level i, in the order ``pairs`` lists its triangles.
    An offset is below an up-degree, so ``tri_k`` takes the smallest
    unsigned type that holds the largest one: one byte per triangle on a
    100x100 grid. ``first``, ``head`` and ``tail`` view the hierarchy's
    columns, and ``key`` holds the arc keys ``tail * n + head``, which
    ascend with the arc ID. Every array is read-only, so concurrent
    customizations can share one schedule.
    """

    def __init__(self, ug: UpwardGraph):
        self.first, self.head, self.tail = first, head, tail = (
            _view(ug.first_arc), _view(ug.head), _view(ug.tail))
        n = ug.vertex_count
        degree = np.diff(first).astype(np.int64)
        self.by_depth = _levels(_depths(ug), degree)
        self.key = tail.astype(np.int64) * n + head
        self.tri_k = np.empty(int((degree * (degree - 1) // 2).sum()),
                              dtype=np.min_scalar_type(int(degree.max(initial=0))))
        self.bounds = [0]
        for vertices in self.by_depth:
            arcs, later, ej = self.pairs(vertices)
            lo = self.bounds[-1]
            needle = np.repeat(head[arcs].astype(np.int64), later) * n + head[ej]
            k = np.searchsorted(self.key, needle)
            if not np.array_equal(self.key[np.minimum(k, len(self.key) - 1)], needle):
                raise ConsistencyError("hierarchy is not chordal")
            self.tri_k[lo:lo + len(ej)] = k - self.opposite(arcs, later, 0)
            self.bounds.append(lo + len(ej))
        for column in (self.key, self.tri_k, *self.by_depth):
            column.flags.writeable = False

    def levels(self) -> list[tuple[np.ndarray, int, int]]:
        """Per depth level from the roots down: its vertices and the
        bounds of its triangles in ``tri_k``."""
        return list(zip(self.by_depth, self.bounds, self.bounds[1:]))

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


def respect(ug: UpwardGraph, weights: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Respected ``l_up``/``l_down``: one gather of the input weights."""
    w = np.append(np.array(weights, dtype=np.int64), INFINITY)
    # SENTINEL (-1) indexes the appended INFINITY.
    return w[_view(ug.orig_up)], w[_view(ug.orig_down)]


def basic(s: Schedule, l_up: np.ndarray, l_down: np.ndarray):
    """Basic step bottom up, deepest level first; returns the new weights
    and the witnesses ``up_a, up_b, down_a, down_b``.

    Every arc holds the key ``(weight << b) | lower_arc`` and each triangle
    offers ``(cand << b) | ei``, so one ``np.minimum.at`` per direction
    keeps the smallest candidate with the lowest via vertex, and only a
    candidate strictly below the respected weight changes the key. A
    level reads only arcs out of its own vertices, which only their
    descendants write, all deeper; it writes only arcs out of their
    ancestors, all shallower. The upper leg of each witness is looked up
    once at the end among the schedule's arc keys. Candidates are capped
    at INFINITY, which can never improve an arc, so keys fit in int64
    while arc IDs fit in int32, as witnesses must.
    """
    b = max(1, len(s.head).bit_length())
    key_up, key_down = l_up << b, l_down << b
    for vertices, lo, hi in reversed(s.levels()):
        arcs, later, ej = s.pairs(vertices)
        ei = np.repeat(arcs, later)
        k = s.opposite(arcs, later, s.tri_k[lo:hi])
        cand = np.minimum(np.repeat(key_down[arcs] >> b, later) + (key_up[ej] >> b), INFINITY)
        np.minimum.at(key_up, k, (cand << b) | ei)
        cand = np.minimum(np.repeat(key_up[arcs] >> b, later) + (key_down[ej] >> b), INFINITY)
        np.minimum.at(key_down, k, (cand << b) | ei)
    n = len(s.first) - 1
    out = []
    for key, respected in ((key_up, l_up), (key_down, l_down)):
        weight = key >> b
        improved = np.flatnonzero(weight < respected)
        lower = np.full(len(key), SENTINEL, dtype=np.int64)
        upper = lower.copy()
        lower[improved] = key[improved] & ((1 << b) - 1)
        upper[improved] = np.searchsorted(
            s.key, s.tail[lower[improved]].astype(np.int64) * n + s.head[improved])
        out.append((weight, lower, upper))
    (w_up, up_a, up_b), (w_down, down_a, down_b) = out
    return w_up, w_down, up_a, up_b, down_a, down_b


def perfect(s: Schedule, l_up: np.ndarray, l_down: np.ndarray):
    """Perfect step top down, shallowest level first; returns the exact
    weights.

    The exact distance from u to an upward neighbor x is the least basic
    weight of an arc (u, w) plus the exact weight between w and x (w = x
    keeps the arc itself); the other direction mirrors it. The arcs
    between u's upward neighbors have tails of smaller depth, so they are
    exact before u's level runs. Each arc's triangles as ``ei`` are
    adjacent, so their minimum is one ``reduceat``.
    """
    x_up, x_down = l_up.copy(), l_down.copy()
    for vertices, lo, hi in s.levels():
        arcs, later, ej = s.pairs(vertices)
        k = s.opposite(arcs, later, s.tri_k[lo:hi])
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
    schedule = cch.schedule
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
