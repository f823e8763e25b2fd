"""numpy kernels behind ``customize()``: respect, basic and perfect steps
run one elimination-tree level at a time.

Only the customization path imports this module, so loading artifacts and
answering queries never pay for numpy. Every kernel returns exactly what
the loop functions ``respect``/``basic_sweep``/``perfect`` in
``customize.py`` compute; those stay as the test oracles.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from .graph import INFINITY
from .preprocess import SENTINEL, UpwardGraph


class Topology:
    """The hierarchy as int64 arrays plus the arc key ``tail * n + head``,
    which ascends with the arc ID and so finds arcs by ``searchsorted``."""

    def __init__(self, ug: UpwardGraph):
        n = ug.vertex_count
        self.ug = ug
        self.first = np.array(ug.first_arc, dtype=np.int64)
        self.head = np.array(ug.head, dtype=np.int64)
        self.tail = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.first))
        self.key = self.tail * n + self.head
        self.vertex_count = n

    def arcs_between(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """IDs of the arcs (lower[i], upper[i]); every pair must be an arc."""
        return np.searchsorted(self.key, lower * self.vertex_count + upper)

    def arc_levels(self, level: np.ndarray) -> list[np.ndarray]:
        """Arcs that have a later arc of the same tail, grouped by the level
        of their tail; only those open triangles."""
        has_later = np.ones(len(self.head), dtype=bool)
        has_later[self.first[1:][np.diff(self.first) > 0] - 1] = False
        arcs = np.flatnonzero(has_later)
        arc_level = level[self.tail[arcs]]
        arcs = arcs[np.argsort(arc_level, kind="stable")]
        return np.split(arcs, np.cumsum(np.bincount(arc_level))[:-1])

    def triangles(self, arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair ``ei < ej`` of arcs sharing a tail, ``ei`` in ``arcs``,
        with the arc ``k`` joining their heads; ``ei`` ascends."""
        later = self.first[self.tail[arcs] + 1] - arcs - 1
        ei = np.repeat(arcs, later)
        starts = np.repeat(np.cumsum(later) - later, later)
        ej = ei + 1 + (np.arange(len(ei), dtype=np.int64) - starts)
        return ei, ej, self.arcs_between(self.head[ei], self.head[ej])


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


def respect(topo: Topology, weights: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Respected ``l_up``/``l_down``: one gather of the input weights."""
    w = np.append(np.array(weights, dtype=np.int64), INFINITY)
    # SENTINEL (-1) indexes the appended INFINITY.
    return (w[np.array(topo.ug.orig_up, dtype=np.int64)],
            w[np.array(topo.ug.orig_down, dtype=np.int64)])


def basic(topo: Topology, l_up: np.ndarray, l_down: np.ndarray):
    """Basic step bottom up by height; returns the new weights and the
    witnesses ``up_a, up_b, down_a, down_b``.

    Every arc holds the key ``(weight << b) | lower_arc`` and each triangle
    offers ``(cand << b) | ei``, so one ``np.minimum.at`` per direction
    keeps the smallest candidate with the lowest via vertex, and only a
    candidate strictly below the respected weight changes the key. The
    upper leg of each witness is looked up once at the end.
    Candidates are capped at INFINITY, which can never improve an arc, so
    keys fit in int64 while arc IDs fit in int32, as witnesses must.
    """
    b = max(1, len(topo.head).bit_length())
    key_up, key_down = l_up << b, l_down << b
    for arcs in topo.arc_levels(_heights(topo.ug)):
        ei, ej, k = topo.triangles(arcs)
        cand = np.minimum((key_down[ei] >> b) + (key_up[ej] >> b), INFINITY)
        np.minimum.at(key_up, k, (cand << b) | ei)
        cand = np.minimum((key_up[ei] >> b) + (key_down[ej] >> b), INFINITY)
        np.minimum.at(key_down, k, (cand << b) | ei)
    out = []
    for key, respected in ((key_up, l_up), (key_down, l_down)):
        weight = key >> b
        improved = np.flatnonzero(weight < respected)
        lower = np.full(len(key), SENTINEL, dtype=np.int64)
        upper = lower.copy()
        lower[improved] = key[improved] & ((1 << b) - 1)
        upper[improved] = topo.arcs_between(topo.tail[lower[improved]], topo.head[improved])
        out.append((weight, lower, upper))
    (w_up, up_a, up_b), (w_down, down_a, down_b) = out
    return w_up, w_down, up_a, up_b, down_a, down_b


def perfect(topo: Topology, l_up: np.ndarray, l_down: np.ndarray):
    """Perfect step top down by depth; returns the exact weights.

    The exact distance from u to an upward neighbor x is the least basic
    weight of an arc (u, w) plus the exact weight between w and x (w = x
    keeps the arc itself); the other direction mirrors it. The arcs
    between u's upward neighbors have tails of smaller depth, so they are
    exact before u's level runs.
    """
    x_up, x_down = l_up.copy(), l_down.copy()
    for arcs in topo.arc_levels(_depths(topo.ug)):
        ei, ej, k = topo.triangles(arcs)
        up_k, down_k = x_up[k], x_down[k]
        np.minimum.at(x_up, ei, l_up[ej] + down_k)
        np.minimum.at(x_down, ei, up_k + l_down[ej])
        np.minimum.at(x_up, ej, l_up[ei] + up_k)
        np.minimum.at(x_down, ej, down_k + l_down[ei])
    return x_up, x_down


def _to_array(values: np.ndarray, typecode: str) -> array:
    """Copy a numpy vector into a compact ``array`` of the given type."""
    return array(typecode, values.astype(np.dtype(typecode)).tobytes())


def _to_marks(marks: np.ndarray) -> bytearray:
    return bytearray(marks.astype(np.uint8).tobytes())


def metric_columns(ug: UpwardGraph, weights: list[int], use_perfect: bool,
                   phases: dict) -> tuple:
    """Customize one weight function; return the metric in
    ``CustomizedMetric`` field order: weights as ``array('I')``, witnesses
    as ``array('i')``, deletion marks as ``bytearray``.

    Seconds spent in respect, basic and perfect land in ``phases``. The
    numpy temporaries die on return, before the caller builds search graphs.
    """
    t0 = time.perf_counter()
    topo = Topology(ug)
    l_up, l_down = respect(topo, weights)
    t1 = time.perf_counter()
    l_up, l_down, *witnesses = basic(topo, l_up, l_down)
    t2 = time.perf_counter()
    exact_up, exact_down = perfect(topo, l_up, l_down) if use_perfect else (l_up, l_down)
    t3 = time.perf_counter()
    phases.update(respect=t1 - t0, basic=t2 - t1, perfect=t3 - t2)
    return (_to_array(exact_up, "I"), _to_array(exact_down, "I"),
            *(_to_array(w, "i") for w in witnesses),
            _to_marks(exact_up < l_up), _to_marks(exact_down < l_down))
