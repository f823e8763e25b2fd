"""Loop oracles of ``customize()``: respect, the basic sweep and the
perfect step, one triangle at a time on plain lists.

``cchroute.kernels`` must reproduce them element for element: weights,
witnesses and deletion marks (``test_customize.py::TestKernelsMatchLoopOracles``).
"""

from __future__ import annotations

from cchroute import INFINITY, SENTINEL, ConsistencyError, CustomizedMetric, StateError, UpwardGraph


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
    m.basic_done = True
    return m


def perfect(m: CustomizedMetric, ug: UpwardGraph) -> CustomizedMetric:
    """Perfect customization: every arc weight becomes the exact distance
    between its endpoints, and changed arc-directions are marked for
    removal.

    Vertices are processed top down. Every triangle (u, v, w) above u
    relaxes the two arcs incident to u: the upper triangle of uv and the
    intermediate triangle of uw, both directions each. Arc-directions
    that shrink are marked superfluous; witnesses stay untouched because
    marked arcs are dropped anyway.
    """
    if not m.basic_done:
        # Without the basic step a shortcut could sit at INFINITY in both
        # directions while a finite lower triangle exists below it; the
        # relaxations here would then inflate distances silently.
        raise StateError("perfect customization requires basic customization first")
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
