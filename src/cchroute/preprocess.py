"""Metric-independent preprocessing: chordal completion and its byproducts.

Contracting vertices in rank order completes each vertex's higher-ranked
neighborhood into a clique. We store only the upward orientation of the
result, grouped by tail with heads ascending; every vertex's first upward
neighbor is its parent in the elimination tree. The hierarchy's vertex
IDs are ranks, read through the order from each input arc's endpoints,
which keeps every later phase cache-friendly and makes rank comparisons
plain integer comparisons. The classes holding the stored columns
derive the tails, tree, separator decomposition and schedule themselves.
"""

from __future__ import annotations

import operator
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConsistencyError
from .graph import InputGraph, find_arc, le_bytes, tails
from .order import (RankOrder, SeparatorDecomposition, decomposition_from_subtree_sizes,
                    dfs_postorder_reorder, nested_dissection_order, postorder_subtree_sizes)

SENTINEL = -1
"""Parent value of elimination-tree roots; also the 'no arc' marker."""


@dataclass
class UpwardGraph:
    """Chordal completion stored as upward arcs grouped by tail.

    Every column is an ``array('i')``, whose bytes are the CCHP's;
    ``tail`` is not stored but derived from ``first_arc`` at construction.
    ``orig_up[i]`` / ``orig_down[i]`` give the input arc whose direction
    matches arc i's tail->head (resp. head->tail) traversal, or SENTINEL
    for shortcuts and missing one-way directions. ``input_arc_count`` is
    the length of the weight functions this hierarchy can be customized
    with.
    """

    vertex_count: int
    first_arc: array
    head: array
    tail: array = field(init=False)
    orig_up: array
    orig_down: array
    input_arc_count: int

    def __post_init__(self):
        self.tail = tails(self.first_arc)

    @property
    def arc_count(self) -> int:
        return len(self.head)

    def arc_index(self, u: int, v: int) -> int | None:
        return find_arc(self.first_arc, self.head, u, v)


def _ranks(g: InputGraph, order: RankOrder) -> list[int]:
    """``order.rank_of``, checked to cover exactly the vertices of ``g``."""
    if (covered := len(order.rank_of)) != g.vertex_count:
        raise ConsistencyError(f"order covers {covered} vertices, graph has {g.vertex_count}")
    return order.rank_of


def contract(g: InputGraph, order: RankOrder) -> UpwardGraph:
    """Chordal completion of ``g`` under ``order``, on rank IDs.

    Each input arc's endpoints are read through ``order.rank_of``, and
    its ID is recorded in ``orig_up`` or ``orig_down``. Processes
    vertices by ascending rank; each pending neighborhood is sorted and
    deduplicated only when its vertex is reached, and the remainder past
    the lowest upward neighbor is concatenated onto that neighbor's
    pending list. The arc set equals the one produced by the naive
    elimination game.
    """
    n = g.vertex_count
    rank_of = _ranks(g, order)
    ranked = [(rank_of[t], rank_of[h]) for t, h in zip(g.tail, g.head)]
    pending: list[list[int]] = [[] for _ in range(n)]
    for t, h in ranked:
        if t < h:
            pending[t].append(h)
        else:
            pending[h].append(t)
    first_arc = array("i", [0]) * (n + 1)
    head = array("i")
    for u in range(n):
        nb = pending[u]
        if nb:
            nb = sorted(set(nb))
            if len(nb) > 1:
                pending[nb[0]].extend(nb[1:])
            head.extend(nb)
        pending[u] = []
        first_arc[u + 1] = len(head)

    orig_up = array("i", [SENTINEL]) * len(head)
    orig_down = array("i", [SENTINEL]) * len(head)
    for i, (t, h) in enumerate(ranked):
        if t < h:
            orig_up[find_arc(first_arc, head, t, h)] = i
        else:
            orig_down[find_arc(first_arc, head, h, t)] = i
    return UpwardGraph(n, first_arc, head, orig_up, orig_down, g.arc_count)


def build_elimination_tree(ug: UpwardGraph) -> array:
    """Parent array: each vertex's lowest upward neighbor, or SENTINEL."""
    first, head = ug.first_arc, ug.head
    return array("i", [head[lo] if lo < hi else SENTINEL for lo, hi in zip(first, first[1:])])


def graph_elimination_tree(g: InputGraph, order: RankOrder) -> array:
    """The parent array (by rank) that ``build_elimination_tree`` gives
    for ``contract(g, order)``, computed from ``g`` without any fill.

    Liu's algorithm (SIMAX 1990): in rank order, the current root of
    every lower-ranked neighbor, found over path-compressed ancestor
    links, becomes a child of the vertex. Both functions are needed:
    ``build_cch`` wants the tree before it has a hierarchy, to improve the
    order, and loading has a hierarchy but no input graph.
    """
    rank_of = _ranks(g, order)
    adj = g.undirected_adjacency()
    parent = array("i", [SENTINEL]) * len(rank_of)
    ancestor = [SENTINEL] * len(rank_of)
    for k, v in enumerate(order.vertex_at):
        for w in adj[v]:
            j = rank_of[w]
            while j < k:
                up, ancestor[j] = ancestor[j], k
                if up == SENTINEL:
                    parent[j] = k
                    break
                j = up
    return parent


@dataclass
class Cch:
    """Everything the metric-independent phase produces.

    ``order`` is the improved (DFS post-order) ranking the hierarchy was
    contracted with; ``initial_order`` keeps the order ``build_cch`` was
    given or computed, with the decomposition a computed one records
    (rank ranges in its own rank space), and is None on a loaded ``Cch``.
    ``fingerprint`` is the ``graph_fingerprint`` of the input graph the
    hierarchy was built from. Construction derives ``parent``, the
    elimination tree, and checks it with ``postorder_subtree_sizes``,
    whose sizes it keeps for ``decomposition``; ``decomposition`` and
    ``schedule`` (``kernels.Schedule``) are built on first use, outside
    equality, ``repr`` and the artifact.
    """

    ug: UpwardGraph
    parent: array = field(init=False)
    order: RankOrder
    fingerprint: int
    initial_order: RankOrder | None = None
    _subtree_size: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.parent = build_elimination_tree(self.ug)
        self._subtree_size = array("i", postorder_subtree_sizes(self.parent))

    @classmethod
    def from_columns(cls, first_arc: array, head: array, vertex_at: array, orig_up: array,
                     orig_down: array, input_arc_count: int, fingerprint: int) -> Cch:
        """The hierarchy a CCHP stores, or a ConsistencyError if its columns
        are malformed.

        Queries climb the elimination tree, each vertex's first head, to a
        root, which ends only if every first head lies in (tail, n); every
        other head must lie below n. Customization reads the input weight of
        every ``orig_up`` and ``orig_down`` entry, so each must be SENTINEL
        or an input arc ID. ``arc_index`` bisects each vertex's heads, so
        they must ascend; that is checked after the tree, so that a re-hung
        parent is reported as a tree fault.
        """
        n = len(first_arc) - 1
        if (first_arc[0] != 0 or first_arc[-1] != len(head)
                or not all(map(operator.le, first_arc, first_arc[1:]))):
            raise ConsistencyError("arc ranges do not run monotonically from 0 to the arc count")
        if head and (max(head) >= n or any(head[lo] <= u for u, lo, hi
                                           in zip(range(n), first_arc, first_arc[1:]) if lo < hi)):
            raise ConsistencyError("arc head outside (tail, vertex count)")
        for orig in (orig_up, orig_down):
            if orig and (min(orig) < SENTINEL or max(orig) >= input_arc_count):
                raise ConsistencyError("input arc ID outside [0, input arc count)")
        cch = cls(ug=UpwardGraph(n, first_arc, head, orig_up, orig_down, input_arc_count),
                  order=RankOrder(list(vertex_at)), fingerprint=fingerprint)
        # each head must lie above prev: the head before it, or its tail at
        # a range start
        prev = head[-1:] + head[:-1]
        for u, lo, hi in zip(range(n), first_arc, first_arc[1:]):
            if lo < hi:
                prev[lo] = u
        if not all(map(operator.lt, prev, head)):
            raise ConsistencyError("arc heads not strictly ascending above their tail")
        return cch

    def check_graph(self, g: InputGraph) -> None:
        """Raise ConsistencyError unless this hierarchy was built from ``g``:
        the fingerprint must match, and then ``contract(g, order)``, which
        catches a head moved inside a clique that the load checks miss."""
        if self.fingerprint != graph_fingerprint(g):
            raise ConsistencyError("hierarchy was built for a different graph")
        if self.ug != contract(g, self.order):
            raise ConsistencyError("hierarchy is not the contraction of its graph under its order")

    @cached_property
    def decomposition(self) -> SeparatorDecomposition:
        return decomposition_from_subtree_sizes(self._subtree_size)

    @cached_property
    def schedule(self):
        from .kernels import Schedule  # numpy loads only on the customization path
        return Schedule(self.ug)


def build_cch(g: InputGraph, coords=None, order: RankOrder | None = None) -> Cch:
    """Full preprocessing pipeline for an input graph.

    Computes (or takes) a nested dissection order, improves it to a DFS
    post-order of its elimination tree, and contracts once under the
    improved order.
    """
    if order is None:
        if coords is None:
            raise ConsistencyError("need coordinates to compute an order, or an explicit order")
        order = nested_dissection_order(g, coords)
    improved = dfs_postorder_reorder(order, graph_elimination_tree(g, order))
    return Cch(ug=contract(g, improved), order=improved, fingerprint=graph_fingerprint(g),
               initial_order=order)


def graph_fingerprint(g: InputGraph) -> int:
    """CRC32 of the vertex and arc counts and the arcs (tail, head) of ``g``."""
    columns = (array("I", (g.vertex_count, g.arc_count)), g.tail, g.head)
    return zlib.crc32(b"".join(map(le_bytes, columns)))
