"""Rank orders via nested dissection with inertial-flow separators.

A rank order drives the contraction: vertices are eliminated by ascending
rank, and separator vertices always rank above the cells they split.
Each separator is a minimum vertex cut between the two ends of a cell
along one of four axes, read off a maximum flow in which every vertex
carries one unit, as the flow-based orders FlowCutter (Hamann and
Strasser, JEA 2018) and InertialFlowCutter (Gottesbüren, Hamann, Uhl and
Wagner, Algorithms 2019) compute them. The recursion tree of the
dissection is kept as a separator decomposition, the structure whose
cells the nearest-neighbor search prunes. Once an order is improved to a
DFS post-order of its elimination tree, every subtree is one contiguous
rank range, fixed by the subtree sizes alone, and the decomposition
follows from the tree.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import ConsistencyError
from .graph import Coordinates, InputGraph

CELL_CUTOFF = 8
"""Cells of at most this many vertices are not cut but ordered by degree."""


@dataclass
class SeparatorDecomposition:
    """Node of the recursion tree over contiguous rank ranges.

    The cell occupies ranks [cell_lo, cell_hi) and its separator is the
    suffix [sep_lo, cell_hi). Children partition [cell_lo, sep_lo). A node
    whose separator spans the whole cell is a leaf.
    """

    cell_lo: int
    cell_hi: int
    sep_lo: int
    children: list[SeparatorDecomposition] = field(default_factory=list)

    def preorder(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class RankOrder:
    """The vertex ``vertex_at[r]`` of each rank r and, derived at
    construction, the inverse ``rank_of``: ConsistencyError unless
    ``vertex_at`` is a permutation of [0, n). ``decomposition`` is the one
    ``nested_dissection_order`` records, or None."""

    rank_of: list[int] = field(init=False)
    vertex_at: Sequence[int]
    decomposition: SeparatorDecomposition | None = field(default=None, kw_only=True)

    def __post_init__(self):
        n = len(self.vertex_at)
        self.rank_of = rank_of = [-1] * n
        for r, v in enumerate(self.vertex_at):
            if not (0 <= v < n):
                raise ConsistencyError(f"rank {r}: vertex {v} out of range [0, {n})")
            if rank_of[v] != -1:
                raise ConsistencyError(f"vertex {v} appears at ranks {rank_of[v]} and {r}")
            rank_of[v] = r

    @classmethod
    def identity(cls, n: int) -> RankOrder:
        return cls(range(n))


@dataclass
class Separator:
    """A separator and the cells left when it is removed."""

    vertices: list[int]
    cells: list[list[int]]


_ROOT = -2
"""Search predecessor of a source's in-state, and of the out-state of every
source that does not carry a unit through a capacity."""


def _min_cut(adj: list[list[int]], sources: list[int], sinks: list[int],
             limit: int | None = None) -> tuple[list[bool], list[bool]] | None:
    """Reachable states of a minimum vertex cut between two disjoint
    vertex sets, or None once the flow exceeds ``limit``.

    A maximum flow from the sources to the sinks through the undirected
    graph ``adj`` in which every vertex carries at most one unit. The
    exception is a terminal with no neighbour among the other side's
    terminals: it has no capacity, as if contracted into its terminal.
    Each vertex is split into an in-state, which its edges enter, and an
    out-state, which they leave; the arc between them carries its unit.
    The flow is one list ``prv``: ``prv[v]`` is the vertex whose unit
    enters v, -1 if v carries none, and v itself for a source with
    capacity, whose unit comes from the terminal.

    In the residual graph an out-state reaches every neighbour's in-state,
    and an in-state has exactly one arc: to its own out-state if the
    vertex is free, else back to the out-state of ``prv[v]``. So the
    search steps from out-state to out-state and takes each in-state in
    passing; a saturated vertex's out-state also steps back through its
    own in-state. ``pin[v]`` is the vertex whose out-state reached v's
    in-state, and ``pout[v]`` the vertex whose in-state reached v's
    out-state.

    Returns flags marking the in-states and the out-states reachable from
    the sources in the final residual graph, the same for every maximum
    flow. The vertices whose in-state is reached and whose out-state is
    not are a minimum vertex separator: one vertex per unit of flow.

    Each round runs one full residual search from the sources that have a
    non-source neighbour (the others add nothing) and never passes a sink.
    Walking the search tree back from each sink reached, in the order
    reached, it augments every path that shares no vertex with a path
    augmented earlier in the round, except a source without capacity:
    such paths change the flow of none but their own vertices. Augmenting
    sets ``prv`` of each in-state on the path to the vertex it was reached
    from, or to -1 if that is its own out-state. A path that enters v from
    u while v's unit enters u leaves a unit circling between the two,
    which changes no reachable state. A round that reaches no sink ends
    the flow.
    """
    n = len(adj)
    # kind: 1 for a source with capacity, 2 for a sink, 3 for a sink with
    # capacity, 0 for every other vertex.
    kind = [0] * n
    for s in sources:
        kind[s] = -1
    for t in sinks:
        kind[t] = 3 if any(kind[w] == -1 for w in adj[t]) else 2
    roots = [s for s in sources if not all(kind[w] == -1 for w in adj[s])]
    for s in sources:
        kind[s] = 1 if any(kind[w] >= 2 for w in adj[s]) else 0
    prv = [-1] * n
    flow = 0
    while True:
        pin = [-1] * n
        pout = [-1] * n
        for s in sources:
            pin[s] = pout[s] = _ROOT
        queue = []
        for s in roots:
            if prv[s] == -1:
                queue.append(s)
            else:
                # Reached only back from the vertex its unit enters.
                pout[s] = -1
        hits = []
        for u in queue:
            for v in adj[u]:
                if pin[v] == -1:
                    pin[v] = u
                    p = prv[v]
                    if p == -1:
                        if kind[v]:
                            hits.append(v)
                        else:
                            pout[v] = v
                            queue.append(v)
                    elif pout[p] == -1:
                        pout[p] = v
                        queue.append(p)
            p = prv[u]
            if p != -1 and pin[u] == -1:
                pin[u] = u
                if pout[p] == -1:
                    pout[p] = u
                    queue.append(p)
        if not hits:
            return [p != -1 for p in pin], [p != -1 for p in pout]
        taken = bytearray(n)
        for t in hits:
            # Each step goes back from the in-state of v to the out-state
            # of u = pin[v], then to the in-state of pout[u].
            steps = []
            v = t
            while v != _ROOT and not taken[v] and not taken[pin[v]]:
                u = pin[v]
                steps.append((v, u))
                v = pout[u]
            if v != _ROOT:
                continue
            for v, u in steps:
                if u == v:
                    prv[v] = -1
                elif kind[v] != 2:
                    prv[v] = u
                taken[v] = taken[u] = 1
            if kind[u] == 1:
                prv[u] = u
            else:
                taken[u] = 0
            flow += 1
            if limit is not None and flow > limit:
                return None


def inertial_flow_separator(g: InputGraph, coords: Coordinates, cell: list[int]) -> Separator:
    """Smallest inertial-flow separator of a connected cell.

    ``cell`` lists the cell's vertex IDs in ascending order; it is worked
    in local indices, position in ``cell``, which ascend with the IDs. For
    each of the four axis keys y, x, x+y and x-y, the cell is sorted by
    key, ties broken by ID, and ``_min_cut`` computes a minimum vertex cut
    between the first and last quarter. The candidate separator is the
    set of vertices whose in-state is reached from the first quarter and
    whose out-state is not, as large as the flow. The smallest candidate
    wins, ties broken by better balance between the vertices on either
    side and then by axis order; an axis whose flow exceeds the best size
    so far is dropped. The cells are the components left when the
    separator is removed, as ``_components`` gives them.
    """
    adj = g.undirected_adjacency()
    n = len(cell)
    if n < 2:
        raise ConsistencyError("cell must contain at least two vertices")
    local_of = {v: i for i, v in enumerate(cell)}
    local_adj = [[local_of[w] for w in adj[v] if w in local_of] for v in cell]
    quarter = (n + 3) // 4
    xs = [coords.x[v] for v in cell]
    ys = [coords.y[v] for v in cell]

    best = None
    for proj in (ys, xs, [x + y for x, y in zip(xs, ys)], [x - y for x, y in zip(xs, ys)]):
        # A stable sort of ascending local indices breaks ties by ID.
        by_proj = sorted(range(n), key=proj.__getitem__)
        cut = _min_cut(local_adj, by_proj[:quarter], by_proj[-quarter:],
                       None if best is None else best[0][0])
        if cut is None:
            continue
        in_reached, out_reached = cut
        in_sep = [a and not b for a, b in zip(in_reached, out_reached)]
        size = sum(in_sep)
        side_a = sum(out_reached)
        score = (size, abs(2 * side_a + size - n))
        if best is None or score < best[0]:
            best = (score, in_sep)

    in_sep = best[1]
    return Separator(vertices=[cell[i] for i in range(n) if in_sep[i]],
                     cells=[[cell[i] for i in comp] for comp in _components(local_adj, in_sep)])


def _components(adj: list[list[int]], removed: list[bool]) -> list[list[int]]:
    """Connected components of ``adj`` without the ``removed`` vertices.

    Each component is sorted, and they come in order of their smallest
    vertex.
    """
    seen = list(removed)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        # A breadth-first search: the loop reads the vertices it appends.
        for u in comp:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def nested_dissection_order(g: InputGraph, coords: Coordinates) -> RankOrder:
    """Compute a nested dissection order, recording the recursion tree.

    Separator vertices take the highest ranks of their cell's range.
    Cells of at most ``CELL_CUTOFF`` vertices are ordered by ascending
    induced degree, then ID. A disconnected graph splits at the root into
    one child per component, with no separator between them; below the
    root every cell is connected. Every cell lists its vertex IDs in
    ascending order, as ``inertial_flow_separator`` requires.
    """
    n = g.vertex_count
    if len(coords) != n:
        raise ConsistencyError(f"coordinates cover {len(coords)} vertices, graph has {n}")
    adj = g.undirected_adjacency()
    vertex_at = [-1] * n
    # Each work item appends its own node to the parent's child list when
    # popped; children are pushed in reverse so cells come off in order.
    root_children: list[SeparatorDecomposition] = []
    stack: list[tuple[list[int], int, list[SeparatorDecomposition]]] = [
        (list(range(n)), 0, root_children)]
    while stack:
        cell, lo, out = stack.pop()
        hi = lo + len(cell)
        if len(cell) <= CELL_CUTOFF:
            allowed = set(cell)
            vertex_at[lo:hi] = sorted(
                cell, key=lambda v: (sum(1 for w in adj[v] if w in allowed), v))
            out.append(SeparatorDecomposition(lo, hi, lo))
            continue
        # Every child cell is a component already; only the root may split.
        comps = _components(adj, [False] * n) if hi - lo == n else [cell]
        if len(comps) > 1:
            sep = Separator(vertices=[], cells=comps)
        else:
            sep = inertial_flow_separator(g, coords, cell)
        sep_lo = hi - len(sep.vertices)
        vertex_at[sep_lo:hi] = sep.vertices
        node = SeparatorDecomposition(lo, hi, sep_lo)
        out.append(node)
        # The cells tile [lo, sep_lo) in order.
        child_hi = sep_lo
        for child in reversed(sep.cells):
            child_hi -= len(child)
            stack.append((child, child_hi, node.children))

    return RankOrder(vertex_at, decomposition=root_children[0])


def subtree_sizes(parent: Sequence[int]) -> list[int]:
    """Number of vertices in each vertex's subtree of an elimination tree.

    ``parent[v]`` is v's parent, or -1 for a root. One ascending pass
    suffices because every parent must outrank its children; a parent
    that does not, which includes every cycle, or that is no vertex at
    all raises ConsistencyError.
    """
    n = len(parent)
    size = [1] * n
    for u, p in enumerate(parent):
        if p != -1:
            if not u < p < n:
                raise ConsistencyError(f"parent {p} of vertex {u} is not a vertex ranked above it")
            size[p] += size[u]
    return size


def dfs_postorder_reorder(order: RankOrder, parent: Sequence[int]) -> RankOrder:
    """Improve an order to a DFS post-order of its elimination tree.

    ``parent`` is the tree over old ranks. The new ranks are those of the
    DFS post-order that visits roots and the children of each vertex in
    ascending old rank, so every subtree occupies a contiguous rank range
    and each vertex still ranks above all of its descendants. The augmented
    graph built from the new order is isomorphic to the old one under the
    relabeling. One descending pass over the subtree sizes lays it out:
    the roots take ranges from the top down, and each child, met in
    descending old rank, takes the highest ``size`` ranks still free below
    its parent's new rank.
    """
    n = len(order.rank_of)
    if len(parent) != n:
        raise ConsistencyError(f"elimination tree covers {len(parent)} vertices, order has {n}")
    size = subtree_sizes(parent)
    # free[p] bounds the ranks still free for p's children; the extra last
    # entry, free[-1], plays that part for the roots.
    free = [0] * n + [n]
    vertex_at = [-1] * n
    for r in range(n - 1, -1, -1):
        p = parent[r]
        free[r] = free[p] - 1
        vertex_at[free[r]] = order.vertex_at[r]
        free[p] -= size[r]
    return RankOrder(vertex_at)


def postorder_subtree_sizes(parent: Sequence[int]) -> list[int]:
    """``subtree_sizes`` of a non-empty tree whose ranks are its DFS
    post-order, so each subtree is the rank range [v - size[v] + 1, v];
    else ConsistencyError. That holds exactly when no subtree's range
    reaches below its parent's: bottom up, the children's ranges then lie
    in [p - size[p] + 1, p), are disjoint and their sizes sum to
    size[p] - 1, so they tile it."""
    if not parent:
        raise ConsistencyError("empty elimination tree")
    size = subtree_sizes(parent)
    if any(v - size[v] < p - size[p] for v, p in enumerate(parent) if p != -1):
        raise ConsistencyError(
            "subtree rank ranges not contiguous; order is not a DFS post-order")
    return size


def reconstruct_separator_decomposition(parent: Sequence[int]) -> SeparatorDecomposition:
    """Rebuild the separator decomposition from an elimination tree that
    ``postorder_subtree_sizes`` accepts."""
    return decomposition_from_subtree_sizes(postorder_subtree_sizes(parent))


def decomposition_from_subtree_sizes(size: Sequence[int]) -> SeparatorDecomposition:
    """The separator decomposition of a tree whose ranks are its DFS
    post-order, from the sizes ``postorder_subtree_sizes`` returned for
    it. Each node's separator is the chain
    of single children down from its subtree root (v's only child is v - 1
    when size[v - 1] = size[v] - 1); the subtrees below the chain's last
    vertex, found by stepping from its top child down by subtree sizes,
    become the child cells. A subtree that is a bare path is a leaf whose
    separator is the whole path. Several roots hang as cells under a node
    with an empty separator spanning all ranks.
    """
    n = len(size)

    def tiling(lo: int, hi: int) -> list[int]:
        """Roots of the subtrees that tile ranks [lo, hi), ascending."""
        roots = []
        c = hi - 1
        while c >= lo:
            roots.append(c)
            c -= size[c]
        roots.reverse()
        return roots

    roots = tiling(0, n)
    top = SeparatorDecomposition(0, n, n)
    # Each entry is a subtree root and the node its own node hangs under;
    # the loop reads the entries it appends, so siblings keep their order.
    work = [(r, top) for r in roots]
    for r, up in work:
        lo = r - size[r] + 1
        v = r
        while size[v - 1] == size[v] - 1:  # never true at a leaf, whose size is 1
            v -= 1
        node = SeparatorDecomposition(lo, r + 1, v)
        up.children.append(node)
        work.extend((c, node) for c in tiling(lo, v))
    return top if len(roots) > 1 else top.children[0]
