"""Rank orders via nested dissection with inertial-flow separators.

A rank order drives the contraction: vertices are eliminated by ascending
rank, and separator vertices always rank above the cells they split. The
recursion tree of the dissection is kept as a separator decomposition,
the structure whose cells the nearest-neighbor search prunes. Once an
order is improved to a DFS post-order of its elimination tree, every
subtree is one contiguous rank range, fixed by the subtree sizes alone,
and the decomposition follows from the tree.
"""

from __future__ import annotations

from collections import deque
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


def _min_cut(adj: list[list[int]], sources: list[int], sinks: list[int]) -> list[bool]:
    """Source side of a minimum edge cut between two disjoint vertex sets.

    A maximum flow on the unit-capacity undirected graph ``adj``, with the
    sources contracted into one terminal and the sinks into another. The
    flow is the set ``used`` of arcs (u, v) carrying a unit from u to v;
    arc (u, v) has residual capacity exactly when it is not in ``used``.
    Returns flags marking the vertices reachable from the sources in the
    final residual graph: the smallest source side of a minimum cut, the
    same for every maximum flow and so equal to Edmonds-Karp's.

    Each round runs one full residual BFS from the sources with a
    non-source neighbour (the others add nothing) and never expands a
    sink. Walking the BFS tree back from each popped sink, in pop order,
    it augments every path that shares no vertex but its source with a
    path augmented earlier in the round: vertex-disjoint paths share no
    arc in either direction. A round that pops no sink ends the flow.
    """
    n = len(adj)
    is_sink = [False] * n
    for t in sinks:
        is_sink[t] = True
    is_source = [False] * n
    for s in sources:
        is_source[s] = True
    frontier = [s for s in sources if not all(is_source[v] for v in adj[s])]
    used: set[tuple[int, int]] = set()
    while True:
        reached = is_source[:]
        pred = [-1] * n
        queue = deque(frontier)
        hits = []
        while queue:
            u = queue.popleft()
            if is_sink[u]:
                hits.append(u)
                continue
            for v in adj[u]:
                if not reached[v] and (u, v) not in used:
                    reached[v] = True
                    pred[v] = u
                    queue.append(v)
        if not hits:
            return reached
        # pred[v] == -2 marks a vertex taken by a path augmented this round.
        for t in hits:
            v = t
            while pred[v] >= 0:
                v = pred[v]
            if pred[v] == -2:
                continue
            v = t
            while pred[v] != -1:
                u = pred[v]
                if (v, u) in used:
                    used.remove((v, u))
                else:
                    used.add((u, v))
                pred[v] = -2
                v = u


def inertial_flow_separator(g: InputGraph, coords: Coordinates, cell: list[int]) -> Separator:
    """Smallest inertial-flow separator of a connected cell.

    ``cell`` lists the cell's vertex IDs in ascending order; it is worked
    in local indices, position in ``cell``, which ascend with the IDs. For
    each of the four axis keys y, x, x+y and x-y, the cell is sorted by
    key, ties broken by ID, the first and last quarter are contracted into
    terminals, and a minimum cut on the unit-capacity undirected topology
    is computed. The candidate separator consists of the cut edges'
    endpoints on the smaller side; the smallest candidate wins, ties
    broken by better balance and then by axis order. The cells are the
    components left when the separator is removed, as ``_components``
    gives them.
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
        source_side = _min_cut(local_adj, by_proj[:quarter], by_proj[-quarter:])
        side_a = sum(source_side)
        side_b = n - side_a
        take_source_side = side_a <= side_b
        sep_local = set()
        for u in range(n):
            if not source_side[u]:
                continue
            for w in local_adj[u]:
                if not source_side[w]:
                    sep_local.add(u if take_source_side else w)
        score = (len(sep_local), abs(side_a - side_b))
        if best is None or score < best[0]:
            best = (score, sep_local)

    sep_local = best[1]
    in_sep = [i in sep_local for i in range(n)]
    return Separator(vertices=[cell[i] for i in sorted(sep_local)],
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
