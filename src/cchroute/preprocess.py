"""Metric-independent preprocessing: chordal completion and its byproducts.

Contracting vertices in rank order completes each vertex's higher-ranked
neighborhood into a clique. We store only the upward orientation of the
result, grouped by tail with heads ascending; every vertex's first upward
neighbor is its parent in the elimination tree. Vertex IDs must equal
ranks before contraction (see ``permute_to_rank_ids``), which keeps every
later phase cache-friendly and makes rank comparisons plain integer
comparisons.
"""

from __future__ import annotations

import operator
import sys
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import ConsistencyError, FormatError
from .graph import InputGraph
from .order import RankOrder, SeparatorDecomposition, dfs_postorder_reorder, nested_dissection_order

SENTINEL = -1
"""Parent value of elimination-tree roots; also the 'no arc' marker."""

MAGIC = b"CCHP"
VERSION = 1


@dataclass
class UpwardGraph:
    """Chordal completion stored as upward arcs grouped by tail.

    Every column is an ``array('i')``, whose bytes are the CCHP encoding.
    ``orig_up[i]`` / ``orig_down[i]`` give the input arc whose direction
    matches arc i's tail->head (resp. head->tail) traversal, or SENTINEL
    for shortcuts and missing one-way directions. ``input_arc_count`` is
    the length of the weight functions this hierarchy can be customized
    with.
    """

    vertex_count: int
    first_arc: array
    head: array
    tail: array
    orig_up: array
    orig_down: array
    input_arc_count: int

    @property
    def arc_count(self) -> int:
        return len(self.head)

    def arc_index(self, u: int, v: int) -> int | None:
        lo, hi = self.first_arc[u], self.first_arc[u + 1]
        i = bisect_left(self.head, v, lo, hi)
        if i < hi and self.head[i] == v:
            return i
        return None


def permute_to_rank_ids(g: InputGraph, order: RankOrder) -> InputGraph:
    """Relabel vertices so that IDs equal ranks.

    Weights travel with their arcs and ``arc_origin`` composes, so the
    permuted graph still knows which input arc each of its arcs came from.
    """
    n = g.vertex_count
    if len(order.rank_of) != n:
        raise ConsistencyError(f"order covers {len(order.rank_of)} vertices, graph has {n}")
    rank_of = order.rank_of
    relabeled = []
    for i in range(g.arc_count):
        origin = g.arc_origin[i] if g.arc_origin is not None else i
        relabeled.append((rank_of[g.tail[i]], rank_of[g.head[i]], g.weight[i], origin))
    relabeled.sort()
    first_out = [0] * (n + 1)
    head = []
    weight = []
    tail = []
    origin_list = []
    for t, h, w, origin in relabeled:
        first_out[t + 1] += 1
        tail.append(t)
        head.append(h)
        weight.append(w)
        origin_list.append(origin)
    for u in range(n):
        first_out[u + 1] += first_out[u]
    return InputGraph(n, first_out, head, weight, tail, arc_origin=origin_list,
                      dropped_self_loops=g.dropped_self_loops)


def contract(g: InputGraph) -> UpwardGraph:
    """Chordal completion of ``g`` under the identity rank order.

    Processes vertices by ascending rank; each pending neighborhood is
    sorted and deduplicated only when its vertex is reached, and the
    remainder past the lowest upward neighbor is concatenated onto that
    neighbor's pending list. The arc set equals the one produced by the
    naive elimination game.
    """
    n = g.vertex_count
    pending: list[list[int]] = [[] for _ in range(n)]
    for i in range(g.arc_count):
        t, h = g.tail[i], g.head[i]
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

    m = len(head)
    ug = UpwardGraph(n, first_arc, head, _arc_tails(first_arc),
                     orig_up=array("i", [SENTINEL]) * m, orig_down=array("i", [SENTINEL]) * m,
                     input_arc_count=g.arc_count)
    for i in range(g.arc_count):
        t, h = g.tail[i], g.head[i]
        origin = g.arc_origin[i] if g.arc_origin is not None else i
        if t < h:
            ug.orig_up[ug.arc_index(t, h)] = origin
        else:
            ug.orig_down[ug.arc_index(h, t)] = origin
    return ug


def _arc_tails(first_arc: array) -> array:
    """Tail of every arc, given each vertex's arc range."""
    tails = array("i")
    for u, count in enumerate(map(operator.sub, first_arc[1:], first_arc)):
        tails += array("i", [u]) * count
    return tails


def _check_topology(ug: UpwardGraph, parent: array) -> None:
    """Reject a loaded hierarchy whose arcs or elimination tree are malformed.

    Queries climb ``parent`` to a root and path unpacking recurses on arcs
    with lower tails. Both end only if every arc points from its tail up
    to an existing vertex and every parent is its child's first upward
    head. Customization reads the input weight of every ``orig_up`` and
    ``orig_down`` entry, so each must be SENTINEL or an input arc ID.
    """
    first_arc, head = ug.first_arc, ug.head
    if (first_arc[0] != 0 or first_arc[-1] != ug.arc_count
            or not all(map(operator.le, first_arc, first_arc[1:]))):
        raise ConsistencyError("arc ranges do not run monotonically from 0 to the arc count")
    if ug.tail != _arc_tails(first_arc):
        raise ConsistencyError("arc tails disagree with the arc ranges")
    if head and (max(head) >= ug.vertex_count or not all(map(operator.lt, ug.tail, head))):
        raise ConsistencyError("arc head outside (tail, vertex count)")
    if parent != build_elimination_tree(ug):
        raise ConsistencyError("parent array is not the elimination tree of the arcs")
    for orig in (ug.orig_up, ug.orig_down):
        if orig and (min(orig) < SENTINEL or max(orig) >= ug.input_arc_count):
            raise ConsistencyError("input arc ID outside [0, input arc count)")


def build_elimination_tree(ug: UpwardGraph) -> array:
    """Parent array: each vertex's lowest upward neighbor, or SENTINEL."""
    first, head = ug.first_arc, ug.head
    return array("i", [head[lo] if lo < hi else SENTINEL for lo, hi in zip(first, first[1:])])


def subtree_sizes(parent: Sequence[int]) -> list[int]:
    """Subtree size per vertex; a single ascending pass works because
    every parent outranks its children."""
    n = len(parent)
    size = [1] * n
    for u in range(n):
        p = parent[u]
        if p != SENTINEL:
            if p <= u:
                raise ConsistencyError(f"parent {p} of vertex {u} does not outrank it")
            size[p] += size[u]
    return size


def reconstruct_separator_decomposition(parent: Sequence[int]) -> SeparatorDecomposition:
    """Rebuild the separator decomposition from an elimination tree.

    Requires ranks to be a DFS post-order of the tree (each subtree a
    contiguous rank range). For each subtree, the path from the highest
    vertex with more than one child up to the subtree root is the
    separator; the child subtrees below it become the child cells. A
    subtree that is a bare path is a leaf whose separator is the whole
    path.
    """
    n = len(parent)
    size = subtree_sizes(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for u in range(n):
        p = parent[u]
        if p == SENTINEL:
            roots.append(u)
        else:
            children[p].append(u)

    def check_tiling(lo: int, hi: int, kids: list[int]) -> None:
        expected_end = hi
        for c in reversed(kids):
            if c != expected_end - 1:
                raise ConsistencyError(
                    "subtree rank ranges not contiguous; order is not a DFS post-order")
            expected_end = c - size[c] + 1
        if expected_end != lo:
            raise ConsistencyError(
                "subtree rank ranges not contiguous; order is not a DFS post-order")

    def build_node(root: int) -> SeparatorDecomposition:
        node = SeparatorDecomposition(0, 0, 0)
        work = [(root, node)]
        while work:
            sub_root, out = work.pop()
            lo = sub_root - size[sub_root] + 1
            v = sub_root
            while len(children[v]) == 1:
                c = children[v][0]
                if c != v - 1:
                    raise ConsistencyError(
                        "separator path not contiguous; order is not a DFS post-order")
                v = c
            if not children[v]:
                out.cell_lo, out.cell_hi, out.sep_lo = lo, sub_root + 1, lo
                continue
            out.cell_lo, out.cell_hi, out.sep_lo = lo, sub_root + 1, v
            check_tiling(lo, v, children[v])
            for c in children[v]:
                child_node = SeparatorDecomposition(0, 0, 0)
                out.children.append(child_node)
                work.append((c, child_node))
        return node

    if not roots:
        raise ConsistencyError("empty elimination tree")
    if len(roots) == 1:
        root_node = build_node(roots[0])
        if root_node.cell_hi - root_node.cell_lo != n:
            raise ConsistencyError("root subtree does not span all ranks")
        return root_node
    check_tiling(0, n, roots)
    top = SeparatorDecomposition(0, n, n)
    for r in roots:
        top.children.append(build_node(r))
    return top


@dataclass
class Cch:
    """Everything the metric-independent phase produces.

    ``order`` is the improved (DFS post-order) ranking the hierarchy was
    contracted with; ``initial_order`` keeps the dissection order and its
    recorded decomposition (rank ranges in its own rank space) when the
    order was computed rather than imported. ``parent`` is an
    ``array('i')`` like the hierarchy's columns. ``decomposition`` is the
    one ``reconstruct_separator_decomposition`` gives for ``parent``; a
    loaded artifact must store exactly that one. The first ``customize()``
    builds the hierarchy's customization schedule (``kernels.Schedule``:
    its depth levels, arc keys and triangle table) into ``_schedule``,
    which takes no part in equality, ``repr`` or the artifact.
    """

    ug: UpwardGraph
    parent: array
    decomposition: SeparatorDecomposition
    order: RankOrder
    initial_order: RankOrder | None = None
    _schedule: object = field(default=None, init=False, repr=False, compare=False)


def build_cch(g: InputGraph, coords=None, order: RankOrder | None = None,
              cell_cutoff: int = 8) -> Cch:
    """Full preprocessing pipeline for an input graph.

    Computes (or takes) a nested dissection order, contracts once to get
    the elimination tree, improves the order to a DFS post-order of that
    tree, and contracts again under the improved order. The separator
    decomposition is reconstructed from the final tree.
    """
    if order is None:
        if coords is None:
            raise ConsistencyError("need coordinates to compute an order, or an explicit order")
        order = nested_dissection_order(g, coords, cell_cutoff=cell_cutoff)
    initial_tree = build_elimination_tree(contract(permute_to_rank_ids(g, order)))
    improved = dfs_postorder_reorder(order, initial_tree)
    ug = contract(permute_to_rank_ids(g, improved))
    parent = build_elimination_tree(ug)
    decomposition = reconstruct_separator_decomposition(parent)
    return Cch(ug=ug, parent=parent, decomposition=decomposition, order=improved,
               initial_order=order)


def _encode_array(arr: array) -> bytes:
    """Little-endian bytes of a 4-byte ``array``."""
    if sys.byteorder != "little":  # pragma: no cover
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


class _Reader:
    """Cursor over an artifact's bytes. ``array`` reads every column of
    both artifacts, the inverse of ``_encode_array``; ``take`` reads the
    magic, version and flag bytes and the deletion marks."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise FormatError("truncated artifact")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def array(self, typecode: str, count: int) -> array:
        """Read ``count`` little-endian 4-byte values into an ``array``."""
        arr = array(typecode)
        arr.frombytes(self.take(4 * count))
        if sys.byteorder != "little":  # pragma: no cover
            arr.byteswap()
        return arr


def _flatten_decomposition(root: SeparatorDecomposition) -> array:
    flat = array("I")
    for node in root.preorder():
        flat.extend((node.cell_lo, node.cell_hi, node.sep_lo, len(node.children)))
    return flat


def save_cch(cch: Cch, path: str) -> None:
    """Serialize the preprocessing artifact (little-endian 4-byte columns)."""
    with open(path, "wb") as f:
        f.writelines(_cch_parts(cch))


def serialize_cch(cch: Cch) -> bytes:
    return b"".join(_cch_parts(cch))


def _cch_parts(cch: Cch):
    """The CCHP encoding of ``cch`` in order, one column at a time."""
    ug = cch.ug
    n, m = ug.vertex_count, ug.arc_count
    flat = _flatten_decomposition(cch.decomposition)
    header = array("I", (n, m, ug.input_arc_count, len(flat) // 4))
    yield MAGIC + bytes([VERSION])
    yield from map(_encode_array, (header, ug.first_arc, ug.head, ug.tail, cch.parent,
                                   array("I", cch.order.vertex_at), ug.orig_up, ug.orig_down,
                                   flat))


def load_cch(path: str) -> Cch:
    with open(path, "rb") as f:
        return deserialize_cch(f.read())


def deserialize_cch(data: bytes, reader: _Reader | None = None) -> Cch:
    r = reader if reader is not None else _Reader(data)
    if r.take(4) != MAGIC:
        raise FormatError("bad magic; not a preprocessing artifact")
    version = r.take(1)[0]
    if version != VERSION:
        raise FormatError(f"unsupported artifact version {version}")
    n, m, input_arc_count, node_count = r.array("I", 4)
    first_arc = r.array("i", n + 1)
    head = r.array("i", m)
    tail = r.array("i", m)
    parent = r.array("i", n)
    vertex_at = r.array("I", n)
    orig_up = r.array("i", m)
    orig_down = r.array("i", m)
    flat = r.array("I", 4 * node_count)
    if reader is None and r.pos != len(r.data):
        raise FormatError("trailing bytes in artifact")
    ug = UpwardGraph(n, first_arc, head, tail,
                     orig_up=orig_up, orig_down=orig_down,
                     input_arc_count=input_arc_count)
    _check_topology(ug, parent)
    order = RankOrder.from_vertex_at(vertex_at)
    # k-NN pruning holds only for the elimination tree's own cells.
    decomposition = reconstruct_separator_decomposition(parent)
    if _flatten_decomposition(decomposition) != flat:
        raise ConsistencyError("separator decomposition is not the elimination tree's")
    return Cch(ug=ug, parent=parent, decomposition=decomposition, order=order)
