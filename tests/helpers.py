"""Shared test fixtures: instance generators and brute-force oracles.

The oracles here are deliberately naive (path enumeration, the textbook
elimination game, exhaustive cut enumeration) so they stay independent of
the code paths they check.
"""

from __future__ import annotations

import importlib.util
import random
import struct
import zlib
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from cchroute import Coordinates, InputGraph, INFINITY, RankOrder, build_cch, customize

REPO = Path(__file__).resolve().parent.parent
SAMPLE = REPO / "sample"
"""The repository's sample instance (grid.gr, grid.co, query files)."""


def diamond() -> InputGraph:
    """Four vertices u=0, v=1, w=2, x=3 with symmetric weights
    uv=1, uw=10, vx=1, wx=1; identity order is already the rank order."""
    arcs = []
    for a, b, w in [(0, 1, 1), (0, 2, 10), (1, 3, 1), (2, 3, 1)]:
        arcs.append((a, b, w))
        arcs.append((b, a, w))
    return InputGraph.from_arcs(4, arcs)


def grid_graph(rng: random.Random, rows: int, cols: int,
               one_way: float = 0.0, max_weight: int = 1000):
    """Grid with random integer weights; a fraction of edges is one-way."""
    n = rows * cols
    arcs = []

    def vid(r, c):
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if r2 >= rows or c2 >= cols:
                    continue
                a, b = vid(r, c), vid(r2, c2)
                if rng.random() < one_way:
                    if rng.random() < 0.5:
                        a, b = b, a
                    arcs.append((a, b, rng.randint(1, max_weight)))
                else:
                    arcs.append((a, b, rng.randint(1, max_weight)))
                    arcs.append((b, a, rng.randint(1, max_weight)))
    g = InputGraph.from_arcs(n, arcs)
    coords = Coordinates(x=[v % cols for v in range(n)], y=[v // cols for v in range(n)])
    return g, coords


def perturbed_grid(rng: random.Random, side: int):
    """Road-like ``side`` x ``side`` grid with unit weights: each grid edge
    is kept with probability 0.9, and the coordinates of a 1000-unit
    lattice are jittered by up to 300. Dropped edges can cut a corner off,
    so the graph may be disconnected."""
    n = side * side
    xs = [(v % side + 1) * 1000 + rng.randint(-300, 300) for v in range(n)]
    ys = [(v // side + 1) * 1000 + rng.randint(-300, 300) for v in range(n)]
    arcs = []
    for v in range(n):
        r, c = divmod(v, side)
        for w in ((v + 1) if c + 1 < side else None, (v + side) if r + 1 < side else None):
            if w is not None and rng.random() < 0.9:
                arcs.append((v, w, 1))
                arcs.append((w, v, 1))
    return InputGraph.from_arcs(n, arcs), Coordinates(x=xs, y=ys)


def random_connected_graph(rng: random.Random, n: int, extra_factor: float = 0.4,
                           one_way: float = 0.2, max_weight: int = 1000):
    """Road-like random instance: random points, a geometric spanning tree
    plus extra short edges, ~20% one-way arcs."""
    pts = [(rng.randint(0, 10000), rng.randint(0, 10000)) for _ in range(n)]

    def d2(a, b):
        return (pts[a][0] - pts[b][0]) ** 2 + (pts[a][1] - pts[b][1]) ** 2

    edges = set()
    attached = [0]
    for v in range(1, n):
        candidates = rng.sample(attached, min(3, len(attached)))
        u = min(candidates, key=lambda c: d2(v, c))
        edges.add((min(u, v), max(u, v)))
        attached.append(v)
    for _ in range(int(extra_factor * n)):
        v = rng.randrange(n)
        w = min(rng.sample(range(n), min(4, n)), key=lambda c: d2(v, c) or 1 << 60)
        if v != w:
            edges.add((min(v, w), max(v, w)))

    arcs = []
    for a, b in sorted(edges):
        if rng.random() < one_way:
            if rng.random() < 0.5:
                a, b = b, a
            arcs.append((a, b, rng.randint(1, max_weight)))
        else:
            arcs.append((a, b, rng.randint(1, max_weight)))
            arcs.append((b, a, rng.randint(1, max_weight)))
    g = InputGraph.from_arcs(n, arcs)
    coords = Coordinates(x=[p[0] for p in pts], y=[p[1] for p in pts])
    return g, coords


def rank_relabeled(g: InputGraph, order: RankOrder) -> InputGraph:
    """``g`` with every vertex renamed to its rank under ``order``, weights
    travelling with their arcs: the rank-space graph a hierarchy built
    under ``order`` answers for, derived from ``g`` alone."""
    rank_of = order.rank_of
    return InputGraph.from_arcs(g.vertex_count, [(rank_of[t], rank_of[h], w)
                                                 for t, h, w in zip(g.tail, g.head, g.weight)])


def random_order(rng: random.Random, n: int):
    from cchroute import RankOrder

    vertex_at = list(range(n))
    rng.shuffle(vertex_at)
    return RankOrder(vertex_at)


# Small weights make ties frequent, between triangles and with the
# respected weight; near-overflow and closed weights make sums of two legs
# exceed 32 bits, and INFINITY legs must never improve an arc.
METRIC_WEIGHTS = st.one_of(st.integers(0, 3), st.sampled_from([1000, INFINITY - 1, INFINITY]))


@st.composite
def hierarchies_with_metrics(draw):
    """A random graph of up to 12 vertices (one-way and two-way arcs, often
    disconnected) contracted under a random order, and a weight per arc."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    arcs = []
    for t, h, both in draw(st.lists(st.tuples(vertex, vertex, st.booleans()), max_size=3 * n)):
        arcs.append((t, h, 1))
        if both:
            arcs.append((h, t, 1))
    g = InputGraph.from_arcs(n, arcs)
    order = RankOrder(list(draw(st.permutations(range(n)))))
    weights = draw(st.lists(METRIC_WEIGHTS, min_size=g.arc_count, max_size=g.arc_count))
    return build_cch(g, order=order), weights


class ArtifactEditor:
    """Edit the bytes of a v2 CCHP (or, with ``cchm``, CCHM) of ``cch`` at
    named columns, then re-seal them with a fresh CRC32 trailer, so that an
    edit reaches the structural checks behind the checksum.

    Layout: a CCHM starts with its magic, version and perfect flag (6
    bytes) and embeds the CCHP without the CCHP's trailer. The CCHP has
    its magic and version (5 bytes), the u32 header (vertex count, arc
    count, input arc count, graph fingerprint), then the 4-byte columns
    ``first_arc``, ``head``, ``vertex_at``, ``orig_up``, ``orig_down``.
    A CCHM goes on with ``input_weights``, ``l_up``, ``l_down``,
    ``up_a``, ``up_b``, ``down_a``, ``down_b`` and the 1-byte columns
    ``delete_up``, ``delete_down``. Both end with the trailer.
    """

    def __init__(self, data: bytes, cch, cchm: bool = False):
        self.data = bytearray(data)
        ug = cch.ug
        n, m = ug.vertex_count, ug.arc_count
        columns = [("first_arc", n + 1, 4), ("head", m, 4), ("vertex_at", n, 4),
                   ("orig_up", m, 4), ("orig_down", m, 4)]
        if cchm:
            columns += [("input_weights", ug.input_arc_count, 4)]
            columns += [(name, m, 4) for name in ("l_up", "l_down", "up_a", "up_b",
                                                  "down_a", "down_b")]
            columns += [("delete_up", m, 1), ("delete_down", m, 1)]
        pos = (6 if cchm else 0) + 5 + 16
        self.columns = {}
        for name, count, width in columns:
            self.columns[name] = (pos, width)
            pos += count * width
        assert pos + 4 == len(data), "not a v2 artifact of this hierarchy"

    def at(self, column: str, index: int = 0) -> int:
        """Byte offset of entry ``index`` of ``column``."""
        start, width = self.columns[column]
        return start + width * index

    def put(self, column: str, index: int, value: int) -> None:
        """Overwrite one entry: a little-endian u32, or a byte in the
        1-byte columns."""
        width = self.columns[column][1]
        struct.pack_into("<I" if width == 4 else "B", self.data, self.at(column, index), value)

    def swap(self, column: str, i: int, j: int) -> None:
        """Exchange entries ``i`` and ``j`` of ``column``."""
        a, b = self.at(column, i), self.at(column, j)
        width = self.columns[column][1]
        self.data[a:a + width], self.data[b:b + width] = (self.data[b:b + width],
                                                          self.data[a:a + width])

    def sealed(self) -> bytes:
        body = bytes(self.data[:-4])
        return body + zlib.crc32(body).to_bytes(4, "little")


def swappable_heads(ug) -> list[tuple[int, int]]:
    """``(i, j)``, the second and the last arc, of every vertex with three
    or more heads, in vertex order. Swapping the two heads together with
    their input arc IDs keeps the elimination tree (each vertex's first
    head) and every input arc at its hierarchy arc: only the ascent of
    the heads breaks."""
    first = ug.first_arc
    return [(first[u] + 1, first[u + 1] - 1) for u in range(ug.vertex_count)
            if first[u + 1] - first[u] >= 3]


def head_moves(ug):
    """``(i, v, chordal)`` for every move of one entry of ``head`` that a
    hierarchy still loads with, by i, then v. Entry i is neither the first
    arc of its tail (the tree parent) nor the last, and v lies strictly
    between the heads before and after it, so the tree and the ascent of
    the heads hold. ``chordal`` tells whether the moved hierarchy is still
    chordal: v is linked to every other head of the tail, and no vertex
    below the tail has both the tail and the old head among its heads,
    since that triangle would lose the moved arc."""
    first, head, tail = ug.first_arc, ug.head, ug.tail
    arcs = set(zip(tail, head))
    below = [[] for _ in range(ug.vertex_count)]
    for z, u in arcs:
        below[u].append(z)
    for i in range(ug.arc_count):
        u, x = tail[i], head[i]
        if not first[u] < i < first[u + 1] - 1:
            continue
        others = [w for w in head[first[u]:first[u + 1]] if w != x]
        keeps_triangles = not any((z, x) in arcs for z in below[u])
        for v in range(head[i - 1] + 1, head[i + 1]):
            if v != x:
                yield i, v, keeps_triangles and all((min(v, w), max(v, w)) in arcs
                                                    for w in others)


def perfbench_instance(out_dir, seed: int = 1, side: int = 30) -> dict[str, str]:
    """Paths of the benchmark's seeded grid files (``grid.gr``, ``grid.co``,
    ``grid.turns``, ``inputs.json``), generated into ``out_dir`` by
    ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.generate(seed, str(out_dir), side=side)


def search_arcs(graph) -> list[tuple[int, int, int]]:
    """``(tail, head, weight)`` of every arc of a search graph, grouped by
    tail in adjacency order."""
    return [(u, v, w) for u, arcs in enumerate(graph.adj) for v, w in arcs]


def build_customized(g, coords, use_perfect=True, threads=1):
    cch = build_cch(g, coords)
    return cch, customize(cch, list(g.weight), use_perfect=use_perfect, threads=threads)


def enumerate_path_distance(g: InputGraph, s: int, t: int) -> int:
    """Shortest s-t distance by exhaustive simple-path enumeration.

    Only usable on tiny graphs; the independent oracle for Dijkstra.
    """
    best = 0 if s == t else INFINITY

    def walk(u, dist, seen):
        nonlocal best
        if u == t:
            best = min(best, dist)
            return
        for e in range(g.first_out[u], g.first_out[u + 1]):
            v = g.head[e]
            if v not in seen:
                walk(v, dist + g.weight[e], seen | {v})

    if s != t:
        walk(s, 0, {s})
    return best


def naive_elimination_arcs(n: int, undirected_edges) -> set[tuple[int, int]]:
    """Textbook elimination game on vertices 0..n-1 in ID order.

    Returns the upward arc set (lower ID first) of the chordal
    completion: repeatedly remove the lowest vertex and connect its
    remaining neighbors pairwise.
    """
    nbrs = [set() for _ in range(n)]
    for a, b in undirected_edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    arcs = set()
    for u in range(n):
        upper = sorted(w for w in nbrs[u] if w > u)
        for w in upper:
            arcs.add((u, w))
        for a, b in combinations(upper, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
    return arcs


def is_ancestor(parent, anc: int, v: int) -> bool:
    """Whether ``anc`` lies on the parent chain from ``v`` (``v`` included)."""
    while v != -1:
        if v == anc:
            return True
        v = parent[v]
    return False


def subtree_members(parent) -> list[list[int]]:
    """Every vertex's subtree as a sorted member list, found by walking
    each vertex's parent chain: the layout oracle for elimination trees."""
    n = len(parent)
    return [[v for v in range(n) if is_ancestor(parent, u, v)] for u in range(n)]


def is_postorder(parent) -> bool:
    """Whether the ranks are a DFS post-order of the tree: every subtree is
    the rank range [v - size + 1, v] below its root v."""
    return all(m == list(range(v - len(m) + 1, v + 1))
               for v, m in enumerate(subtree_members(parent)))


def assert_cells_are_components(g: InputGraph, cell: list[int], sep) -> None:
    """``sep``, a split of ``cell``, leaves exactly the connected components
    of ``cell`` minus ``sep.vertices`` as its cells: each sorted, in order
    of their smallest vertex, together covering the rest of the cell. The
    components are found by merging labels over ``g.undirected_edges()``
    until nothing changes."""
    assert set(sep.vertices) <= set(cell)
    rest = sorted(set(cell) - set(sep.vertices))
    label = {v: v for v in rest}
    changed = True
    while changed:
        changed = False
        for a, b in g.undirected_edges():
            if a in label and b in label and label[a] != label[b]:
                label[a] = label[b] = min(label[a], label[b])
                changed = True
    expected: dict[int, list[int]] = {}
    for v in rest:
        expected.setdefault(label[v], []).append(v)
    assert sep.cells == [expected[root] for root in sorted(expected)]


def _bipartitions(adj: list[list[int]], sources: set[int], sinks: set[int]):
    """Yield (cut edge count, source side) for every vertex bipartition
    that puts all sources on one side and all sinks on the other."""
    n = len(adj)
    others = [v for v in range(n) if v not in sources and v not in sinks]
    edges = {(u, v) for u in range(n) for v in adj[u] if u < v}
    for mask in range(1 << len(others)):
        side = set(sources)
        for i, v in enumerate(others):
            if mask >> i & 1:
                side.add(v)
        yield sum(1 for (u, v) in edges if (u in side) != (v in side)), side


def brute_force_min_cut(adj: list[list[int]], sources: set[int], sinks: set[int]) -> int:
    """Minimum s-t edge cut by enumerating all vertex bipartitions."""
    return min(cut for cut, _ in _bipartitions(adj, sources, sinks))


def disconnects(adj: list[list[int]], sources, sinks, removed) -> bool:
    """Whether no path joins a source to a sink once ``removed`` is gone."""
    seen = set(removed)
    todo = [s for s in sources if s not in seen]
    seen.update(todo)
    for u in todo:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return not any(t in seen and t not in removed for t in sinks)


def brute_force_min_vertex_cut(adj: list[list[int]], sources: list[int],
                               sinks: list[int]) -> int:
    """Fewest vertices whose removal leaves no source-sink path, by
    trying every set in order of size. A terminal with no neighbour among
    the other side's terminals may not be removed."""
    source_set, sink_set = set(sources), set(sinks)
    fixed = {v for v in source_set if not any(w in sink_set for w in adj[v])}
    fixed |= {v for v in sink_set if not any(w in source_set for w in adj[v])}
    removable = [v for v in range(len(adj)) if v not in fixed]
    for size in range(len(removable) + 1):
        for removed in combinations(removable, size):
            if disconnects(adj, sources, sinks, set(removed)):
                return size
    raise AssertionError("no vertex set disconnects the terminals")


def turn_respecting_distance(g: InputGraph, turns, start_arc: int, end_arc: int) -> int:
    """Brute-force minimum over turn-respecting arc sequences.

    Cost convention matches the expansion: the weight of every arc except
    the last is paid, plus all turn costs along the way.
    """
    from cchroute import FORBIDDEN

    best = 0 if start_arc == end_arc else INFINITY

    def walk(arc, cost, seen):
        nonlocal best
        if cost >= best:
            return
        if arc == end_arc:
            best = cost
            return
        via = g.head[arc]
        for nxt in range(g.first_out[via], g.first_out[via + 1]):
            turn = turns.get((arc, nxt), 0)
            if turn == FORBIDDEN or nxt in seen:
                continue
            walk(nxt, cost + g.weight[arc] + turn, seen | {nxt})

    if start_arc != end_arc:
        walk(start_arc, 0, {start_arc})
    return best
