"""Ordering: inertial-flow separators, nested dissection, order IO, reorder."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading

import pytest

from cchroute import (ConsistencyError, Coordinates, InputGraph, ParseError, RankOrder,
                      build_cch, build_elimination_tree, contract, dfs_postorder_reorder,
                      export_order, import_order, inertial_flow_separator, load_dimacs_co,
                      load_dimacs_gr, nested_dissection_order,
                      reconstruct_separator_decomposition)
from cchroute import order
from cchroute.order import _min_cut
from cchroute.formats import serialize_cch
from helpers import (SAMPLE, assert_cells_are_components, brute_force_min_cut,
                     brute_force_min_vertex_cut, disconnects, grid_graph, is_postorder,
                     perturbed_grid, random_connected_graph, random_order, subtree_members)
from oracles import edmonds_karp_vertex_cut


def line_coords(n):
    return Coordinates(x=[10 * i for i in range(n)], y=[0] * n)


def undirected(n, edges, w=1):
    arcs = []
    for a, b in edges:
        arcs.append((a, b, w))
        arcs.append((b, a, w))
    return InputGraph.from_arcs(n, arcs)


def _tree_repr(decomposition) -> bytes:
    """The preorder (cell_lo, cell_hi, sep_lo, child count) tuples that the
    pinned digests hash."""
    return repr([(node.cell_lo, node.cell_hi, node.sep_lo, len(node.children))
                 for node in decomposition.preorder()]).encode()


def _ranges(decomposition) -> list[tuple[int, int, int]]:
    return [(node.cell_lo, node.cell_hi, node.sep_lo) for node in decomposition.preorder()]


def _assert_rebuilt_from_shuffled_ranges(rng, decomposition) -> None:
    nodes = _ranges(decomposition)
    rng.shuffle(nodes)
    assert order.decomposition_from_ranges(nodes) == decomposition


def check_separator_validity(g, sep):
    """No edge may join two distinct cells."""
    cell_of = {}
    for i, cell in enumerate(sep.cells):
        for v in cell:
            cell_of[v] = i
    for a, b in g.undirected_edges():
        if a in cell_of and b in cell_of:
            assert cell_of[a] == cell_of[b], (a, b)


class TestInertialFlowSeparator:
    def test_path_single_vertex(self):
        g = undirected(4, [(0, 1), (1, 2), (2, 3)])
        sep = inertial_flow_separator(g, line_coords(4), [0, 1, 2, 3])
        assert len(sep.vertices) == 1
        check_separator_validity(g, sep)
        # brute force: some single-edge cut exists
        adj = g.undirected_adjacency()
        assert brute_force_min_cut(adj, {0}, {3}) == 1

    def test_complete_graph(self):
        g = undirected(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        coords = Coordinates(x=[0, 1, 2, 3], y=[0, 3, 1, 2])
        sep = inertial_flow_separator(g, coords, list(range(g.vertex_count)))
        assert 1 <= len(sep.vertices) <= 4
        check_separator_validity(g, sep)
        # the flow value equals the brute-force minimum cut for the
        # lowest/highest projected vertex on the y axis, here 3 for K4
        adj = g.undirected_adjacency()
        assert brute_force_min_cut(adj, {0}, {1}) == 3

    def test_grid_4x4(self):
        rng = random.Random(0)
        g, coords = grid_graph(rng, 4, 4)
        sep = inertial_flow_separator(g, coords, list(range(g.vertex_count)))
        assert len(sep.vertices) <= 4
        check_separator_validity(g, sep)
        remaining = 16 - len(sep.vertices)
        assert max(len(c) for c in sep.cells) <= remaining - 4

    def test_balance_both_sides_at_least_quarter(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(8, 60)
            g, coords = random_connected_graph(rng, n, one_way=0.0)
            sep = inertial_flow_separator(g, coords, list(range(g.vertex_count)))
            check_separator_validity(g, sep)
            # the separator lies on one side of the cut; together with its
            # cells it must reflect a >= quarter / quarter split
            quarter = (n + 3) // 4
            sizes = sorted(len(c) for c in sep.cells)
            assert sum(sizes) + len(sep.vertices) == n
            assert sizes[-1] <= n - quarter


    def test_cells_are_the_components_left_by_the_separator(self):
        # Every cell of two or more vertices is split again, so most cells
        # checked are proper subsets whose IDs are not contiguous.
        rng = random.Random(17)
        for _ in range(12):
            n = rng.randint(10, 80)
            g, coords = random_connected_graph(rng, n, extra_factor=rng.uniform(0.0, 1.0))
            cells = [list(range(n))]
            while cells:
                cell = cells.pop()
                sep = inertial_flow_separator(g, coords, cell)
                assert_cells_are_components(g, cell, sep)
                cells.extend(c for c in sep.cells if len(c) >= 2)

    def test_separator_isolating_single_vertices(self):
        # Removing the hub 2 leaves three of its neighbours alone.
        g = undirected(6, [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5)])
        coords = Coordinates(x=[8, 2, 5, 8, 9, 3], y=[5, 8, 3, 1, 6, 2])
        sep = inertial_flow_separator(g, coords, list(range(6)))
        assert sep.vertices == [2]
        assert sep.cells == [[0, 1], [3], [4], [5]]
        assert_cells_are_components(g, list(range(6)), sep)


def _random_cut_instances(rng, count):
    for _ in range(count):
        n = rng.randint(4, 11)
        density = rng.uniform(0.15, 0.6)
        nbrs = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
        terminals = rng.sample(range(n), rng.randint(2, n))
        split = rng.randint(1, len(terminals) - 1)
        yield [sorted(s) for s in nbrs], terminals[:split], terminals[split:]


def _quarter_bands(g, coords):
    """The terminals ``inertial_flow_separator`` cuts between on the whole
    graph: the first and last quarter of each axis projection."""
    n = g.vertex_count
    quarter = (n + 3) // 4
    x, y = coords.x, coords.y
    for key in (lambda v: y[v], lambda v: x[v], lambda v: x[v] + y[v], lambda v: x[v] - y[v]):
        by_proj = sorted(range(n), key=lambda v: (key(v), v))
        yield by_proj[:quarter], by_proj[-quarter:]


def _separator(cut) -> list[int]:
    in_reached, out_reached = cut
    return [v for v, (a, b) in enumerate(zip(in_reached, out_reached)) if a and not b]


def _assert_matches_edmonds_karp(adj, sources, sinks) -> None:
    """Same reached states as the split-graph oracle, and a separator as
    large as its flow."""
    cut = _min_cut(adj, sources, sinks)
    flow, in_reached, out_reached = edmonds_karp_vertex_cut(adj, sources, sinks)
    assert cut == (in_reached, out_reached)
    assert len(_separator(cut)) == flow


class TestMinCut:
    # An edge case of the earlier edge cut: the second augmenting path runs
    # against the first one's flow on edge 0-4.
    CANCELLING = ([[1, 4, 8, 10], [0, 6], [4, 6], [4, 8, 10], [0, 2, 3], [], [1, 2], [],
                   [0, 3], [], [0, 3]], [3], [1])
    # Found on a cell of a 50x50 grid and shrunk. A path to sink 11 steps
    # back along the unit 1-3-4-5-7-13 from 7 to 5, forward from 5 into 4,
    # whose unit enters 5, back to 3 and on through 12: the unit on edge
    # 4-5 then runs both ways, a circulation that must change no
    # reachable state.
    CANCELLING_VERTICES = ([[10], [3], [6], [1, 4, 12], [3, 5], [4, 7], [2, 9], [5, 8, 13],
                            [7, 9], [6, 8], [0, 11], [10, 12], [3, 11], [7]],
                           [1, 2, 0], [11, 13])

    def test_smallest_source_side_of_a_minimum_cut(self):
        # The flow is the smallest limit that keeps the cut, and equals the
        # separator's size and the brute-force minimum vertex cut; the
        # separator leaves no source-sink path.
        cases = [self.CANCELLING, self.SHARED_VERTEX, self.SHARED_SOURCE_VERTEX,
                 self.CANCELLING_VERTICES, *_random_cut_instances(random.Random(7), 1000)]
        for adj, sources, sinks in cases:
            cut = _min_cut(adj, sources, sinks)
            separator = _separator(cut)
            flow = brute_force_min_vertex_cut(adj, sources, sinks)
            assert len(separator) == flow
            assert _min_cut(adj, sources, sinks, flow) == cut
            assert flow == 0 or _min_cut(adj, sources, sinks, flow - 1) is None
            assert disconnects(adj, sources, sinks, set(separator))
            assert cut == edmonds_karp_vertex_cut(adj, sources, sinks)[1:]

    # Vertex 1 is on the shortest paths to both sinks 2 and 3, so one BFS
    # tree holds two shortest augmenting paths that share it. Only one may
    # augment; the other sink waits for the next round and its detour
    # 0-4-5-1, which the unit on vertex 1 closes.
    SHARED_VERTEX = ([[1, 4], [0, 2, 3, 5], [1], [1], [0, 5], [1, 4]], [0], [2, 3])
    # The sources 2 and 3 have capacity, as they touch the sink 4. The
    # tree paths to the sinks 1 and 4 share a vertex; augmenting both would
    # leave a flow no maximum flow has.
    SHARED_SOURCE_VERTEX = ([[1, 4, 6], [0], [4], [4, 6], [0, 2, 3], [], [0, 3]], [3, 2], [1, 4])

    def test_shared_vertex_waits_for_next_round(self):
        for adj, sources, sinks in (self.SHARED_VERTEX, self.SHARED_SOURCE_VERTEX):
            _assert_matches_edmonds_karp(adj, sources, sinks)
        adj, sources, sinks = self.SHARED_VERTEX
        assert _separator(_min_cut(adj, sources, sinks)) == [1]

    def test_cancelling_units_match_edmonds_karp(self):
        for adj, sources, sinks in (self.CANCELLING, self.CANCELLING_VERTICES):
            _assert_matches_edmonds_karp(adj, sources, sinks)
        adj, sources, sinks = self.CANCELLING_VERTICES
        assert _separator(_min_cut(adj, sources, sinks)) == [3, 6, 10]

    def test_grid_quarter_bands_match_edmonds_karp(self):
        # Grids hold many augmenting paths of equal length per BFS tree.
        rng = random.Random(41)
        for _ in range(6):
            g, coords = grid_graph(rng, rng.randint(10, 30), rng.randint(10, 30))
            adj = g.undirected_adjacency()
            for sources, sinks in _quarter_bands(g, coords):
                _assert_matches_edmonds_karp(adj, sources, sinks)

    def test_random_graphs_match_edmonds_karp(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(20, 200)
            g, coords = random_connected_graph(rng, n, extra_factor=rng.uniform(0.2, 1.5))
            adj = g.undirected_adjacency()
            terminals = rng.sample(range(n), rng.randint(2, n // 2))
            split = rng.randint(1, len(terminals) - 1)
            cases = [*_quarter_bands(g, coords), (terminals[:split], terminals[split:])]
            for sources, sinks in cases:
                _assert_matches_edmonds_karp(adj, sources, sinks)

    def test_abandoned_axis_has_flow_above_the_best_size(self, monkeypatch):
        # Each cut inertial_flow_separator gives up on has a flow above the
        # limit it was given, each cut it keeps has not, and the separator
        # is the one the four full cuts give.
        calls = []

        def recorded(adj, sources, sinks, limit=None):
            cut = _min_cut(adj, sources, sinks, limit)
            calls.append((limit, cut, edmonds_karp_vertex_cut(adj, sources, sinks)[0]))
            return cut

        def unlimited(adj, sources, sinks, limit=None):
            return _min_cut(adj, sources, sinks)

        rng = random.Random(47)
        for _ in range(25):
            g, coords = random_connected_graph(rng, rng.randint(12, 120),
                                               extra_factor=rng.uniform(0.2, 1.5))
            cell = list(range(g.vertex_count))
            monkeypatch.setattr(order, "_min_cut", recorded)
            sep = inertial_flow_separator(g, coords, cell)
            monkeypatch.setattr(order, "_min_cut", unlimited)
            assert inertial_flow_separator(g, coords, cell) == sep
        for limit, cut, flow in calls:
            assert (cut is None) == (limit is not None and flow > limit)
        assert sum(cut is None for _, cut, _ in calls) > 10


class TestNestedDissection:
    def test_single_vertex(self):
        g = InputGraph.from_arcs(1, [])
        order = nested_dissection_order(g, Coordinates(x=[0], y=[0]))
        assert order.rank_of == [0]

    def test_three_path_middle_on_top(self):
        g = undirected(3, [(0, 1), (1, 2)])
        order = nested_dissection_order(g, line_coords(3))
        assert order.rank_of[1] == 2
        # middle-on-top adds zero shortcuts
        ug = contract(g, order)
        assert ug.arc_count == 2

    def test_top_separator_occupies_highest_ranks(self):
        rng = random.Random(11)
        g, coords = grid_graph(rng, 6, 6)
        order = nested_dissection_order(g, coords)
        decomp = order.decomposition
        assert decomp.cell_lo == 0 and decomp.cell_hi == 36
        sep_ranks = range(decomp.sep_lo, decomp.cell_hi)
        sep_vertices = {order.vertex_at[r] for r in sep_ranks}
        assert all(order.rank_of[v] >= decomp.sep_lo for v in sep_vertices)
        assert decomp.children, "a 6x6 grid must actually split"

    def test_nested_dissection_property(self):
        # every separator on a vertex's root path outranks it
        rng = random.Random(13)
        for _ in range(5):
            g, coords = random_connected_graph(rng, rng.randint(20, 80))
            order = nested_dissection_order(g, coords)
            stack = [(order.decomposition, [])]
            while stack:
                node, above = stack.pop()
                sep = list(range(node.sep_lo, node.cell_hi))
                for r in range(node.cell_lo, node.cell_hi):
                    for s in above:
                        assert s > r or r >= node.cell_lo
                for r in range(node.cell_lo, node.sep_lo):
                    for s in sep:
                        assert s > r
                for child in node.children:
                    stack.append((child, above + sep))

    def test_disconnected_components_become_cells(self):
        # Two 5-vertex paths: 10 vertices, above the cutoff, so the root
        # splits into its components; each path is small enough to be a leaf.
        g = undirected(10, [(v, v + 1) for v in (0, 1, 2, 3, 5, 6, 7, 8)])
        coords = Coordinates(x=[0, 1, 2, 3, 4, 10, 11, 12, 13, 14], y=[0] * 10)
        order = nested_dissection_order(g, coords)
        decomp = order.decomposition
        assert decomp.sep_lo == decomp.cell_hi  # empty separator at the top
        assert [(c.cell_lo, c.cell_hi) for c in decomp.children] == [(0, 5), (5, 10)]
        assert sorted(order.vertex_at[:5]) == [0, 1, 2, 3, 4]

    def test_children_tile_their_cell_below_its_separator(self):
        # The invariant decomposition_from_ranges links nodes by: a node's
        # children tile [cell_lo, sep_lo) in ascending order, and each is
        # strictly smaller than the node.
        rng = random.Random(29)
        graphs = [random_connected_graph(rng, rng.randint(20, 200)) for _ in range(10)]
        graphs.append((undirected(10, [(v, v + 1) for v in (0, 1, 2, 3, 5, 6, 7, 8)]),
                       Coordinates(x=[0, 1, 2, 3, 4, 10, 11, 12, 13, 14], y=[0] * 10)))
        graphs += [perturbed_grid(random.Random(seed), 40) for seed in self.PERTURBED_PINS]
        for g, coords in graphs:
            decomp = nested_dissection_order(g, coords).decomposition
            assert (decomp.cell_lo, decomp.cell_hi) == (0, g.vertex_count)
            for node in decomp.preorder():
                kids = node.children
                assert node.cell_lo <= node.sep_lo <= node.cell_hi
                assert [c.cell_lo for c in kids] + [node.sep_lo] == (
                    [node.cell_lo] + [c.cell_hi for c in kids])
                assert all(c.cell_lo < c.cell_hi for c in kids)
                assert all(c.cell_hi - c.cell_lo < node.cell_hi - node.cell_lo for c in kids)
            _assert_rebuilt_from_shuffled_ranges(rng, decomp)

    def test_sample_outputs_pinned(self):
        # Digests of the order, its recursion tree, the CCHP artifact of
        # sample/grid.gr and the decomposition reconstructed from the
        # hierarchy's elimination tree. How the cuts are computed may
        # change; these outputs may not, except where the cut itself
        # changes, as when the edge cut gave way to the vertex cut and
        # every digest here was recorded anew.
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        order = nested_dissection_order(g, coords)
        cch = build_cch(g, order=order)

        def digest(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        assert digest(" ".join(map(str, order.vertex_at)).encode()) == (
            "81359d1447d601da10548fdb9b6b01e45776d6f6d24d424c35f98efd7e77fc20")
        assert digest(_tree_repr(order.decomposition)) == (
            "ac785ca693666ffc543b71818e144b97e915890a267697cb1fb142ddc8383924")
        assert digest(serialize_cch(cch)) == (
            "9280e88bf2e513ea19c9adcb00ee3046df4cec89b9f6e0da649d3e1a9573e2a2")
        assert digest(_tree_repr(cch.decomposition)) == (
            "4ff0acb1805e0eac3b0a7829085e6517d9c378af0b940e6294211ab605255dfb")

    # Digests of vertex_at, of the recursion tree's preorder (cell_lo,
    # cell_hi, sep_lo, child count) and of the decomposition build_cch
    # reconstructs, on seeded 40x40 perturbed grids, large enough that one
    # BFS tree often holds many augmenting paths. Seeds 2 and 3 fall apart
    # at the root. Recorded anew for the vertex cut, as above.
    PERTURBED_PINS = {
        1: ("b5b82554d535cca1f808da523ab539b1662b17be8e89b070310581a64fb9db1f",
            "17897de8f8dad9bcede392b99fa8ee3a01539f270c92e6fdbda05049b8c4900f",
            "fd77da3a7fb23866261a69a2f2407b4937b64fcf5f8b81766bd4d746081bbd97"),
        2: ("83f4c1df19f3d5b3d2acee852309c2b747b328d71c3e4407e4b01e42ed4d1ed8",
            "915b9ae39c0309e96cdbb7de38d4f13bb3683db6924abec36d4d4811b6e0d039",
            "a35eaf0c2e4ab0e3de52d92110a736b8975db5721a308ac0753b5312290e41cb"),
        3: ("a4bef85bb1138b50aa7c3a3830f96e7d6fd3347e441b70d4812701bd081203ac",
            "c82872304b9691fd4a720cd54cabbc9a74b4e0b0cd14306bcb9772f930b10d81",
            "208e79ca813d518867d2a425a3337dedda36c63147f78743b4a3d002a038c4fa"),
    }

    @pytest.mark.parametrize("seed", sorted(PERTURBED_PINS))
    def test_perturbed_grid_orders_pinned(self, seed):
        g, coords = perturbed_grid(random.Random(seed), 40)
        order = nested_dissection_order(g, coords)
        digests = (hashlib.sha256(" ".join(map(str, order.vertex_at)).encode()).hexdigest(),
                   hashlib.sha256(_tree_repr(order.decomposition)).hexdigest(),
                   hashlib.sha256(_tree_repr(build_cch(g, order=order).decomposition)).hexdigest())
        assert digests == self.PERTURBED_PINS[seed]

    def test_perturbed_grid_structure_pinned(self):
        # Upward arcs, triangles and elimination-tree height of the
        # hierarchy on seed 1's 40x40 perturbed grid, and the edge cut's
        # values before them: the vertex cut must keep its gain.
        g, coords = perturbed_grid(random.Random(1), 40)
        ug = build_cch(g, order=nested_dissection_order(g, coords)).ug
        up_degree = [ug.first_arc[u + 1] - ug.first_arc[u] for u in range(ug.vertex_count)]
        height = [1] * ug.vertex_count
        for u in range(ug.vertex_count):
            if up_degree[u]:
                parent = ug.head[ug.first_arc[u]]
                height[parent] = max(height[parent], height[u] + 1)
        counts = (ug.arc_count, sum(d * (d - 1) // 2 for d in up_degree), max(height))
        assert counts == (13388, 93556, 86)
        assert all(now < before for now, before in zip(counts, (17435, 169695, 129)))

    # Digests as above on seeded exact 30x30 lattices (grid_graph, 30% one-way
    # arcs) whose vertex IDs are shuffled: every projection ties along
    # whole rows, columns or diagonals, and the ties break by IDs that do
    # not follow the lattice. Recorded anew for the vertex cut, as above.
    RELABELED_LATTICE_PINS = {
        1: ("68b9354a9f63aa8c41b6becff5f30892b82ed9ac8b6b0ba2fcbc266c2333435b",
            "1216e72fc4ea7b0b4ac869c75ecbb8eac1dbfa635c1a55cdf31d3378527e7f97"),
        2: ("fadea8ccf4b7a05b776164c38d713527ed384e2fcba5ef9dc85ebb5a8ca2e697",
            "2df8ab2bde954821736d190dacf41f76aa84c9bbe9ff91e51d60746e20d10557"),
        3: ("5b104942243be36bd2bcabab69d5618211725597569d5321f631dd207e0f4355",
            "240c205e4b42a00b78e1c418ae75bbb4309ab694aac65bc68f7362e19dd4f740"),
    }

    @pytest.mark.parametrize("seed", sorted(RELABELED_LATTICE_PINS))
    def test_relabeled_lattice_orders_pinned(self, seed):
        rng = random.Random(seed)
        lattice, lattice_coords = grid_graph(rng, 30, 30, one_way=0.3)
        n = lattice.vertex_count
        new_id = list(range(n))
        rng.shuffle(new_id)
        x = [0] * n
        y = [0] * n
        for v in range(n):
            x[new_id[v]] = lattice_coords.x[v]
            y[new_id[v]] = lattice_coords.y[v]
        g = InputGraph.from_arcs(n, [(new_id[t], new_id[h], w) for t, h, w
                                     in zip(lattice.tail, lattice.head, lattice.weight)])
        order = nested_dissection_order(g, Coordinates(x=x, y=y))
        digests = (hashlib.sha256(" ".join(map(str, order.vertex_at)).encode()).hexdigest(),
                   hashlib.sha256(_tree_repr(order.decomposition)).hexdigest())
        assert digests == self.RELABELED_LATTICE_PINS[seed]

    def test_coordinate_length_mismatch(self):
        g = undirected(3, [(0, 1), (1, 2)])
        with pytest.raises(ConsistencyError):
            nested_dissection_order(g, Coordinates(x=[0, 1], y=[0, 1]))

    def test_coordinates_of_unequal_length_raise(self):
        # the graph's length check reads x only; unchecked, a short y would
        # be indexed past its end inside inertial_flow_separator
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        co = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        with pytest.raises(ConsistencyError) as info:
            nested_dissection_order(g, Coordinates(co.x, co.y[:-5]))
        assert str(info.value) == "coordinates have 200 x and 195 y values"


def _digests(order) -> tuple[str, str]:
    return (hashlib.sha256(" ".join(map(str, order.vertex_at)).encode()).hexdigest(),
            hashlib.sha256(_tree_repr(order.decomposition)).hexdigest())


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """Two CPUs, whatever the host has, and the pid of every child that
    ``nested_dissection_order`` forks, in order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestWorkers:
    """Forked children order cells; the order never depends on them."""

    @pytest.mark.parametrize("seed", sorted(TestNestedDissection.PERTURBED_PINS))
    def test_pinned_orders_fork_a_child(self, forked, seed):
        g, coords = perturbed_grid(random.Random(seed), 40)
        order = nested_dissection_order(g, coords)
        assert len(forked) == 1
        assert _digests(order) == TestNestedDissection.PERTURBED_PINS[seed][:2]
        _assert_no_child_left()

    def test_small_cells_fork_and_keep_the_pins(self, forked, monkeypatch):
        monkeypatch.setattr(order, "WORKER_MIN_CELL", 20)
        for seed, pins in TestNestedDissection.PERTURBED_PINS.items():
            g, coords = perturbed_grid(random.Random(seed), 40)
            assert _digests(nested_dissection_order(g, coords)) == pins[:2]
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        assert _digests(nested_dissection_order(g, coords)) == (
            "81359d1447d601da10548fdb9b6b01e45776d6f6d24d424c35f98efd7e77fc20",
            "ac785ca693666ffc543b71818e144b97e915890a267697cb1fb142ddc8383924")
        assert len(forked) >= 4
        _assert_no_child_left()

    def test_four_cpus_keep_the_pins(self, forked, monkeypatch):
        # One child orders cells at most, however many CPUs there are.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(order, "WORKER_MIN_CELL", 100)
        g, coords = perturbed_grid(random.Random(1), 40)
        assert _digests(nested_dissection_order(g, coords)) == (
            TestNestedDissection.PERTURBED_PINS[1][:2])
        assert len(forked) == 1
        _assert_no_child_left()

    def test_child_nodes_in_any_order_keep_the_pins(self, forked, monkeypatch):
        # The tree is linked from its nodes' rank ranges, not from the
        # order in which the child reports them.
        monkeypatch.setattr(order, "WORKER_MIN_CELL", 50)
        real_dumps, real_place = order.marshal.dumps, order._place
        placed = []
        monkeypatch.setattr(order.marshal, "dumps",
                            lambda value: real_dumps((value[0], value[1][::-1])))
        monkeypatch.setattr(order, "_place",
                            lambda *args: placed.append(real_place(*args)) or placed[-1])
        for seed, pins in TestNestedDissection.PERTURBED_PINS.items():
            g, coords = perturbed_grid(random.Random(seed), 40)
            assert _digests(nested_dissection_order(g, coords)) == pins[:2]
        assert len(forked) == 3
        assert placed == [True] * 3  # each child's reversed answer was used
        _assert_no_child_left()

    @pytest.mark.parametrize("failure", ["killed", "truncated"])
    def test_child_without_a_complete_answer(self, forked, monkeypatch, failure):
        # The parent orders the child's cells itself and gets the same order.
        monkeypatch.setattr(order, "WORKER_MIN_CELL", 50)
        real_fork, real_dumps = os.fork, order.marshal.dumps

        def fork():
            pid = real_fork()
            if pid == 0 and failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(order.marshal, "dumps", lambda value: real_dumps(value)[:-3])
        g, coords = perturbed_grid(random.Random(1), 40)
        assert _digests(nested_dissection_order(g, coords)) == (
            TestNestedDissection.PERTURBED_PINS[1][:2])
        _assert_no_child_left()

    def test_exception_in_the_parents_share_propagates(self, forked, monkeypatch):
        monkeypatch.setattr(order, "WORKER_MIN_CELL", 50)
        parent = os.getpid()
        real_separator = order.inertial_flow_separator

        def separator(g, coords, cell):
            if forked and os.getpid() == parent:
                raise RuntimeError("separator failed")
            return real_separator(g, coords, cell)

        monkeypatch.setattr(order, "inertial_flow_separator", separator)
        g, coords = perturbed_grid(random.Random(1), 40)
        with pytest.raises(RuntimeError, match="separator failed"):
            nested_dissection_order(g, coords)
        assert len(forked) == 1
        _assert_no_child_left()

    def test_failed_fork_orders_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd"))
        g, coords = perturbed_grid(random.Random(1), 40)
        assert _digests(nested_dissection_order(g, coords)) == (
            TestNestedDissection.PERTURBED_PINS[1][:2])
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_child_without_a_pidfd_is_ordered_in_process(self, forked, monkeypatch):
        monkeypatch.setattr(order, "WORKER_MIN_CELL", 50)
        real_pidfd_open = os.pidfd_open

        def pidfd_open(pid):
            if pid != os.getpid():
                raise OSError(errno.EMFILE, "Too many open files")
            return real_pidfd_open(pid)

        monkeypatch.setattr(os, "pidfd_open", pidfd_open)
        fds = len(os.listdir("/proc/self/fd"))
        g, coords = perturbed_grid(random.Random(1), 40)
        assert _digests(nested_dissection_order(g, coords)) == (
            TestNestedDissection.PERTURBED_PINS[1][:2])
        assert len(forked) == 1
        assert len(os.listdir("/proc/self/fd")) == fds
        _assert_no_child_left()

    def test_no_pidfds_starts_no_child(self, forked, monkeypatch):
        def pidfd_open(pid):
            raise OSError(errno.ENOSYS, "Function not implemented")

        monkeypatch.setattr(os, "pidfd_open", pidfd_open)
        g, coords = perturbed_grid(random.Random(1), 40)
        assert _digests(nested_dissection_order(g, coords)) == (
            TestNestedDissection.PERTURBED_PINS[1][:2])
        assert forked == []

    @pytest.mark.parametrize("share", ["child", "parent"])
    def test_children_reaped_by_the_system(self, forked, monkeypatch, share):
        # With SIGCHLD ignored, children are reaped as they exit and
        # waiting for them raises ChildProcessError.
        monkeypatch.setattr(order, "WORKER_MIN_CELL", 50)
        # On the parent's exception the child's pid may be reaped and
        # reused already; the kill goes through the child's pidfd.
        parent = os.getpid()
        real_separator = order.inertial_flow_separator

        def separator(g, coords, cell):
            if share == "parent" and forked and os.getpid() == parent:
                raise RuntimeError("separator failed")
            return real_separator(g, coords, cell)

        monkeypatch.setattr(order, "inertial_flow_separator", separator)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            g, coords = perturbed_grid(random.Random(1), 40)
            if share == "parent":
                with pytest.raises(RuntimeError, match="separator failed"):
                    nested_dissection_order(g, coords)
            else:
                assert _digests(nested_dissection_order(g, coords)) == (
                    TestNestedDissection.PERTURBED_PINS[1][:2])
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forked) == 1
        _assert_no_child_left()

    def test_one_cpu_starts_no_child(self, forked, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        g, coords = perturbed_grid(random.Random(1), 40)
        assert _digests(nested_dissection_order(g, coords)) == (
            TestNestedDissection.PERTURBED_PINS[1][:2])
        assert forked == []

    def test_second_thread_starts_no_child(self, forked):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            g, coords = perturbed_grid(random.Random(1), 40)
            order = nested_dissection_order(g, coords)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _digests(order) == TestNestedDissection.PERTURBED_PINS[1][:2]
        assert forked == []

    def test_blas_threads_stop_before_a_fork(self):
        # threading does not count the native threads of numpy's BLAS pool,
        # which customization loads; the pool stops itself around a fork,
        # so the process forks single-threaded, and Python 3.12+ warns of
        # no fork in a multi-threaded process.
        script = """if True:
            import hashlib, json, os, random
            import numpy
            from cchroute import order
            from helpers import perturbed_grid
            a = numpy.ones((64, 64))
            a @ a
            threads = []
            os.register_at_fork(
                after_in_parent=lambda: threads.append(len(os.listdir("/proc/self/task"))))
            os.sched_getaffinity = lambda pid: {0, 1}
            g, coords = perturbed_grid(random.Random(1), 40)
            vertex_at = order.nested_dissection_order(g, coords).vertex_at
            print(json.dumps([threads, hashlib.sha256(
                " ".join(map(str, vertex_at)).encode()).hexdigest()]))
        """
        out = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", script],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": ":".join(sys.path)})
        threads, digest = json.loads(out.stdout)
        assert threads == [1]
        assert digest == TestNestedDissection.PERTURBED_PINS[1][0]

    def test_isolated_vertices_start_no_child(self, forked):
        # Every component below the root is a cell too small to hand out.
        n = 20000
        g = undirected(n, [(0, 1)])
        order = nested_dissection_order(g, Coordinates(x=list(range(n)), y=[0] * n))
        assert forked == []
        assert order.vertex_at[:2] == [0, 1]
        assert len(order.decomposition.children) == n - 1


class TestRankOrder:
    """``rank_of`` is derived from ``vertex_at``, so the two can never
    disagree; a ``vertex_at`` that is no permutation raises."""

    def test_rank_of_is_the_inverse(self):
        rng = random.Random(25)
        for n in [0, 1, 2, 7, 40]:
            vertex_at = list(range(n))
            rng.shuffle(vertex_at)
            for given in (vertex_at, tuple(vertex_at)):
                order = RankOrder(given)
                assert order.vertex_at is given
                assert [order.rank_of[v] for v in vertex_at] == list(range(n))
        assert RankOrder.identity(3).rank_of == [0, 1, 2]

    def test_derived_values_are_not_parameters(self):
        with pytest.raises(TypeError):
            RankOrder(rank_of=[1, 0], vertex_at=[0, 1])
        with pytest.raises(TypeError):
            RankOrder([0, 1], None)

    @pytest.mark.parametrize("vertex_at, message", [
        ([0, 3, 1], "rank 1: vertex 3 out of range [0, 3)"),
        ([0, -1, 1], "rank 1: vertex -1 out of range [0, 3)"),
        ([2, 0, 2], "vertex 2 appears at ranks 0 and 2"),
        ([1, 1, 5], "vertex 1 appears at ranks 0 and 1"),
    ], ids=["past-n", "negative", "repeated", "repeat-before-range"])
    def test_not_a_permutation_raises(self, vertex_at, message):
        with pytest.raises(ConsistencyError) as info:
            RankOrder(vertex_at)
        assert str(info.value) == message


class TestOrderFiles:
    def test_identity(self, tmp_path):
        p = tmp_path / "o.txt"
        p.write_text("0\n1\n2\n")
        order = import_order(str(p), 3)
        assert order.rank_of == [0, 1, 2]

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "o.txt"
        p.write_text("2\n2\n0\n")
        with pytest.raises(ConsistencyError):
            import_order(str(p), 3)

    def test_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "o.txt"
        p.write_text("0\n3\n1\n")
        with pytest.raises(ConsistencyError):
            import_order(str(p), 3)

    def test_non_integer_line_is_parse_error(self, tmp_path):
        p = tmp_path / "o.txt"
        p.write_text("0\nx\n1\n")
        with pytest.raises(ParseError) as info:
            import_order(str(p), 3)
        assert info.value.line == 2

    def test_wrong_line_count(self, tmp_path):
        p = tmp_path / "o.txt"
        p.write_text("0\n1\n")
        with pytest.raises(ConsistencyError):
            import_order(str(p), 3)

    def test_export_round_trip(self, tmp_path):
        rng = random.Random(21)
        g, coords = random_connected_graph(rng, 30)
        order = nested_dissection_order(g, coords)
        p = tmp_path / "o.txt"
        export_order(order, str(p))
        back = import_order(str(p), 30)
        assert back.vertex_at == order.vertex_at
        assert back.rank_of == order.rank_of


class TestDfsPostorderReorder:
    def test_path_tree_unchanged(self):
        order = RankOrder.identity(4)
        parent = [1, 2, 3, -1]
        new = dfs_postorder_reorder(order, parent)
        assert new.rank_of == [0, 1, 2, 3]

    def test_root_with_two_leaves(self):
        # vertices ranked a=0, b=1, root=2
        order = RankOrder.identity(3)
        parent = [2, 2, -1]
        new = dfs_postorder_reorder(order, parent)
        assert new.rank_of == [0, 1, 2]
        # under reversed child ranks the children swap their range order
        order2 = RankOrder([1, 0, 2])
        parent2 = [2, 2, -1]  # in rank space: ranks 0,1 children of rank 2
        new2 = dfs_postorder_reorder(order2, parent2)
        assert new2.rank_of[1] == 0 and new2.rank_of[0] == 1 and new2.rank_of[2] == 2

    def test_recontraction_is_isomorphic(self):
        rng = random.Random(31)
        for _ in range(8):
            g, coords = random_connected_graph(rng, rng.randint(20, 120))
            order = nested_dissection_order(g, coords)
            ug1 = contract(g, order)
            tree1 = build_elimination_tree(ug1)
            improved = dfs_postorder_reorder(order, tree1)
            ug2 = contract(g, improved)
            tree2 = build_elimination_tree(ug2)
            assert ug1.arc_count == ug2.arc_count
            # relabel: old rank -> new rank
            pi = [improved.rank_of[order.vertex_at[r]] for r in range(g.vertex_count)]
            arcs1 = {(pi[ug1.tail[i]], pi[ug1.head[i]]) for i in range(ug1.arc_count)}
            arcs2 = set(zip(ug2.tail, ug2.head))
            assert arcs1 == arcs2
            for old_rank in range(g.vertex_count):
                p = tree1[old_rank]
                expected = -1 if p == -1 else pi[p]
                assert tree2[pi[old_rank]] == expected

    def test_subtrees_contiguous(self):
        rng = random.Random(33)
        g, coords = random_connected_graph(rng, 60)
        order = nested_dissection_order(g, coords)
        ug1 = contract(g, order)
        tree1 = build_elimination_tree(ug1)
        improved = dfs_postorder_reorder(order, tree1)
        ug2 = contract(g, improved)
        tree2 = build_elimination_tree(ug2)
        size = [1] * len(tree2)
        for u in range(len(tree2)):
            p = tree2[u]
            if p != -1:
                assert p > u
                size[p] += size[u]
        # contiguity: the subtree below u is exactly [u - size[u] + 1, u]
        members = subtree_members(tree2)
        for u in range(len(tree2)):
            assert members[u] == list(range(u - size[u] + 1, u + 1))

    @pytest.mark.parametrize("parent", [[1, 0], [2, 2, 0], [1]],
                             ids=["two-cycle", "cycle-below-root", "past-last-vertex"])
    def test_parent_not_ranked_above_rejected(self, parent):
        with pytest.raises(ConsistencyError, match="not a vertex ranked above it"):
            dfs_postorder_reorder(RankOrder.identity(len(parent)), parent)
        with pytest.raises(ConsistencyError, match="not a vertex ranked above it"):
            reconstruct_separator_decomposition(parent)


def _random_forest(rng: random.Random, n: int, postorder: bool) -> list[int]:
    """A forest on ranks 0..n-1 whose parents outrank their children. With
    ``postorder``, any such forest laid out as a DFS post-order: each vertex
    adopts some of the latest finished subtree roots. Otherwise each vertex
    picks a root flag or a higher parent at random, which rarely is one."""
    parent = [-1] * n
    if postorder:
        finished: list[int] = []
        for v in range(n):
            for _ in range(rng.randint(0, len(finished))):
                parent[finished.pop()] = v
            finished.append(v)
    else:
        for v in range(n - 1):
            if rng.random() < 0.8:
                parent[v] = rng.randrange(v + 1, n)
    return parent


def _dfs_postorder_ranks(parent) -> list[int]:
    """The rank of each old rank in the DFS post-order of the forest that
    visits roots, and each vertex's children, in ascending old rank."""
    children = [[u for u in range(len(parent)) if parent[u] == v] for v in range(len(parent))]

    def visit(v):
        for c in children[v]:
            yield from visit(c)
        yield v

    rank = [-1] * len(parent)
    for new, old in enumerate(v for r, p in enumerate(parent) if p == -1 for v in visit(r)):
        rank[old] = new
    return rank


def _assert_nodes_follow_tree(parent, decomp) -> None:
    """Each node's separator is the chain of single children down from its
    subtree root, and its child cells are the subtrees below the chain,
    ascending and tiling the rest of the cell; several roots hang under a
    node with an empty separator over all ranks."""
    n = len(parent)
    members = subtree_members(parent)
    children = [[u for u in range(n) if parent[u] == v] for v in range(n)]
    roots = [u for u in range(n) if parent[u] == -1]

    def cells(node, tops):
        kids = node.children
        assert [(c.cell_hi - 1, c.cell_lo) for c in kids] == [(t, members[t][0]) for t in tops]
        assert [c.cell_lo for c in kids] + [node.sep_lo] == [node.cell_lo] + [c.cell_hi for c in kids]

    nodes = list(decomp.preorder())
    if len(roots) > 1:
        assert (decomp.cell_lo, decomp.cell_hi, decomp.sep_lo) == (0, n, n)
        cells(decomp, roots)
        nodes.pop(0)
    else:
        assert decomp.cell_hi == n
    for node in nodes:
        top = node.cell_hi - 1
        assert node.cell_lo == members[top][0]
        assert all(children[v] == [v - 1] for v in range(node.sep_lo + 1, node.cell_hi))
        assert len(children[node.sep_lo]) != 1
        cells(node, children[node.sep_lo])


class TestTreeLayout:
    """reconstruct_separator_decomposition and dfs_postorder_reorder against
    the subtree member sets found by walking parents; each reconstructed
    tree is also rebuilt from its nodes' rank ranges, shuffled."""

    def test_random_forests_against_member_sets(self):
        rng = random.Random(67)
        shuffle_rng = random.Random(71)
        kinds = {True: 0, False: 0}
        for _ in range(800):
            n = rng.randint(1, 10)
            parent = _random_forest(rng, n, postorder=rng.random() < 0.5)
            laid_out = is_postorder(parent)
            kinds[laid_out] += 1
            try:
                decomp = reconstruct_separator_decomposition(parent)
            except ConsistencyError:
                assert not laid_out, parent
            else:
                assert laid_out, parent
                _assert_nodes_follow_tree(parent, decomp)
                _assert_rebuilt_from_shuffled_ranges(shuffle_rng, decomp)

            order = random_order(rng, n)
            new = dfs_postorder_reorder(order, parent)
            post = [new.rank_of[v] for v in order.vertex_at]
            assert post == _dfs_postorder_ranks(parent)
            new_parent = [-1] * n
            for r, p in enumerate(parent):
                new_parent[post[r]] = -1 if p == -1 else post[p]
            assert is_postorder(new_parent)
            for a in range(n):
                for b in range(a + 1, n):
                    if parent[a] == parent[b]:
                        assert post[a] < post[b], (parent, a, b)
            if laid_out:
                assert post == list(range(n))
        assert min(kinds.values()) > 150, kinds
