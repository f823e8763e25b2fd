"""Contraction, elimination tree, decomposition reconstruction, artifacts."""

from __future__ import annotations

import random
from array import array

import pytest

import cchroute.order
from cchroute import (Cch, ConsistencyError, FormatError, InputGraph,
                      RankOrder, build_cch, build_elimination_tree, contract,
                      customize, dijkstra, graph_elimination_tree, load_cch,
                      load_customized, load_dimacs_co, load_dimacs_gr,
                      nested_dissection_order, reconstruct_separator_decomposition,
                      save_cch, save_customized)
from cchroute.formats import deserialize_cch, serialize_cch
from helpers import (SAMPLE, ArtifactEditor, diamond, grid_graph, head_moves,
                     naive_elimination_arcs, random_connected_graph, random_order,
                     rank_relabeled)


class TestPermute:
    """``helpers.rank_relabeled``, the rank-space graph the oracles compare
    hierarchies against."""

    def test_identity(self):
        g = diamond()
        p = rank_relabeled(g, RankOrder.identity(4))
        assert list(zip(p.tail, p.head, p.weight)) == list(zip(g.tail, g.head, g.weight))
        assert p.first_out == g.first_out

    def test_reversal_on_two_path(self):
        g = InputGraph.from_arcs(2, [(0, 1, 7)])
        order = RankOrder([1, 0])
        p = rank_relabeled(g, order)
        assert (p.tail[0], p.head[0], p.weight[0]) == (1, 0, 7)

    def test_dijkstra_invariant_under_relabeling(self):
        rng = random.Random(17)
        for _ in range(6):
            g, _ = random_connected_graph(rng, 40)
            order = random_order(rng, 40)
            p = rank_relabeled(g, order)
            for s in rng.sample(range(40), 4):
                d1 = dijkstra(g, s)
                d2 = dijkstra(p, order.rank_of[s])
                for v in range(40):
                    assert d1[v] == d2[order.rank_of[v]]


def random_graph(rng: random.Random, n: int, edge_count: int) -> InputGraph:
    """Up to ``edge_count`` random two-way edges on ``n`` vertices; often
    disconnected, with isolated vertices."""
    arcs = []
    for _ in range(edge_count):
        a, b = rng.randrange(n), rng.randrange(n)
        arcs += [(a, b, 1), (b, a, 1)]
    return InputGraph.from_arcs(n, arcs)


class TestContract:
    def test_diamond_adds_one_shortcut(self):
        ug = contract(diamond(), RankOrder.identity(4))
        assert set(zip(ug.tail, ug.head)) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
        assert ug.arc_count == 5

    def test_clique_completion_around_low_vertex(self):
        # v=0 below w1..w4=1..4 with edges {w1,w4}, {w2,w3}, {w2,w4}
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4)]
        arcs = []
        for a, b in edges:
            arcs.append((a, b, 1))
            arcs.append((b, a, 1))
        ug = contract(InputGraph.from_arcs(5, arcs), RankOrder.identity(5))
        got = set(zip(ug.tail, ug.head))
        shortcuts = got - {(min(a, b), max(a, b)) for a, b in edges}
        assert shortcuts == {(1, 2), (1, 3), (3, 4)}

    def test_path_has_zero_shortcuts(self):
        arcs = []
        for i in range(9):
            arcs.append((i, i + 1, 1))
            arcs.append((i + 1, i, 1))
        ug = contract(InputGraph.from_arcs(10, arcs), RankOrder.identity(10))
        assert ug.arc_count == 9

    def test_matches_naive_elimination_game(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 50)
            edges = set()
            for _ in range(rng.randint(n - 1, 3 * n)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            arcs = []
            for a, b in edges:
                arcs.append((a, b, 1))
            g = InputGraph.from_arcs(n, arcs)
            order = random_order(rng, n)
            ug = contract(g, order)
            want = naive_elimination_arcs(n, rank_relabeled(g, order).undirected_edges())
            assert set(zip(ug.tail, ug.head)) == want

    def test_deterministic(self):
        rng = random.Random(29)
        g, coords = random_connected_graph(rng, 60)
        order = nested_dissection_order(g, coords)
        ug1, ug2 = contract(g, order), contract(g, order)
        assert ug1.head == ug2.head and ug1.first_arc == ug2.first_arc
        assert ug1.orig_up == ug2.orig_up and ug1.orig_down == ug2.orig_down

    def test_chordality_clique_property(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(5, 120)
            g, _ = random_connected_graph(rng, n)
            ug = contract(g, random_order(rng, n))
            for u in range(n):
                heads = list(ug.head[ug.first_arc[u]:ug.first_arc[u + 1]])
                assert heads == sorted(set(heads))
                for i, a in enumerate(heads):
                    for b in heads[i + 1:]:
                        assert ug.arc_index(a, b) is not None, (u, a, b)

    def test_orig_arc_mapping(self):
        g = diamond()
        order = RankOrder([3, 2, 1, 0])
        ug = contract(g, order)
        for i in range(ug.arc_count):
            u, v = ug.tail[i], ug.head[i]
            ou, od = ug.orig_up[i], ug.orig_down[i]
            if ou != -1:
                assert (order.rank_of[g.tail[ou]], order.rank_of[g.head[ou]]) == (u, v)
            if od != -1:
                assert (order.rank_of[g.tail[od]], order.rank_of[g.head[od]]) == (v, u)

    def test_orig_arcs_map_every_input_arc_once(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 60)
            g, _ = random_connected_graph(rng, n)
            ug = contract(g, random_order(rng, n))
            mapped = sorted(i for i in list(ug.orig_up) + list(ug.orig_down) if i != -1)
            assert mapped == list(range(g.arc_count))


class TestEliminationTree:
    def test_diamond(self):
        ug = contract(diamond(), RankOrder.identity(4))
        assert list(build_elimination_tree(ug)) == [1, 2, 3, -1]

    def test_edgeless(self):
        ug = contract(InputGraph.from_arcs(3, []), RankOrder.identity(3))
        assert list(build_elimination_tree(ug)) == [-1, -1, -1]

    def test_every_arc_joins_ancestors(self):
        rng = random.Random(43)
        for _ in range(8):
            n = rng.randint(5, 80)
            g, _ = random_connected_graph(rng, n)
            ug = contract(g, random_order(rng, n))
            parent = build_elimination_tree(ug)

            def is_ancestor(a, v):
                while v != -1:
                    if v == a:
                        return True
                    v = parent[v]
                return False

            for i in range(ug.arc_count):
                assert is_ancestor(ug.head[i], ug.tail[i])


class TestGraphEliminationTree:
    """Liu's tree from the input graph equals the contraction's."""

    @pytest.mark.parametrize("n, edge_factor", [
        (1, 0), (2, 0), (7, 0), (12, 0.3), (30, 0.6), (40, 1.5), (60, 3)],
        ids=["n1", "two-isolated", "edgeless", "sparse-forest", "forest", "mixed", "dense"])
    def test_equals_contraction_tree(self, n, edge_factor):
        rng = random.Random(47 + n)
        for _ in range(15):
            g = random_graph(rng, n, int(edge_factor * n))
            order = random_order(rng, n)
            assert graph_elimination_tree(g, order) == build_elimination_tree(contract(g, order))

    def test_equals_contraction_tree_connected(self):
        rng = random.Random(53)
        for _ in range(15):
            n = rng.randint(2, 120)
            g, coords = random_connected_graph(rng, n)
            for order in (random_order(rng, n), nested_dissection_order(g, coords)):
                assert graph_elimination_tree(g, order) == \
                    build_elimination_tree(contract(g, order))

    def test_forest_has_a_root_per_component(self):
        # two triangles and an isolated vertex: three roots
        g = InputGraph.from_arcs(7, [(0, 1, 1), (1, 2, 1), (2, 0, 1),
                                     (3, 4, 1), (4, 5, 1), (5, 3, 1)])
        order = random_order(random.Random(59), 7)
        parent = graph_elimination_tree(g, order)
        assert list(parent).count(-1) == 3
        assert parent == build_elimination_tree(contract(g, order))

    @pytest.mark.parametrize("build", [graph_elimination_tree, contract,
                                       lambda g, order: build_cch(g, order=order)],
                             ids=["tree", "contract", "build_cch"])
    @pytest.mark.parametrize("size", [3, 5], ids=["short", "long"])
    def test_order_of_other_size_rejected(self, build, size):
        with pytest.raises(ConsistencyError, match=f"order covers {size} vertices, graph has 4"):
            build(diamond(), RankOrder.identity(size))


class TestReconstruction:
    def test_path_tree_single_node(self):
        decomp = reconstruct_separator_decomposition([1, 2, 3, -1])
        assert (decomp.cell_lo, decomp.cell_hi, decomp.sep_lo) == (0, 4, 0)
        assert decomp.children == []

    def test_root_with_two_leaves(self):
        decomp = reconstruct_separator_decomposition([2, 2, -1])
        assert (decomp.cell_lo, decomp.cell_hi, decomp.sep_lo) == (0, 3, 2)
        assert [(c.cell_lo, c.cell_hi) for c in decomp.children] == [(0, 1), (1, 2)]

    def test_multiple_roots_get_synthetic_top(self):
        decomp = reconstruct_separator_decomposition([1, -1, 3, -1])
        assert (decomp.cell_lo, decomp.cell_hi, decomp.sep_lo) == (0, 4, 4)
        assert len(decomp.children) == 2

    def test_non_postorder_rejected(self):
        # rank 0 and 1 are both children of 3, but 2 hangs below 1:
        # subtree ranges {0} and {1,2}?? -> 2's subtree is {2}, parent 1 < 2 invalid
        with pytest.raises(ConsistencyError):
            reconstruct_separator_decomposition([3, 3, 1, -1])

    def test_grid_top_separator_matches_recorded(self):
        rng = random.Random(47)
        g, coords = grid_graph(rng, 6, 5)
        cch = build_cch(g, coords)
        rec = cch.initial_order.decomposition
        recorded = {cch.initial_order.vertex_at[r]
                    for r in range(rec.sep_lo, rec.cell_hi)}
        top = cch.decomposition
        reconstructed = {cch.order.vertex_at[r]
                         for r in range(top.sep_lo, top.cell_hi)}
        assert reconstructed <= recorded

    def test_reconstructed_separator_disconnects(self):
        rng = random.Random(53)
        for _ in range(5):
            g, coords = random_connected_graph(rng, rng.randint(20, 90))
            cch = build_cch(g, coords)
            top = cch.decomposition
            if not top.children:
                continue
            adj = g.undirected_adjacency()
            sep = {cch.order.vertex_at[r] for r in range(top.sep_lo, top.cell_hi)}
            label = {}
            for i, child in enumerate(top.children):
                for r in range(child.cell_lo, child.cell_hi):
                    label[cch.order.vertex_at[r]] = i
            for v, lab in label.items():
                for w in adj[v]:
                    if w in sep:
                        continue
                    assert label[w] == lab, (v, w)


class TestDerivedOnConstruction:
    """A ``Cch`` takes only what its artifact stores: it derives its tree
    at construction and its decomposition and schedule on first use."""

    def test_non_postorder_rejected_at_construction(self):
        # Under the identity order, vertex 1 hangs under 3 and vertex 0
        # under 2, so the subtree of 2 is {0, 2}, not a rank range.
        g = InputGraph.from_arcs(4, [(0, 2, 1), (2, 0, 1), (1, 3, 1), (3, 1, 1),
                                     (2, 3, 1), (3, 2, 1)])
        order = RankOrder.identity(4)
        with pytest.raises(ConsistencyError, match="rank ranges not contiguous"):
            Cch(ug=contract(g, order), order=order, fingerprint=0)
        assert build_cch(g, order=order).order.vertex_at != order.vertex_at

    def test_decomposition_and_schedule_wait_for_first_use(self, tmp_path):
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        built = build_cch(g, coords)
        cchp, cchm = tmp_path / "s.cchp", tmp_path / "s.cchm"
        save_cch(built, str(cchp))
        save_customized(customize(build_cch(g, coords), list(g.weight)), str(cchm))
        for cch in (built, load_cch(str(cchp)), load_customized(str(cchm)).cch):
            assert "decomposition" not in vars(cch) and "schedule" not in vars(cch)
            decomposition = cch.decomposition
            assert decomposition == reconstruct_separator_decomposition(cch.parent)
            assert vars(cch)["decomposition"] is decomposition
            assert "schedule" not in vars(cch)

    def test_decomposition_reuses_the_construction_sizes(self, tmp_path, monkeypatch):
        calls = []
        sizes = cchroute.order.subtree_sizes
        monkeypatch.setattr(cchroute.order, "subtree_sizes",
                            lambda parent: calls.append(parent) or sizes(parent))
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        cchp = tmp_path / "s.cchp"
        save_cch(build_cch(g, coords), str(cchp))
        calls.clear()
        cch = load_cch(str(cchp))
        assert len(calls) == 1
        decomposition = cch.decomposition
        assert len(calls) == 1
        assert decomposition == reconstruct_separator_decomposition(cch.parent)


class TestCheckGraph:
    @pytest.fixture(scope="class")
    def sample(self):
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        cch = build_cch(g, load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count))
        return g, cch, serialize_cch(cch)

    def test_clean_hierarchy_passes(self, sample):
        g, _, data = sample
        deserialize_cch(data).check_graph(g)

    def test_head_moved_inside_a_clique(self, sample):
        # The first head move to another vertex of the clique above its
        # tail: the file loads, keeps its fingerprint and customizes, so
        # only the re-contraction tells it apart.
        g, cch, data = sample
        i, v = next((i, v) for i, v, chordal in head_moves(cch.ug) if chordal)
        assert v != cch.ug.head[i]
        edit = ArtifactEditor(data, cch)
        edit.put("head", i, v)
        moved = deserialize_cch(edit.sealed())
        assert moved.fingerprint == cch.fingerprint
        customize(moved, list(g.weight))
        with pytest.raises(ConsistencyError, match="not the contraction"):
            moved.check_graph(g)

    def test_graph_with_an_arc_dropped(self, sample, tmp_path):
        g, _, data = sample
        lines = (SAMPLE / "grid.gr").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("a "))
        del lines[i]
        lines = [f"p sp {g.vertex_count} {g.arc_count - 1}" if line.startswith("p ") else line
                 for line in lines]
        gr = tmp_path / "dropped.gr"
        gr.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConsistencyError, match="different graph"):
            deserialize_cch(data).check_graph(load_dimacs_gr(str(gr)))


class TestArtifacts:
    def _roundtrip(self, cch, tmp_path):
        path = tmp_path / "x.cchp"
        save_cch(cch, str(path))
        return load_cch(str(path)), path

    def test_diamond_round_trip(self, tmp_path):
        cch = build_cch(diamond(), order=RankOrder.identity(4))
        loaded, _ = self._roundtrip(cch, tmp_path)
        assert loaded.ug.head == cch.ug.head
        assert loaded.ug.first_arc == cch.ug.first_arc
        assert loaded.parent == cch.parent
        assert loaded.order.vertex_at == cch.order.vertex_at
        assert loaded.ug.orig_up == cch.ug.orig_up
        assert loaded.ug.orig_down == cch.ug.orig_down
        assert loaded.fingerprint == cch.fingerprint
        flat = [(n.cell_lo, n.cell_hi, n.sep_lo, len(n.children))
                for n in loaded.decomposition.preorder()]
        want = [(n.cell_lo, n.cell_hi, n.sep_lo, len(n.children))
                for n in cch.decomposition.preorder()]
        assert flat == want

    def test_corrupted_magic(self, tmp_path):
        cch = build_cch(diamond(), order=RankOrder.identity(4))
        _, path = self._roundtrip(cch, tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_cch(str(path))

    def test_truncation_detected(self, tmp_path):
        cch = build_cch(diamond(), order=RankOrder.identity(4))
        _, path = self._roundtrip(cch, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 5])
        with pytest.raises(FormatError):
            load_cch(str(path))

    def test_edited_decomposition_loads_as_the_trees(self, tmp_path):
        # Moving a separator's lowest vertex into the last child cell keeps
        # the cells tiling the ranks, but the cells are no longer the
        # elimination tree's, and k-NN would prune with wrong bounds. The
        # artifact does not store the decomposition, so the loaded one is
        # the tree's own.
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        cch = build_cch(g, load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count))
        clean = serialize_cch(cch)
        node = next(node for node in cch.decomposition.preorder()
                    if node.children and node.cell_hi - node.sep_lo > 1)
        node.sep_lo += 1
        node.children[-1].cell_hi += 1
        path = tmp_path / "moved.cchp"
        save_cch(cch, str(path))
        assert path.read_bytes() == clean
        loaded = load_cch(str(path)).decomposition
        assert loaded == reconstruct_separator_decomposition(cch.parent) != cch.decomposition

    def test_double_round_trip_byte_identical(self, tmp_path):
        rng = random.Random(59)
        g, coords = random_connected_graph(rng, 70)
        cch = build_cch(g, coords)
        p1 = tmp_path / "a.cchp"
        save_cch(cch, str(p1))
        loaded = load_cch(str(p1))
        p2 = tmp_path / "b.cchp"
        save_cch(Cch(ug=loaded.ug, order=loaded.order, fingerprint=loaded.fingerprint), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_column_types_identical_after_load(self, tmp_path):
        # build_cch, load_cch and load_customized hand out the same column
        # types, so comparisons between built and loaded hierarchies
        # compare values, not types
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        built = build_cch(g, coords)
        cchp, cchm = tmp_path / "s.cchp", tmp_path / "s.cchm"
        save_cch(built, str(cchp))
        save_customized(customize(built, list(g.weight)), str(cchm))
        for cch in (built, load_cch(str(cchp)), load_customized(str(cchm)).cch):
            ug = cch.ug
            columns = (ug.first_arc, ug.head, ug.tail, ug.orig_up, ug.orig_down, cch.parent)
            assert [(type(col), col.typecode) for col in columns] == [(array, "i")] * 6
