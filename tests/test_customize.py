"""Customization: respecting, triangle relaxations, perfect step, reduction."""

from __future__ import annotations

import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cchroute import (CchError, ConsistencyError, FormatError, INFINITY, InputGraph, RankOrder,
                      build_cch, build_reduced, customize, dijkstra, load_cch,
                      load_customized, load_dimacs_co, load_dimacs_gr, save_cch,
                      save_customized)
from cchroute.formats import deserialize_cch, serialize_cch, serialize_customized
from cchroute.query import _expand_arcs
from helpers import (SAMPLE, ArtifactEditor, diamond, grid_graph, head_moves,
                     hierarchies_with_metrics, random_connected_graph, rank_relabeled,
                     search_arcs, swappable_heads)
from oracles import basic_sweep, perfect, respect


def diamond_cch():
    g = diamond()
    return g, build_cch(g, order=RankOrder.identity(4))


def metric_after_basic(cch, weights):
    return basic_sweep(respect(cch.ug, weights), cch.ug)


class TestRespect:
    def test_diamond_initialization(self):
        g, cch = diamond_cch()
        m = respect(cch.ug, list(g.weight))
        vw = cch.ug.arc_index(1, 2)
        assert m.l_up[vw] == INFINITY and m.l_down[vw] == INFINITY
        for i in range(cch.ug.arc_count):
            if i == vw:
                continue
            o = cch.ug.orig_up[i]
            assert m.l_up[i] == g.weight[o]
        assert all(x == -1 for x in m.up_a)
        assert not any(m.delete_up) and not any(m.delete_down)

    def test_one_way_arc(self):
        g = InputGraph.from_arcs(2, [(0, 1, 5)])
        cch = build_cch(g, order=RankOrder.identity(2))
        m = respect(cch.ug, list(g.weight))
        assert m.l_up[0] == 5
        assert m.l_down[0] == INFINITY

    def test_all_infinity_metric(self):
        g, cch = diamond_cch()
        m = respect(cch.ug, [INFINITY] * g.arc_count)
        assert all(x == INFINITY for x in m.l_up)
        assert all(x == INFINITY for x in m.l_down)

    def test_length_mismatch(self):
        _, cch = diamond_cch()
        with pytest.raises(ConsistencyError):
            respect(cch.ug, [1, 2, 3])


class TestBasic:
    def test_diamond_shortcut_weight(self):
        g, cch = diamond_cch()
        m = metric_after_basic(cch, list(g.weight))
        vw = cch.ug.arc_index(1, 2)
        assert m.l_up[vw] == 11 and m.l_down[vw] == 11
        uv, uw = cch.ug.arc_index(0, 1), cch.ug.arc_index(0, 2)
        assert (m.up_a[vw], m.up_b[vw]) == (uv, uw)
        assert (m.down_a[vw], m.down_b[vw]) == (uv, uw)

    def test_triangle_free_unchanged(self):
        arcs = []
        for i in range(5):
            arcs.append((i, i + 1, i + 2))
            arcs.append((i + 1, i, i + 3))
        g = InputGraph.from_arcs(6, arcs)
        cch = build_cch(g, order=RankOrder.identity(6))
        m0 = respect(cch.ug, list(g.weight))
        before = (list(m0.l_up), list(m0.l_down))
        basic_sweep(m0, cch.ug)
        assert (m0.l_up, m0.l_down) == before

    def test_star_leaf_pairs_get_center_sums(self):
        rng = random.Random(61)
        leaves = 6
        arcs = []
        for leaf in range(1, leaves + 1):
            arcs.append((0, leaf, rng.randint(1, 50)))
            arcs.append((leaf, 0, rng.randint(1, 50)))
        g = InputGraph.from_arcs(leaves + 1, arcs)
        cch = build_cch(g, order=RankOrder.identity(leaves + 1))
        m = basic_sweep(respect(cch.ug, list(g.weight)), cch.ug)
        for i in range(1, leaves + 1):
            for j in range(i + 1, leaves + 1):
                arc = cch.ug.arc_index(i, j)
                want_up = g.weight[g.arc_index(i, 0)] + g.weight[g.arc_index(0, j)]
                want_down = g.weight[g.arc_index(j, 0)] + g.weight[g.arc_index(0, i)]
                assert m.l_up[arc] == want_up
                assert m.l_down[arc] == want_down

    def test_lower_triangle_inequality_exhaustive(self):
        rng = random.Random(71)
        for _ in range(6):
            g, coords = random_connected_graph(rng, rng.randint(10, 150))
            cch = build_cch(g, coords)
            m = metric_after_basic(cch, list(g.weight))
            ug = cch.ug
            for u in range(ug.vertex_count):
                lo, hi = ug.first_arc[u], ug.first_arc[u + 1]
                for ei in range(lo, hi):
                    for ej in range(ei + 1, hi):
                        vw = ug.arc_index(ug.head[ei], ug.head[ej])
                        assert m.l_up[vw] <= m.l_down[ei] + m.l_up[ej]
                        assert m.l_down[vw] <= m.l_up[ei] + m.l_down[ej]

    def test_weights_bound_distances_both_ways(self):
        rng = random.Random(73)
        g, coords = random_connected_graph(rng, 60)
        cch = build_cch(g, coords)
        m = metric_after_basic(cch, list(g.weight))
        ug = cch.ug
        p = rank_relabeled(g, cch.order)
        dist_from = {u: dijkstra(p, u) for u in range(ug.vertex_count)}
        for i in range(ug.arc_count):
            u, v = ug.tail[i], ug.head[i]
            assert m.l_up[i] >= dist_from[u][v]
            assert m.l_down[i] >= dist_from[v][u]
            if ug.orig_up[i] != -1:
                assert m.l_up[i] <= g.weight[ug.orig_up[i]]
            if ug.orig_down[i] != -1:
                assert m.l_down[i] <= g.weight[ug.orig_down[i]]


class TestPerfect:
    def test_diamond_deletions(self):
        g, cch = diamond_cch()
        m = metric_after_basic(cch, list(g.weight))
        perfect(m, cch.ug)
        vw = cch.ug.arc_index(1, 2)
        uw = cch.ug.arc_index(0, 2)
        assert m.l_up[vw] == 2 and m.l_down[vw] == 2
        assert m.delete_up[vw] and m.delete_down[vw]
        # the direct u-w edge (weight 10) is also superfluous: the
        # shortest path u,v,x,w has length 3 and peaks above both ends
        assert m.l_up[uw] == 3 and m.l_down[uw] == 3
        assert m.delete_up[uw] and m.delete_down[uw]

    def test_fixed_point_and_second_pass_noop(self):
        rng = random.Random(79)
        for _ in range(5):
            g, coords = random_connected_graph(rng, rng.randint(10, 80))
            cch = build_cch(g, coords)
            m = metric_after_basic(cch, list(g.weight))
            basic_up = list(m.l_up)
            basic_down = list(m.l_down)
            perfect(m, cch.ug)
            ug = cch.ug
            p = rank_relabeled(g, cch.order)
            dist_from = [dijkstra(p, v) for v in range(ug.vertex_count)]
            for e in range(ug.arc_count):
                assert m.l_up[e] == dist_from[ug.tail[e]][ug.head[e]]
                assert m.l_down[e] == dist_from[ug.head[e]][ug.tail[e]]
            # deletion marks are exactly the strictly improved directions
            for e in range(ug.arc_count):
                assert bool(m.delete_up[e]) == (m.l_up[e] < basic_up[e])
                assert bool(m.delete_down[e]) == (m.l_down[e] < basic_down[e])
            snap = (list(m.l_up), list(m.l_down), bytes(m.delete_up), bytes(m.delete_down))
            perfect(m, cch.ug)
            assert snap == (m.l_up, m.l_down, bytes(m.delete_up), bytes(m.delete_down))

    def test_deleted_direction_has_higher_peak_witness(self):
        # a deleted direction's shortest path must pass through a vertex
        # ranked above the arc's lower endpoint (otherwise the basic step
        # would already have found it via lower triangles)
        rng = random.Random(83)
        g, coords = random_connected_graph(rng, 40)
        cch = build_cch(g, coords)
        m = metric_after_basic(cch, list(g.weight))
        perfect(m, cch.ug)
        ug = cch.ug
        p = rank_relabeled(g, cch.order)
        dist_from = {u: dijkstra(p, u) for u in range(ug.vertex_count)}
        for e in range(ug.arc_count):
            u, v = ug.tail[e], ug.head[e]
            witnesses = [w for w in range(u + 1, ug.vertex_count) if w != v]
            if m.delete_up[e] and m.l_up[e] != INFINITY:
                assert any(dist_from[u][w] + dist_from[w][v] == m.l_up[e]
                           for w in witnesses)
            if m.delete_down[e] and m.l_down[e] != INFINITY:
                assert any(dist_from[v][w] + dist_from[w][u] == m.l_down[e]
                           for w in witnesses)


class TestBuildReduced:
    def test_no_deletions_identity(self):
        g, cch = diamond_cch()
        m = metric_after_basic(cch, list(g.weight))
        red = build_reduced(m, cch.ug)
        ug = cch.ug
        for graph, weight in ((red.forward, m.l_up), (red.backward, m.l_down)):
            assert search_arcs(graph) == list(zip(ug.tail, ug.head, weight))
            assert [len(arcs) for arcs in graph.adj] == \
                [hi - lo for lo, hi in zip(ug.first_arc, ug.first_arc[1:])]
            assert graph.arc_count == ug.arc_count

    def test_diamond_reduction(self):
        g, cch = diamond_cch()
        m = metric_after_basic(cch, list(g.weight))
        perfect(m, cch.ug)
        red = build_reduced(m, cch.ug)
        ug = cch.ug
        for graph, weight in ((red.forward, m.l_up), (red.backward, m.l_down)):
            arcs = search_arcs(graph)
            assert [(u, v) for u, v, _ in arcs] == [(0, 1), (1, 3), (2, 3)]
            assert [w for _, _, w in arcs] == [weight[ug.arc_index(u, v)] for u, v, _ in arcs]
            assert [len(a) for a in graph.adj] == [1, 1, 1, 0]
            assert graph.arc_count == 3

    def test_adjacency_is_the_unmarked_arcs(self):
        # every direction keeps exactly the arcs without a deletion mark,
        # with their weights, and arc_count counts them
        rng = random.Random(83)
        g, coords = grid_graph(rng, 9, 9, one_way=0.3)
        weights = [INFINITY if rng.random() < 0.05 else w for w in g.weight]
        cch = build_cch(g, coords)
        ug = cch.ug
        for use_perfect in (True, False):
            c = customize(cch, weights, use_perfect=use_perfect)
            m = c.metric
            for graph, deleted, weight in ((c.graphs.forward, m.delete_up, m.l_up),
                                           (c.graphs.backward, m.delete_down, m.l_down)):
                assert search_arcs(graph) == [(ug.tail[e], ug.head[e], weight[e])
                                              for e in range(ug.arc_count) if not deleted[e]]
                assert graph.arc_count == deleted.count(0)
            if use_perfect:
                assert c.graphs.forward.arc_count < ug.arc_count

    def test_surviving_witnesses_expand_to_arc_weight(self):
        rng = random.Random(89)
        for use_perfect in (False, True):
            g, coords = random_connected_graph(rng, 70)
            cch = build_cch(g, coords)
            c = customize(cch, list(g.weight), use_perfect=use_perfect)
            p = rank_relabeled(g, cch.order)
            warcs = {(p.tail[i], p.head[i]): p.weight[i] for i in range(p.arc_count)}
            for side_up, graph in ((True, c.graphs.forward), (False, c.graphs.backward)):
                for u, v, weight in search_arcs(graph):
                    if weight == INFINITY:
                        continue
                    out = [u if side_up else v]
                    _expand_arcs(c.graphs, side_up, cch.ug.arc_index(u, v), out)
                    assert out[-1] == (v if side_up else u)
                    total = 0
                    for a, b in zip(out, out[1:]):
                        assert (a, b) in warcs, (a, b)
                        total += warcs[(a, b)]
                    assert total == weight

    def test_surviving_arcs_keep_their_witness_legs(self):
        # Unpacking a search arc follows its witness into the search graphs:
        # the down leg into the backward graph, the up leg into the forward
        # graph. Perfect customization must therefore never delete a leg of
        # an arc-direction it keeps, including under closed arcs.
        rng = random.Random(103)
        for trial in range(8):
            if trial % 2:
                g, coords = grid_graph(rng, 9, 9, one_way=0.3)
            else:
                g, coords = random_connected_graph(rng, 90)
            weights = [INFINITY if rng.random() < 0.05 else w for w in g.weight]
            m = customize(build_cch(g, coords), weights, use_perfect=True).metric
            for deleted, down_leg, up_leg in ((m.delete_up, m.up_a, m.up_b),
                                              (m.delete_down, m.down_b, m.down_a)):
                for e in range(len(deleted)):
                    if not deleted[e] and down_leg[e] != -1:
                        assert not m.delete_down[down_leg[e]], (trial, e)
                        assert not m.delete_up[up_leg[e]], (trial, e)


METRIC_FIELDS = ("l_up", "l_down", "up_a", "up_b", "down_a", "down_b",
                 "delete_up", "delete_down")


def assert_matches_loop_oracles(cch, weights, use_perfect):
    """``customize()`` must reproduce the loop functions element for element:
    weights, witnesses and deletion marks."""
    got = customize(cch, weights, use_perfect=use_perfect).metric
    want = basic_sweep(respect(cch.ug, weights), cch.ug)
    if use_perfect:
        perfect(want, cch.ug)
    for name in METRIC_FIELDS:
        assert list(getattr(got, name)) == list(getattr(want, name)), name


class TestKernelsMatchLoopOracles:
    @settings(max_examples=300, deadline=None)
    @given(hierarchies_with_metrics(), st.booleans())
    def test_random_small_graphs(self, instance, use_perfect):
        cch, weights = instance
        assert_matches_loop_oracles(cch, weights, use_perfect)

    @pytest.mark.parametrize("use_perfect", [True, False])
    def test_seeded_grid_with_closures(self, use_perfect):
        rng = random.Random(107)
        g, coords = grid_graph(rng, 30, 30, one_way=0.1)
        assert_matches_loop_oracles(build_cch(g, coords), traffic_metric(rng, g), use_perfect)

    def test_offsets_wider_than_a_byte(self):
        # Leaf 1 of a 258-leaf star ranked below its leaves has up-degree
        # 257, so opposite-arc offsets reach 256 and need two bytes. A few
        # leaf-to-leaf arcs give the perfect step something to delete.
        rng = random.Random(109)
        leaves = 258
        arcs = [arc for v in range(1, leaves + 1)
                for arc in ((0, v, rng.randint(1, 50)), (v, 0, rng.randint(1, 50)))]
        arcs += [(*rng.sample(range(1, leaves + 1), 2), rng.randint(1, 60)) for _ in range(200)]
        g = InputGraph.from_arcs(leaves + 1, arcs)
        cch = build_cch(g, order=RankOrder.identity(leaves + 1))
        weights = traffic_metric(rng, g)
        assert_matches_loop_oracles(cch, weights, use_perfect=True)
        schedule = cch.schedule
        assert schedule.tri_k.dtype == np.uint16 and schedule.tri_k.max() >= 256
        assert_matches_loop_oracles(cch, weights, use_perfect=False)


def traffic_metric(rng, g):
    """A traffic metric as in the benchmark: a fifth of the arcs slowed
    down by x1.2 to x4, one percent closed."""
    weights = list(g.weight)
    for i in rng.sample(range(g.arc_count), g.arc_count // 5):
        weights[i] = weights[i] * rng.randint(12, 40) // 10
    for i in rng.sample(range(g.arc_count), g.arc_count // 100):
        weights[i] = INFINITY
    return weights


class TestSchedule:
    """The customization schedule is built once per hierarchy and reused."""

    @staticmethod
    def _grid(seed):
        rng = random.Random(seed)
        g, coords = grid_graph(rng, 25, 25, one_way=0.1)
        return rng, g, serialize_cch(build_cch(g, coords))

    def test_reuse_matches_a_fresh_hierarchy(self):
        rng, g, cchp = self._grid(113)
        a, b = traffic_metric(rng, g), traffic_metric(rng, g)
        cch = deserialize_cch(cchp)
        schedule = None
        for weights, use_perfect in ((a, True), (b, False), (a, False), (b, True), (a, True)):
            got = customize(cch, weights, use_perfect=use_perfect)
            want = customize(deserialize_cch(cchp), weights, use_perfect=use_perfect)
            assert serialize_customized(got) == serialize_customized(want)
            schedule = schedule or vars(cch).get("schedule")
            assert schedule is not None and vars(cch)["schedule"] is schedule

    def test_invisible_in_equality_repr_and_artifact(self):
        _, g, cchp = self._grid(127)
        cch, twin = deserialize_cch(cchp), deserialize_cch(cchp)
        before = repr(cch)
        customize(cch, list(g.weight))
        assert "schedule" in vars(cch) and "schedule" not in vars(twin)
        assert cch == twin
        assert repr(cch) == before
        assert serialize_cch(cch) == cchp

    def test_concurrent_first_customizations(self):
        # Eight threads race to build one hierarchy's schedule, with a
        # short switch interval to interleave them; each must get the
        # result a sequential run on a fresh hierarchy gives.
        rng, g, cchp = self._grid(131)
        metrics = [traffic_metric(rng, g) for _ in range(8)]
        want = [serialize_customized(customize(deserialize_cch(cchp), w)) for w in metrics]
        cch = deserialize_cch(cchp)
        got = [None] * len(metrics)

        def run(i):
            got[i] = serialize_customized(customize(cch, metrics[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(metrics))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want


class TestParallelDeterminism:
    def test_thread_counts_bitwise_identical(self):
        rng = random.Random(97)
        g, coords = random_connected_graph(rng, 150)
        cch = build_cch(g, coords)
        results = {}
        for threads in (1, 2, 4, 8):
            c = customize(cch, list(g.weight), use_perfect=True, threads=threads)
            results[threads] = c
        base = results[1]
        for threads, c in results.items():
            m, bm = c.metric, base.metric
            assert m.l_up == bm.l_up and m.l_down == bm.l_down, threads
            assert m.up_a == bm.up_a and m.up_b == bm.up_b, threads
            assert m.down_a == bm.down_a and m.down_b == bm.down_b, threads
            assert bytes(m.delete_up) == bytes(bm.delete_up), threads
            assert bytes(m.delete_down) == bytes(bm.delete_down), threads
            for side in ("forward", "backward"):
                sg, bg = getattr(c.graphs, side), getattr(base.graphs, side)
                assert sg.adj == bg.adj, threads
                assert sg.arc_count == bg.arc_count, threads


class TestCustomizeFacade:
    def test_recustomization_reuses_hierarchy(self):
        rng = random.Random(101)
        g, coords = random_connected_graph(rng, 50)
        cch = build_cch(g, coords)
        head_before = list(cch.ug.head)
        customize(cch, list(g.weight))
        second = [max(1, w // 2) for w in g.weight]
        c2 = customize(cch, second, use_perfect=False)
        assert list(cch.ug.head) == head_before
        assert c2.perfect is False
        everything = list(zip(cch.ug.tail, cch.ug.head))
        for graph in (c2.graphs.forward, c2.graphs.backward):
            assert [(u, v) for u, v, _ in search_arcs(graph)] == everything
            assert graph.arc_count == cch.ug.arc_count

    def test_timings_recorded(self):
        g, cch = diamond_cch()
        times = {}
        customize(cch, list(g.weight), timings=times)
        assert set(times) == {"respect", "basic", "perfect", "construct", "total"}

    @pytest.mark.parametrize("bad", [-1, INFINITY + 1])
    def test_weight_out_of_range(self, bad):
        g, cch = diamond_cch()
        weights = list(g.weight)
        weights[3] = bad
        with pytest.raises(ConsistencyError, match="outside"):
            customize(cch, weights)

    def test_loading_and_querying_do_not_import_numpy(self, tmp_path):
        # numpy costs a serving process memory and start-up time, and only
        # customization needs it
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        path = tmp_path / "sample.cchm"
        save_customized(customize(build_cch(g, coords), list(g.weight)), str(path))
        script = (
            "import sys\n"
            "from cchroute import (QueryState, RphastState, knn_query, knn_select,\n"
            "                      load_customized, query, rphast_distance, rphast_source,\n"
            "                      unpack_path)\n"
            f"c = load_customized({str(path)!r})\n"
            "n = c.cch.ug.vertex_count\n"
            "st = QueryState.for_vertex_count(n)\n"
            "query(0, n - 1, st, c.graphs, c.cch.parent)\n"
            "unpack_path(st, c.graphs)\n"
            "rs = RphastState(c.graphs, c.cch.parent)\n"
            "rphast_source(0, rs)\n"
            "rphast_distance(n - 1, rs)\n"
            "knn_query(0, 3, knn_select(range(0, n, 7), n), c.cch.decomposition, rs)\n"
            "print('numpy' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, env={"PYTHONPATH": ":".join(sys.path)})
        assert out.stdout.strip() == "False"


class TestCorruptedArtifactRejected:
    """A loaded CCHM whose topology or witnesses are broken must raise
    instead of sending queries or path unpacking into endless loops. Each
    edit re-seals the trailer, so the structural checks see it."""

    def _sample(self, tmp_path, use_perfect=True):
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        c = customize(build_cch(g, coords), list(g.weight), use_perfect=use_perfect)
        path = tmp_path / "sample.cchm"
        save_customized(c, str(path))
        return c, path

    def test_heads_out_of_order_answer_or_raise(self, tmp_path):
        # Swapping two later heads of vertex 0 (its parent, the first head,
        # stays) keeps the elimination tree intact, but a hop found by
        # bisecting the unsorted heads could go missing: loading rejects it.
        c, _ = self._sample(tmp_path)
        cch = c.cch
        assert cch.ug.first_arc[1] >= 3
        edit = ArtifactEditor(serialize_cch(cch), cch)
        edit.swap("head", 1, 2)
        with pytest.raises(ConsistencyError, match="not strictly ascending"):
            deserialize_cch(edit.sealed())

    # The first and the last vertex of the hierarchy with three or more
    # heads swap their second and last heads along with the input arc IDs,
    # which keeps every input arc at its hierarchy arc, so only the order
    # breaks. The ids name the vertices of the edits that this test once
    # made at fixed positions of the sample hierarchy.
    @pytest.mark.parametrize("pick", [0, -1], ids=["vertex-4", "vertex-32"])
    def test_heads_swapped_with_their_arcs_rejected(self, tmp_path, pick):
        c, path = self._sample(tmp_path)
        ug = c.cch.ug
        i, j = swappable_heads(ug)[pick]
        assert ug.tail[i] == ug.tail[j] and ug.first_arc[ug.tail[i]] < i < j
        cchp = tmp_path / "swapped.cchp"
        save_cch(c.cch, str(cchp))
        for target, cchm in ((cchp, False), (path, True)):
            edit = ArtifactEditor(target.read_bytes(), c.cch, cchm=cchm)
            for column in ("head", "orig_up", "orig_down"):
                edit.swap(column, i, j)
            target.write_bytes(edit.sealed())
        with pytest.raises(ConsistencyError, match="not strictly ascending"):
            load_cch(str(cchp))
        with pytest.raises(ConsistencyError, match="not strictly ascending"):
            load_customized(str(path))

    def test_non_chordal_hierarchy_rejected(self, tmp_path):
        # The first later head of a vertex that, moved between its
        # neighbours, keeps the tree and the ascent of the heads, so the
        # CCHP loads, but leaves a triangle without its third arc.
        c, _ = self._sample(tmp_path)
        ug = c.cch.ug
        i, v = next((i, v) for i, v, chordal in head_moves(ug) if not chordal)
        assert ug.first_arc[ug.tail[i]] < i and ug.head[i - 1] < v < ug.head[i + 1]
        edit = ArtifactEditor(serialize_cch(c.cch), c.cch)
        edit.put("head", i, v)
        cch = deserialize_cch(edit.sealed())
        with pytest.raises(ConsistencyError, match="hierarchy is not chordal"):
            customize(cch, c.input_weights)

    def _put(self, c, path, column, index, value):
        edit = ArtifactEditor(path.read_bytes(), c.cch, cchm=True)
        edit.put(column, index, value)
        path.write_bytes(edit.sealed())

    def test_first_arc_bit_flip(self, tmp_path):
        c, path = self._sample(tmp_path)
        self._put(c, path, "first_arc", 38, c.cch.ug.first_arc[38] ^ 0x80)
        with pytest.raises(ConsistencyError):
            load_customized(str(path))

    def test_head_out_of_range(self, tmp_path):
        c, path = self._sample(tmp_path)
        self._put(c, path, "head", 0, c.cch.ug.vertex_count)
        with pytest.raises(ConsistencyError):
            load_customized(str(path))

    def test_parent_points_downward(self, tmp_path):
        # The parent is no longer stored: loading takes it from the first
        # head of each vertex, so a downward parent is a downward head.
        c, path = self._sample(tmp_path)
        ug = c.cch.ug
        u = max(v for v, p in enumerate(c.cch.parent) if p != -1)
        self._put(c, path, "head", ug.first_arc[u], u - 1)
        with pytest.raises(ConsistencyError, match="arc head outside"):
            load_customized(str(path))

    @pytest.mark.parametrize("use_perfect", [True, False])
    def test_witness_not_a_lower_triangle(self, tmp_path, use_perfect):
        c, path = self._sample(tmp_path, use_perfect)
        m, ug = c.metric, c.cch.ug
        k = next(e for e in range(ug.arc_count)
                 if ug.orig_up[e] == ug.orig_down[e] == -1
                 and m.up_a[e] != -1 and not m.delete_up[e])
        self._put(c, path, "up_b", k, k)
        with pytest.raises(ConsistencyError):
            load_customized(str(path))

    def test_witness_with_bit_31_set(self, tmp_path):
        # witnesses load as int32, so such a value reads as negative and
        # must still be rejected rather than index from the end
        c, path = self._sample(tmp_path)
        m, ug = c.metric, c.cch.ug
        e = next(e for e in range(ug.arc_count) if not m.delete_up[e] and m.up_a[e] != -1)
        self._put(c, path, "up_a", e, 0x80000000 | m.up_a[e])
        with pytest.raises(ConsistencyError, match="lower triangle"):
            load_customized(str(path))

    def test_witness_leg_deleted(self, tmp_path):
        c, path = self._sample(tmp_path)
        m, ug = c.metric, c.cch.ug
        e = next(e for e in range(ug.arc_count) if not m.delete_up[e] and m.up_a[e] != -1)
        self._put(c, path, "delete_down", m.up_a[e], 1)  # the down leg
        with pytest.raises(ConsistencyError, match="deleted"):
            load_customized(str(path))

    def test_basic_only_artifact_with_deletion_mark(self, tmp_path):
        c, path = self._sample(tmp_path, use_perfect=False)
        self._put(c, path, "delete_up", 0, 1)
        with pytest.raises(ConsistencyError, match="deletion marks"):
            load_customized(str(path))

    @pytest.mark.parametrize("mark", [2, 255])
    @pytest.mark.parametrize("column", ["delete_up", "delete_down"])
    def test_deletion_mark_not_0_or_1(self, tmp_path, column, mark):
        # An arc already marked deleted, so that only the mark's value is
        # wrong: read as "any non-zero byte deletes", the file would load.
        c, path = self._sample(tmp_path)
        e = next(e for e, deleted in enumerate(getattr(c.metric, column)) if deleted)
        self._put(c, path, column, e, mark)
        with pytest.raises(FormatError, match="deletion mark is not 0 or 1"):
            load_customized(str(path))

    def test_witnesses_checked_before_search_graphs(self, tmp_path, monkeypatch):
        c, path = self._sample(tmp_path)
        clean = tmp_path / "clean.cchm"
        save_customized(c, str(clean))
        m, ug = c.metric, c.cch.ug
        e = next(e for e in range(ug.arc_count) if not m.delete_up[e] and m.up_a[e] != -1)
        self._put(c, path, "up_b", e, e)
        module = sys.modules["cchroute.customize"]
        calls = []
        real = module.build_reduced
        monkeypatch.setattr(module, "build_reduced", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ConsistencyError, match="lower triangle"):
            load_customized(str(path))
        assert calls == []
        load_customized(str(clean))
        assert len(calls) == 1


class TestCorruptionFuzz:
    """Seeded byte corruption of the sample artifacts: 1 to 4 flipped bytes
    anywhere, weights and deletion marks included, must make loading raise
    a ``CchError``. The CRC32 trailer misses a change only with
    probability 2**-32."""

    @pytest.mark.parametrize("kind", ["cchp", "perfect", "no-perfect"])
    def test_corrupted_artifact_raises_cch_error_or_answers(self, tmp_path, kind):
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        coords = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        cch = build_cch(g, coords)
        path = tmp_path / "artifact"
        if kind == "cchp":
            save_cch(cch, str(path))
        else:
            save_customized(customize(cch, list(g.weight), use_perfect=kind == "perfect"),
                            str(path))
        clean = path.read_bytes()
        load = load_cch if kind == "cchp" else load_customized
        rng = random.Random(11)
        for case in range(100):
            data = bytearray(clean)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
            path.write_bytes(bytes(data))
            with pytest.raises(CchError):
                load(str(path))
