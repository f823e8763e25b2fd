"""Queries: elimination-tree search, unpacking, Lazy RPHAST, A*, k-NN."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies

from cchroute import (ConsistencyError, INFINITY, InputGraph, QueryState,
                      RankOrder, RphastState, StateError,
                      astar_with_cch_potential, build_cch, customize, dijkstra,
                      expand_turns, knn_dijkstra, knn_query, knn_select,
                      load_customized, permute_to_rank_ids, query,
                      query_input_graph, rphast_distance, rphast_source,
                      save_customized, unpack_path)
from helpers import diamond, grid_graph, hierarchies_with_metrics, random_connected_graph


def customized_diamond(use_perfect=True):
    g = diamond()
    cch = build_cch(g, order=RankOrder.identity(4))
    return g, cch, customize(cch, list(g.weight), use_perfect=use_perfect)


def path_weight(p: InputGraph, path) -> int:
    total = 0
    for a, b in zip(path, path[1:]):
        idx = p.arc_index(a, b)
        assert idx is not None, (a, b)
        total += p.weight[idx]
    return total


class TestQuery:
    def test_source_equals_target(self):
        _, cch, c = customized_diamond()
        st = QueryState.for_vertex_count(4)
        assert query(2, 2, st, c.graphs, cch.parent) == 0
        assert unpack_path(st, c.graphs) == [2]

    def test_diamond_v_to_w_meets_at_top(self):
        _, cch, c = customized_diamond()
        st = QueryState.for_vertex_count(4)
        assert query(1, 2, st, c.graphs, cch.parent) == 2
        assert st.last[3] == 3  # meeting vertex x

    def test_oracle_equivalence_both_modes(self):
        rng = random.Random(103)
        for _ in range(6):
            g, coords = random_connected_graph(rng, rng.randint(10, 120))
            cch = build_cch(g, coords)
            p = permute_to_rank_ids(g, cch.order)
            n = g.vertex_count
            st = QueryState.for_vertex_count(n)
            for use_perfect in (False, True):
                c = customize(cch, list(g.weight), use_perfect=use_perfect)
                for s in rng.sample(range(n), min(n, 12)):
                    dist = dijkstra(p, s)
                    for t in range(n):
                        assert query(s, t, st, c.graphs, cch.parent) == dist[t], (s, t)

    def test_disconnected_pair_is_infinity(self):
        arcs = [(0, 1, 3), (1, 0, 3), (2, 3, 4), (3, 2, 4)]
        g = InputGraph.from_arcs(4, arcs)
        from cchroute import Coordinates
        cch = build_cch(g, Coordinates(x=[0, 1, 50, 51], y=[0, 0, 0, 0]))
        c = customize(cch, list(g.weight))
        st = QueryState.for_vertex_count(4)
        r = cch.order.rank_of
        assert query(r[0], r[2], st, c.graphs, cch.parent) == INFINITY
        assert unpack_path(st, c.graphs) is None

    def test_state_clean_after_queries(self):
        rng = random.Random(107)
        g, coords = random_connected_graph(rng, 60)
        cch = build_cch(g, coords)
        c = customize(cch, list(g.weight))
        st = QueryState.for_vertex_count(60)
        for _ in range(50):
            query(rng.randrange(60), rng.randrange(60), st, c.graphs, cch.parent)
            assert all(d == INFINITY for d in st.d_up)
            assert all(d == INFINITY for d in st.d_down)

    def test_pruning_never_changes_distances(self):
        rng = random.Random(109)
        g, coords = random_connected_graph(rng, 80)
        cch = build_cch(g, coords)
        c = customize(cch, list(g.weight))
        st = QueryState.for_vertex_count(80)
        for _ in range(200):
            s, t = rng.randrange(80), rng.randrange(80)
            with_prune = query(s, t, st, c.graphs, cch.parent, prune=True)
            without = query(s, t, st, c.graphs, cch.parent, prune=False)
            assert with_prune == without


class TestUnpack:
    def test_adjacent_pair(self):
        g = diamond()
        cch = build_cch(g, order=RankOrder.identity(4))
        c = customize(cch, list(g.weight))
        st = QueryState.for_vertex_count(4)
        query(0, 1, st, c.graphs, cch.parent)
        assert unpack_path(st, c.graphs) == [0, 1]

    def test_diamond_u_to_x(self):
        _, cch, c = customized_diamond()
        st = QueryState.for_vertex_count(4)
        assert query(0, 3, st, c.graphs, cch.parent) == 2
        assert unpack_path(st, c.graphs) == [0, 1, 3]

    def test_unpack_before_any_query(self):
        _, _, c = customized_diamond()
        st = QueryState.for_vertex_count(4)
        with pytest.raises(StateError):
            unpack_path(st, c.graphs)

    def test_random_paths_have_matching_length(self):
        rng = random.Random(113)
        for use_perfect in (False, True):
            g, coords = random_connected_graph(rng, 90)
            cch = build_cch(g, coords)
            p = permute_to_rank_ids(g, cch.order)
            c = customize(cch, list(g.weight), use_perfect=use_perfect)
            st = QueryState.for_vertex_count(90)
            for _ in range(300):
                s, t = rng.randrange(90), rng.randrange(90)
                d = query(s, t, st, c.graphs, cch.parent)
                path = unpack_path(st, c.graphs)
                if d == INFINITY:
                    assert path is None
                    continue
                assert path[0] == s and path[-1] == t
                assert path_weight(p, path) == d


class TestRphast:
    def test_source_is_target(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        rphast_source(0, st)
        assert rphast_distance(0, st) == 0

    def test_diamond_memo_values(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        rphast_source(0, st)
        assert rphast_distance(2, st) == 3
        assert st.known[3] == 2  # filled on the way down to w
        assert st.known[2] == 3

    def test_distance_before_source_is_state_error(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        with pytest.raises(StateError):
            rphast_distance(1, st)

    def test_all_vertices_match_dijkstra(self):
        rng = random.Random(127)
        for use_perfect in (False, True):
            g, coords = random_connected_graph(rng, 100)
            cch = build_cch(g, coords)
            p = permute_to_rank_ids(g, cch.order)
            c = customize(cch, list(g.weight), use_perfect=use_perfect)
            st = RphastState(c.graphs, cch.parent)
            for s in rng.sample(range(100), 15):
                rphast_source(s, st)
                dist = dijkstra(p, s)
                for t in range(100):
                    assert rphast_distance(t, st) == dist[t]

    def test_requery_costs_no_relaxations(self):
        rng = random.Random(131)
        g, coords = random_connected_graph(rng, 80)
        cch = build_cch(g, coords)
        c = customize(cch, list(g.weight))
        st = RphastState(c.graphs, cch.parent)
        rphast_source(5, st)
        targets = rng.sample(range(80), 20)
        first = [rphast_distance(t, st) for t in targets]
        before = st.relaxations
        second = [rphast_distance(t, st) for t in targets]
        assert first == second
        assert st.relaxations == before

    def test_new_source_resets(self):
        rng = random.Random(137)
        g, coords = random_connected_graph(rng, 60)
        cch = build_cch(g, coords)
        p = permute_to_rank_ids(g, cch.order)
        c = customize(cch, list(g.weight))
        st = RphastState(c.graphs, cch.parent)
        for s in (3, 40, 7):
            rphast_source(s, st)
            dist = dijkstra(p, s)
            for t in rng.sample(range(60), 20):
                assert rphast_distance(t, st) == dist[t]


class TestAstar:
    def test_perfect_potential_settles_only_path_vertices(self):
        rng = random.Random(139)
        g, coords = random_connected_graph(rng, 80, one_way=0.0)
        cch = build_cch(g, coords)
        p = permute_to_rank_ids(g, cch.order)
        c = customize(cch, list(g.weight))
        st = RphastState(c.graphs, cch.parent, reverse=True)
        for _ in range(20):
            s, t = rng.randrange(80), rng.randrange(80)
            dist_s = dijkstra(p, s)
            if dist_s[t] == INFINITY:
                continue
            counters = {}
            got = astar_with_cch_potential(s, t, p, st, counters=counters)
            assert got == dist_s[t]
            dist_to_t = [dijkstra(p, v)[t] for v in range(80)]
            on_path = sum(1 for v in range(80)
                          if dist_s[v] + dist_to_t[v] == dist_s[t])
            assert counters["settled"] <= on_path

    def test_turn_expanded_search_with_plain_base(self):
        rng = random.Random(149)
        g, coords = grid_graph(rng, 4, 4)
        cch = build_cch(g, coords)
        c = customize(cch, list(g.weight))
        turns = {}
        for a in range(g.arc_count):
            rev = g.arc_index(g.head[a], g.tail[a])
            if rev is not None:
                turns[(a, rev)] = 100
        exp = expand_turns(g, turns)
        vertex_map = [cch.order.rank_of[g.tail[exp.arc_of_vertex[e]]]
                      for e in range(exp.graph.vertex_count)]
        st = RphastState(c.graphs, cch.parent, reverse=True)
        for _ in range(25):
            s = rng.randrange(exp.graph.vertex_count)
            t = rng.randrange(exp.graph.vertex_count)
            want = dijkstra(exp.graph, s)[t]
            got = astar_with_cch_potential(s, t, exp.graph, st, vertex_map=vertex_map)
            assert got == want

    def test_inflated_weights_beat_dijkstra_settles(self):
        rng = random.Random(151)
        g, coords = random_connected_graph(rng, 120, one_way=0.0)
        cch = build_cch(g, coords)
        p = permute_to_rank_ids(g, cch.order)
        c = customize(cch, list(g.weight))
        doubled = InputGraph(p.vertex_count, p.first_out, p.head,
                             [2 * w for w in p.weight], p.tail)
        st = RphastState(c.graphs, cch.parent, reverse=True)
        astar_total = dijkstra_total = 0
        for _ in range(25):
            s, t = rng.randrange(120), rng.randrange(120)
            counters = {}
            got = astar_with_cch_potential(s, t, doubled, st, counters=counters)
            stats = {}
            want = dijkstra(doubled, s, targets={t}, stats=stats)[t]
            assert got == want
            astar_total += counters["settled"]
            dijkstra_total += stats["settled"]
        assert astar_total <= dijkstra_total

    def test_infeasible_potential_detected(self):
        rng = random.Random(157)
        g, coords = random_connected_graph(rng, 40, one_way=0.0)
        cch = build_cch(g, coords)
        p = permute_to_rank_ids(g, cch.order)
        c = customize(cch, list(g.weight))
        # halving the search weights breaks the lower-bound contract
        halved = InputGraph(p.vertex_count, p.first_out, p.head,
                            [max(1, w // 4) for w in p.weight], p.tail)
        st = RphastState(c.graphs, cch.parent, reverse=True)
        saw_violation = False
        for _ in range(15):
            s, t = rng.randrange(40), rng.randrange(40)
            try:
                astar_with_cch_potential(s, t, halved, st)
            except ConsistencyError:
                saw_violation = True
                break
        assert saw_violation

    def test_forward_state_rejected(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        with pytest.raises(StateError):
            astar_with_cch_potential(0, 3, diamond(), st)


class TestKnn:
    def brute(self, p, s, k, targets):
        dist = dijkstra(p, s)
        ranked = sorted((dist[t], t) for t in targets if dist[t] != INFINITY)
        return [(t, d) for d, t in ranked[:k]]

    def test_select(self):
        idx = knn_select([], 10)
        assert idx.targets == []
        idx = knn_select([5, 2, 5], 10)
        assert idx.targets == [2, 5]
        with pytest.raises(ConsistencyError):
            knn_select([10], 10)

    def test_select_membership_matches_flag_array(self):
        from bisect import bisect_left

        rng = random.Random(159)
        n = 200
        targets = rng.sample(range(n), 37)
        idx = knn_select(targets, n)
        flags = [False] * n
        for t in targets:
            flags[t] = True
        for v in range(n):
            i = bisect_left(idx.targets, v)
            member = i < len(idx.targets) and idx.targets[i] == v
            assert member == flags[v]

    def test_dijkstra_variant_empty_targets(self):
        g = diamond()
        assert knn_dijkstra(g, 0, 3, []) == []

    def test_target_is_source(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        rphast_source(0, st)
        poi = knn_select([0], 4)
        assert knn_query(0, 1, poi, cch.decomposition, st) == [(0, 0)]

    def test_diamond_nearest_of_two(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        rphast_source(0, st)
        poi = knn_select([2, 3], 4)
        assert knn_query(0, 1, poi, cch.decomposition, st) == [(3, 2)]

    def test_k_zero(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        rphast_source(0, st)
        assert knn_query(0, 0, knn_select([2], 4), cch.decomposition, st) == []

    def test_random_instances_match_brute_force(self):
        rng = random.Random(163)
        for _ in range(5):
            n = rng.randint(20, 120)
            g, coords = random_connected_graph(rng, n)
            cch = build_cch(g, coords)
            p = permute_to_rank_ids(g, cch.order)
            c = customize(cch, list(g.weight))
            st = RphastState(c.graphs, cch.parent)
            for _ in range(12):
                targets = rng.sample(range(n), rng.randint(1, max(1, n // 3)))
                poi = knn_select(targets, n)
                s = rng.randrange(n)
                rphast_source(s, st)
                for k in (1, 4, 8):
                    got = knn_query(s, k, poi, cch.decomposition, st)
                    want = self.brute(p, s, k, poi.targets)
                    assert got == want, (s, k, targets)

    def test_matches_dijkstra_variant(self):
        rng = random.Random(167)
        n = 80
        g, coords = random_connected_graph(rng, n)
        cch = build_cch(g, coords)
        p = permute_to_rank_ids(g, cch.order)
        c = customize(cch, list(g.weight))
        st = RphastState(c.graphs, cch.parent)
        for _ in range(20):
            targets = rng.sample(range(n), 12)
            poi = knn_select(targets, n)
            s = rng.randrange(n)
            rphast_source(s, st)
            for k in (1, 4, 20):
                assert knn_query(s, k, poi, cch.decomposition, st) == \
                    knn_dijkstra(p, s, k, poi.targets)

    def test_unreachable_targets_excluded(self):
        # component {0,1} and component {2,3}; targets in both
        arcs = [(0, 1, 3), (1, 0, 3), (2, 3, 4), (3, 2, 4)]
        g = InputGraph.from_arcs(4, arcs)
        from cchroute import Coordinates
        cch = build_cch(g, Coordinates(x=[0, 1, 50, 51], y=[0, 0, 0, 0]))
        c = customize(cch, list(g.weight))
        st = RphastState(c.graphs, cch.parent)
        r = cch.order.rank_of
        rphast_source(r[0], st)
        poi = knn_select([r[1], r[2], r[3]], 4)
        got = knn_query(r[0], 3, poi, cch.decomposition, st)
        assert got == [(r[1], 3)]

    def test_wrong_source_state_error(self):
        _, cch, c = customized_diamond()
        st = RphastState(c.graphs, cch.parent)
        rphast_source(1, st)
        with pytest.raises(StateError):
            knn_query(0, 1, knn_select([2], 4), cch.decomposition, st)


class TestTurnExpandedPipeline:
    def test_full_hierarchy_on_expanded_graph(self):
        # the whole pipeline runs unchanged on a turn-expanded graph
        from cchroute import expanded_coordinates

        rng = random.Random(173)
        g, coords = grid_graph(rng, 5, 5)
        turns = {}
        for a in range(g.arc_count):
            rev = g.arc_index(g.head[a], g.tail[a])
            if rev is not None:
                turns[(a, rev)] = 100
            via = g.head[a]
            for b in range(g.first_out[via], g.first_out[via + 1]):
                if b != rev and rng.random() < 0.1:
                    turns[(a, b)] = -1  # FORBIDDEN
        exp = expand_turns(g, turns)
        eco = expanded_coordinates(g, coords, exp)
        cch = build_cch(exp.graph, eco)
        p = permute_to_rank_ids(exp.graph, cch.order)
        c = customize(cch, list(exp.graph.weight))
        st = QueryState.for_vertex_count(exp.graph.vertex_count)
        r = cch.order.rank_of
        for s in rng.sample(range(exp.graph.vertex_count), 10):
            dist = dijkstra(exp.graph, s)
            for t in rng.sample(range(exp.graph.vertex_count), 20):
                assert query(r[s], r[t], st, c.graphs, cch.parent) == dist[t]


def assert_every_query_matches_dijkstra(c, k, targets):
    """All pairs through ``query``/``unpack_path``, forward and reverse
    RPHAST rows and k-NN from every source, against plain Dijkstra on the
    customized input graph."""
    cch = c.cch
    n = cch.ug.vertex_count
    g = query_input_graph(c)
    dist = [dijkstra(g, s) for s in range(n)]
    st = QueryState.for_vertex_count(n)
    fwd = RphastState(c.graphs, cch.parent)
    bwd = RphastState(c.graphs, cch.parent, reverse=True)
    poi = knn_select(targets, n)
    for s in range(n):
        for t in range(n):
            assert query(s, t, st, c.graphs, cch.parent) == dist[s][t], (s, t)
            path = unpack_path(st, c.graphs)
            if dist[s][t] == INFINITY:
                assert path is None
            else:
                assert path[0] == s and path[-1] == t
                assert path_weight(g, path) == dist[s][t], (s, t, path)
        rphast_source(s, fwd)
        rphast_source(s, bwd)
        for t in range(n):
            assert rphast_distance(t, fwd) == dist[s][t], (s, t)
            assert rphast_distance(t, bwd) == dist[t][s], (t, s)
        nearest = sorted((dist[s][x], x) for x in targets if dist[s][x] != INFINITY)[:k]
        got = knn_query(s, k, poi, cch.decomposition, fwd)
        assert got == [(x, d) for d, x in nearest], s
        assert knn_dijkstra(g, s, k, targets) == [(x, d) for d, x in nearest], s


class TestEveryQueryMatchesDijkstra:
    @settings(max_examples=300, deadline=None)
    @given(hierarchies_with_metrics(), strategies.booleans(), strategies.integers(1, 4),
           strategies.sets(strategies.integers(0, 11)))
    def test_random_small_graphs(self, tmp_path_factory, instance, use_perfect, k, targets):
        # one-way arcs, INFINITY weights and disconnected parts; every
        # example is queried fresh and after a CCHM save/load round trip
        cch, weights = instance
        targets = sorted(v for v in targets if v < cch.ug.vertex_count)
        c = customize(cch, weights, use_perfect=use_perfect)
        assert_every_query_matches_dijkstra(c, k, targets)
        path = tmp_path_factory.mktemp("cchm") / "c.cchm"
        save_customized(c, str(path))
        assert_every_query_matches_dijkstra(load_customized(str(path)), k, targets)
