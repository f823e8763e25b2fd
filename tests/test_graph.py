"""Graph core: loaders, the arc builder, turn expansion, Dijkstra baseline."""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc
from array import array

import pytest

from cchroute import (ConsistencyError, Coordinates, FORBIDDEN, INFINITY, InputGraph,
                      ParseError, QueryState, TurnExpansion, TurnTable, build_cch, customize,
                      dijkstra, expand_turns, expanded_coordinates, load_dimacs_co,
                      load_dimacs_gr, load_metric, load_turn_table, query, store_dimacs_gr)
from cchroute import turns as turns_module
from helpers import (SAMPLE, diamond, enumerate_path_distance, perfbench_instance,
                     turn_respecting_distance)
import oracles


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadGr:
    def test_single_arc(self, tmp_path):
        g = load_dimacs_gr(write(tmp_path, "a.gr", "p sp 2 1\na 1 2 5\n"))
        assert g.vertex_count == 2
        assert g.arc_count == 1
        assert (g.tail[0], g.head[0], g.weight[0]) == (0, 1, 5)
        # missing reverse direction is INFINITY by convention
        assert g.arc_index(1, 0) is None
        assert dijkstra(g, 1)[0] == INFINITY

    def test_duplicate_arcs_collapse_to_min(self, tmp_path):
        g = load_dimacs_gr(write(tmp_path, "a.gr", "p sp 2 2\na 1 2 5\na 1 2 3\n"))
        assert g.arc_count == 1
        assert g.weight[0] == 3

    def test_diamond_file_topology(self, tmp_path):
        text = "c diamond\np sp 4 4\na 1 2 1\na 1 3 10\na 2 4 1\na 3 4 1\n"
        g = load_dimacs_gr(write(tmp_path, "d.gr", text))
        assert g.undirected_edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_self_loops_dropped_and_counted(self, tmp_path):
        g = load_dimacs_gr(write(tmp_path, "a.gr", "p sp 2 2\na 1 1 7\na 1 2 5\n"))
        assert g.arc_count == 1
        assert g.dropped_self_loops == 1

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ParseError):
            load_dimacs_gr(write(tmp_path, "a.gr", "p sp 2 1\na 1 two 5\n"))

    def test_vertex_out_of_range(self, tmp_path):
        with pytest.raises(ConsistencyError):
            load_dimacs_gr(write(tmp_path, "a.gr", "p sp 2 1\na 1 3 5\n"))

    def test_arc_count_mismatch(self, tmp_path):
        with pytest.raises(ConsistencyError):
            load_dimacs_gr(write(tmp_path, "a.gr", "p sp 2 2\na 1 2 5\n"))

    def test_missing_problem_line(self, tmp_path):
        with pytest.raises(ParseError):
            load_dimacs_gr(write(tmp_path, "a.gr", "a 1 2 5\n"))

    @pytest.mark.parametrize("line", ["p sp 2147483648 0", "p sp 2 2147483648"],
                             ids=["vertices", "arcs"])
    def test_count_beyond_int32_rejected(self, tmp_path, line):
        # Every artifact column is int32. The check must come before the
        # graph allocates a list entry per vertex.
        with pytest.raises(ParseError, match="outside"):
            load_dimacs_gr(write(tmp_path, "a.gr", line + "\n"))

    def test_round_trip_identity(self, tmp_path):
        rng = random.Random(7)
        arcs = [(rng.randrange(10), rng.randrange(10), rng.randint(0, 500))
                for _ in range(40)]
        g = InputGraph.from_arcs(10, arcs)
        path = tmp_path / "rt.gr"
        store_dimacs_gr(g, str(path))
        g2 = load_dimacs_gr(str(path))
        assert g2.vertex_count == g.vertex_count
        assert list(zip(g2.tail, g2.head, g2.weight)) == list(zip(g.tail, g.head, g.weight))


class TestLoadCo:
    def test_single_vertex(self, tmp_path):
        co = load_dimacs_co(write(tmp_path, "a.co", "v 1 0 0\n"), 1)
        assert (co.x, co.y) == ([0], [0])

    def test_missing_entry(self, tmp_path):
        with pytest.raises(ConsistencyError):
            load_dimacs_co(write(tmp_path, "a.co", "v 1 3 4\n"), 2)

    def test_duplicate_entry(self, tmp_path):
        with pytest.raises(ConsistencyError):
            load_dimacs_co(write(tmp_path, "a.co", "v 1 3 4\nv 1 5 6\n"), 1)

    def test_collinear_points(self, tmp_path):
        text = "".join(f"v {i + 1} {10 * i} 0\n" for i in range(4))
        co = load_dimacs_co(write(tmp_path, "a.co", text), 4)
        assert co.x == [0, 10, 20, 30]
        assert co.y == [0, 0, 0, 0]


class TestMetricFile:
    def test_overrides_and_infinity_default(self, tmp_path):
        g = diamond()
        w = load_metric(write(tmp_path, "m.txt", "a 1 2 9\n"), g)
        assert w[g.arc_index(0, 1)] == 9
        assert w[g.arc_index(1, 0)] == INFINITY

    def test_unknown_arc_rejected(self, tmp_path):
        g = diamond()
        with pytest.raises(ConsistencyError):
            load_metric(write(tmp_path, "m.txt", "a 1 4 9\n"), g)


class TestTurnExpansion:
    def test_empty_table_two_arc_path(self):
        g = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6)])
        exp = expand_turns(g, TurnTable(g))
        assert exp.graph.vertex_count == 2
        assert exp.graph.arc_count == 1
        a01 = g.arc_index(0, 1)
        a12 = g.arc_index(1, 2)
        assert exp.graph.arc_index(a01, a12) is not None
        assert exp.graph.weight[0] == 4  # first arc's travel cost, zero turn cost

    def test_forbidden_turn_disconnects(self):
        g = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6)])
        a01, a12 = g.arc_index(0, 1), g.arc_index(1, 2)
        exp = expand_turns(g, TurnTable.from_dict(g, {(a01, a12): FORBIDDEN}))
        dist = dijkstra(exp.graph, a01)
        assert dist[a12] == INFINITY

    def test_u_turn_penalty_preserves_straight_routes(self):
        # path 0-1-2-3 both directions; U-turns cost 100, rest free
        arcs = []
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            arcs.append((a, b, 1))
            arcs.append((b, a, 1))
        g = InputGraph.from_arcs(4, arcs)
        turns = {}
        for i in range(g.arc_count):
            rev = g.arc_index(g.head[i], g.tail[i])
            if rev is not None:
                turns[(i, rev)] = 100
        exp = expand_turns(g, TurnTable.from_dict(g, turns))
        a01 = g.arc_index(0, 1)
        a23 = g.arc_index(2, 3)
        dist = dijkstra(exp.graph, a01)
        # 0->1->2->(3): pay arcs 0->1 and 1->2, no turn costs
        assert dist[a23] == 2
        # a U-turn right after the first arc costs 100 extra
        a10 = g.arc_index(1, 0)
        assert dist[a10] == 101

    def test_table_referencing_missing_arc(self):
        g = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6)])
        with pytest.raises(ConsistencyError):
            TurnTable.from_dict(g, {(0, 5): 3})
        with pytest.raises(ConsistencyError):
            TurnTable.from_dict(g, {(1, 0): 3})  # arcs do not share a via vertex

    def test_weight_reaching_infinity_raises_like_from_arcs(self):
        g = InputGraph.from_arcs(3, [(0, 1, INFINITY - 6), (1, 2, 6)])
        a01, a12 = g.arc_index(0, 1), g.arc_index(1, 2)
        assert expand_turns(g, TurnTable.from_dict(g, {(a01, a12): 5})).graph.weight[0] == INFINITY - 1
        with pytest.raises(ConsistencyError) as got:
            expand_turns(g, TurnTable.from_dict(g, {(a01, a12): 6}))
        with pytest.raises(ConsistencyError) as want:
            InputGraph.from_arcs(2, [(a01, a12, INFINITY)])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("columns", [list, array], ids=["lists", "arrays"])
    @pytest.mark.parametrize("self_turn", [None, 0, 7, FORBIDDEN],
                             ids=["absent", "free", "costed", "forbidden"])
    def test_self_loop_arc_expands_as_from_arcs(self, columns, self_turn):
        # built directly, since from_arcs drops self-loops: arc 0 is 0 -> 0
        first_out, head, weight = [0, 2, 3], [0, 1, 0], [3, 4, 5]
        if columns is array:
            first_out, head, weight = array("i", first_out), array("i", head), array("I", weight)
        g = InputGraph(2, first_out, head, weight)
        turns = {} if self_turn is None else {(0, 0): self_turn}
        # every permitted turn (a, b) at head(a) == tail(b) as an arc,
        # collapsed by from_arcs
        arcs = [(a, b, g.weight[a] + turns.get((a, b), 0))
                for a in range(3) for b in range(3)
                if g.head[a] == g.tail[b] and turns.get((a, b), 0) != FORBIDDEN]
        got = expand_turns(g, TurnTable.from_dict(g, turns)).graph
        assert got == InputGraph.from_arcs(3, arcs)
        assert got.dropped_self_loops == (self_turn != FORBIDDEN)

    def test_expansion_streams_its_turns(self, tmp_path):
        # The permitted turns go straight into the expanded graph's columns:
        # a list of (tail, head, weight) tuples would take several times
        # their bytes.
        paths = perfbench_instance(tmp_path)
        g = load_dimacs_gr(paths["grid.gr"])
        turns = load_turn_table(paths["grid.turns"], g)
        expand_turns(g, turns)  # the imports and caches of a first call are not the expansion's
        tracemalloc.start()
        try:
            expanded = expand_turns(g, turns).graph
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = (expanded.first_out, expanded.head, expanded.weight)
        assert expanded.arc_count > 2 * g.arc_count
        assert peak < 2 * sum(len(column) * column.itemsize for column in columns)

    def test_candidate_offsets_computed_once(self, tmp_path, monkeypatch):
        # the loader derives them with the table; the expansion compares
        # topologies instead of deriving them again
        paths = perfbench_instance(tmp_path)
        g = load_dimacs_gr(paths["grid.gr"])
        calls = []
        offsets = turns_module._candidate_offsets
        monkeypatch.setattr(turns_module, "_candidate_offsets",
                            lambda graph: calls.append(graph) or offsets(graph))
        expand_turns(g, load_turn_table(paths["grid.turns"], g))
        assert len(calls) == 1

    def test_coordinates_of_another_graph_raise(self):
        # unchecked, the midpoint loop would index past the coordinates
        g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
        co = load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count)
        with pytest.raises(ConsistencyError) as info:
            expanded_coordinates(g, Coordinates(co.x[:10], co.y[:10]))
        assert str(info.value) == "coordinates cover 10 vertices, graph has 200"
        assert len(expanded_coordinates(g, co)) == g.arc_count

    def test_columns_are_arrays(self):
        g = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6), (2, 1, 6)])
        exp = expand_turns(g, TurnTable(g))
        for graph in (g, exp.graph):
            assert [graph.first_out.typecode, graph.head.typecode, graph.weight.typecode,
                    graph.tail.typecode] == ["i", "i", "I", "i"]
        assert exp.arc_of_vertex == range(g.arc_count)
        with pytest.raises(TypeError):
            TurnExpansion(exp.graph, range(g.arc_count))
        with pytest.raises(AttributeError):
            exp.arc_of_vertex = range(1)

    def test_table_round_trips_through_a_dict(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = InputGraph.from_arcs(n, [(rng.randrange(n), rng.randrange(n), rng.randint(0, 9))
                                         for _ in range(rng.randint(0, 3 * n))])
            turns = {(a, b): rng.choice((FORBIDDEN, 0, rng.randint(1, 9)))
                     for a in range(g.arc_count)
                     for b in range(g.first_out[g.head[a]], g.first_out[g.head[a] + 1])
                     if rng.random() < 0.5}
            table = TurnTable.from_dict(g, turns)
            assert len(table.first) == g.arc_count + 1 and len(table.cost) == table.first[-1]
            assert table.to_dict() == {pair: c for pair, c in turns.items() if c}
            assert TurnTable.from_dict(g, table.to_dict()) == table

    # the largest cost the column holds fails expansion, a larger one the conversion
    @pytest.mark.parametrize("cost, error", [(2**63 - 1, f"weight {2**63 + 3} outside"),
                                             (2**63, f"cost {2**63} outside")],
                             ids=["held", "past-the-column"])
    def test_cost_from_infinity_up_raises(self, cost, error):
        g = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6)])
        with pytest.raises(ConsistencyError, match=error):
            expand_turns(g, TurnTable.from_dict(g, {(g.arc_index(0, 1), g.arc_index(1, 2)): cost}))

    def test_table_of_another_graph_raises(self):
        path = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6)])
        both_ways = InputGraph.from_arcs(3, [(0, 1, 4), (1, 0, 4), (1, 2, 6)])
        cycle = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6), (2, 0, 5)])
        table = TurnTable(both_ways)
        for g in (path, cycle):  # fewer arcs; as many arcs and candidates, spread otherwise
            with pytest.raises(ConsistencyError, match="turn table does not fit the graph"):
                expand_turns(g, table)
        assert len(table.cost) == len(TurnTable(cycle).cost)
        short = TurnTable(both_ways)
        del short.cost[-1]
        with pytest.raises(ConsistencyError, match="turn table does not fit the graph"):
            expand_turns(both_ways, short)
        # the reverse cycle has the cycle's candidate offsets, but there
        # the entry that bans 0 -> 1 -> 2 would ban 0 -> 2 -> 1
        reverse = InputGraph.from_arcs(3, [(0, 2, 4), (2, 1, 6), (1, 0, 5)])
        banned = TurnTable.from_dict(cycle, {(cycle.arc_index(0, 1), cycle.arc_index(1, 2)): FORBIDDEN})
        assert banned.first == TurnTable(reverse).first
        with pytest.raises(ConsistencyError, match="turn table does not fit the graph"):
            expand_turns(reverse, banned)
        # a table fits every graph of its graph's topology, whatever its
        # weights and whether its columns are arrays or lists
        heavier = InputGraph.from_arcs(3, [(0, 1, 9), (1, 0, 9), (1, 2, 9)])
        as_lists = InputGraph(3, *map(list, (both_ways.first_out, both_ways.head,
                                             both_ways.weight)))
        for g in (heavier, as_lists):
            assert expand_turns(g, table).graph.head == expand_turns(both_ways, table).graph.head

    def test_metric_equivalence_random(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(3, 7)
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.45:
                        arcs.append((u, v, rng.randint(1, 20)))
            g = InputGraph.from_arcs(n, arcs)
            if g.arc_count < 2:
                continue
            turns = {}
            for a in range(g.arc_count):
                via = g.head[a]
                for b in range(g.first_out[via], g.first_out[via + 1]):
                    r = rng.random()
                    if r < 0.15:
                        turns[(a, b)] = FORBIDDEN
                    elif r < 0.4:
                        turns[(a, b)] = rng.randint(1, 10)
            exp = expand_turns(g, TurnTable.from_dict(g, turns))
            pairs = [(rng.randrange(g.arc_count), rng.randrange(g.arc_count))
                     for _ in range(8)]
            for a, b in pairs:
                got = dijkstra(exp.graph, a)[b]
                want = turn_respecting_distance(g, turns, a, b)
                assert got == want, (a, b, got, want)


class TestFromArcsOracle:
    """``from_arcs``, its derived ``tail`` and ``undirected_edges`` against
    the dict-, bisection- and set-based oracles, on every field including
    ``dropped_self_loops``."""

    @staticmethod
    def _check(n, arcs):
        got, want = InputGraph.from_arcs(n, arcs), oracles.from_arcs(n, arcs)
        assert got == want
        assert got.tail.typecode == "i" and got.tail == oracles.tails(want.first_out)
        assert got.undirected_edges() == oracles.undirected_edges(want)
        return got

    def test_shuffled_parallel_arcs_and_self_loops(self):
        rng = random.Random(5)
        shapes = {"parallel ties": 0, "parallel distinct": 0, "self-loops": 0}
        for case in range(600):
            n = case % 3 if case < 60 else rng.randint(2, 9)  # n = 0, 1 and 2 first
            arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 4))
                    for _ in range(rng.randint(0, 3 * n))]
            for t, h, w in rng.sample(arcs, len(arcs) // 2):
                arcs.append((t, h, w if rng.random() < 0.5 else rng.randint(0, 9)))
            rng.shuffle(arcs)
            g = self._check(n, arcs)
            weights = {}
            for t, h, w in arcs:
                weights.setdefault((t, h), []).append(w)
            runs = [ws for (t, h), ws in weights.items() if t != h and len(ws) > 1]
            shapes["parallel ties"] += any(len(set(ws)) < len(ws) for ws in runs)
            shapes["parallel distinct"] += any(len(set(ws)) > 1 for ws in runs)
            shapes["self-loops"] += g.dropped_self_loops > 0
        assert min(shapes.values()) >= 100, shapes

    @pytest.mark.parametrize("n, arcs", [
        (2, [(0, 1, 3), (0, 2, 0)]), (2, [(0, 1, 3), (1, 0, INFINITY)]), (2, [(0, 0, -1)]),
        (1, [(1, 1, 2), (0, 0, 1)]), (2, [(-1, 0, 1)]), (0, [(0, 0, 0)]),
    ], ids=["head-past-n", "weight-infinity", "self-loop-negative", "tail-past-n",
            "negative-tail", "no-vertices"])
    def test_invalid_arc_rejected_by_both(self, n, arcs):
        for build in (InputGraph.from_arcs, oracles.from_arcs):
            with pytest.raises(ConsistencyError):
                build(n, arcs)

    def test_reads_a_generator_and_lists_of_lists(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 6)
            arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 5))
                    for _ in range(rng.randint(0, 4 * n))]
            got = InputGraph.from_arcs(n, (arc for arc in arcs))
            assert got == InputGraph.from_arcs(n, map(list, arcs)) == oracles.from_arcs(n, arcs)

    @pytest.mark.parametrize("arcs", [
        [(1, 0, 1), (0, 1, 1)], [(0, 2, 1), (0, 1, 1)], [(0, 1, 5), (0, 1, 3)],
        [(0, 1, 5), (0, 0, 1), (0, 1, 3)], [(0, 1, 1), (0, 2, 1), (0, 1, 1)],
    ], ids=["tail", "head", "parallel-weight", "parallel-after-self-loop", "run-resumed"])
    def test_arcs_out_of_order(self, arcs):
        self._check(3, arcs)

    def test_expand_turns_on_random_turn_tables(self):
        rng = random.Random(8)
        for _ in range(80):
            n = rng.randint(1, 7)
            g = InputGraph.from_arcs(n, [(rng.randrange(n), rng.randrange(n), rng.randint(0, 9))
                                         for _ in range(rng.randint(0, 3 * n))])
            turns = {}
            for a in range(g.arc_count):
                via = g.head[a]
                for b in range(g.first_out[via], g.first_out[via + 1]):
                    r = rng.random()
                    if r < 0.2:
                        turns[(a, b)] = FORBIDDEN
                    elif r < 0.5:
                        turns[(a, b)] = rng.randint(0, 9)
            # every permitted turn (a, b) at head(a) == tail(b) is an arc
            arcs = [(a, b, g.weight[a] + turns.get((a, b), 0))
                    for a in range(g.arc_count) for b in range(g.arc_count)
                    if g.head[a] == g.tail[b] and turns.get((a, b), 0) != FORBIDDEN]
            rng.shuffle(arcs)
            assert expand_turns(g, TurnTable.from_dict(g, turns)).graph == self._check(g.arc_count, arcs)


class TestDerivedTail:
    """``tail`` is no constructor argument: every graph reads it off its own
    ``first_out``, so no tail column can disagree with the arc ranges."""

    def test_tail_is_not_a_parameter(self):
        g = InputGraph.from_arcs(3, [(0, 1, 5), (1, 2, 7)])
        for args, kwargs in [((g.first_out, g.head, g.weight, array("i", [2, 1])), {}),
                             ((g.first_out, g.head, g.weight), {"tail": array("i", [2, 1])}),
                             ((g.first_out, g.head, g.weight, 0), {}),
                             ((g.first_out, g.head, g.weight), {"_undirected": [[1], [0, 2], [1]]})]:
            with pytest.raises(TypeError):
                InputGraph(3, *args, **kwargs)
        # the columns alone answer as the graph does, through the hierarchy
        # and through Dijkstra
        again = InputGraph(3, g.first_out, g.head, g.weight)
        cch = build_cch(again, Coordinates(x=[0, 1, 2], y=[0, 0, 0]))
        c = customize(cch, list(again.weight))
        rank = cch.order.rank_of
        assert query(rank[0], rank[2], QueryState.for_vertex_count(3), c.graphs, cch.parent) \
            == dijkstra(again, 0)[2] == 12

    def test_tail_matches_the_oracle_on_every_builder(self, tmp_path):
        paths = perfbench_instance(tmp_path, side=12)
        road = load_dimacs_gr(paths["grid.gr"])
        graphs = [road, expand_turns(road, load_turn_table(paths["grid.turns"], road)).graph,
                  InputGraph(2, [0, 2, 3], [0, 1, 0], [3, 4, 5]),
                  InputGraph(2, array("i", [0, 2, 3]), array("i", [0, 1, 0]), array("I", [3, 4, 5])),
                  InputGraph(4, [0, 0, 2, 2, 3], [0, 3, 1], [1, 1, 1]),
                  InputGraph.from_arcs(0, [])]
        for g in graphs:
            assert g.tail.typecode == "i"
            assert g.tail == oracles.tails(g.first_out)

    def test_racing_first_reads_agree(self, tmp_path):
        # cached_property may let racing threads each build the column;
        # every reader must still get the graph's own tails
        paths = perfbench_instance(tmp_path, side=12)
        road = load_dimacs_gr(paths["grid.gr"])
        want = oracles.tails(road.first_out)
        got = []

        def read(g):
            got.append(g.tail == want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = InputGraph(road.vertex_count, road.first_out, road.head, road.weight)
                threads = [threading.Thread(target=read, args=(g,)) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == [True] * 120


class TestTurnTableFile:
    def test_parse_and_forbidden(self, tmp_path):
        g = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6)])
        path = tmp_path / "turns.txt"
        path.write_text("c comment\nt 1 2 3 x\n")
        table = load_turn_table(str(path), g)
        assert table.to_dict() == {(g.arc_index(0, 1), g.arc_index(1, 2)): FORBIDDEN}

    def test_nonexistent_arc(self, tmp_path):
        g = InputGraph.from_arcs(3, [(0, 1, 4), (1, 2, 6)])
        path = tmp_path / "turns.txt"
        path.write_text("t 2 1 2 5\n")
        with pytest.raises(ConsistencyError):
            load_turn_table(str(path), g)

    def test_turn_through_a_dropped_self_loop_is_skipped(self, tmp_path):
        # the .gr reader drops the self-loop 1 -> 1, as the metric reader does
        gr = write(tmp_path, "g.gr", "p sp 3 3\na 1 1 7\na 1 2 5\na 2 3 4\n")
        g = load_dimacs_gr(gr)
        assert load_metric(gr, g) == [5, 4]
        table = write(tmp_path, "t.txt", "t 1 1 2 3\nt 1 2 2 x\nt 1 2 3 9\n")
        assert load_turn_table(table, g).to_dict() == {(g.arc_index(0, 1), g.arc_index(1, 2)): 9}
        # its IDs and cost are still checked
        for line, error in [("t 1 1 4 3", "vertex ID out of"), ("t 1 1 2 -1", "turn cost -1"),
                            ("t 1 1 2 y", "cost must be")]:
            with pytest.raises((ConsistencyError, ParseError), match=error):
                load_turn_table(write(tmp_path, "bad.txt", line + "\n"), g)


class TestTurnTableOracle:
    """``load_turn_table`` against the dict loader of ``oracles.turn_table``
    on mutations of perfbench's turn file."""

    TOKENS = ("x", "-1", "0", str(2**40))
    # each mutation edits the line as the ones before it left it
    KINDS = ("self-loop", "no-arc", "replace", "drop", "repeat", "line")

    @staticmethod
    def _mutate(rng, lines, g):
        """One mutation of a random line, or half the time two on the same
        line, so that the order of the loader's checks shows."""
        lines = list(lines)
        i = rng.randrange(len(lines))
        original, parts = lines[i], lines[i].split()
        kinds = rng.sample(TestTurnTableOracle.KINDS, rng.choice((1, 2)))
        kinds.sort(key=TestTurnTableOracle.KINDS.index)
        for kind in kinds:
            if kind == "self-loop":
                j = rng.choice((1, 2))
                parts[j + 1] = parts[j]
            elif kind == "no-arc":
                via = int(parts[2]) - 1
                parts[3] = str(rng.choice([v + 1 for v in range(g.vertex_count)
                                           if v != via and g.arc_index(via, v) is None]))
            elif kind == "replace":
                parts[rng.randrange(5)] = rng.choice(TestTurnTableOracle.TOKENS)
            elif kind == "drop":
                del parts[rng.randrange(len(parts))]
            elif kind == "repeat":
                j = rng.randrange(len(parts))
                parts.insert(j, parts[j])
            lines[i] = " ".join(parts)
            if kind == "line":  # the line as it was, anywhere
                lines.insert(rng.randrange(len(lines) + 1), original)
        return kinds, lines

    def test_mutated_files_load_as_the_oracle(self, tmp_path):
        paths = perfbench_instance(tmp_path, side=20)
        g = load_dimacs_gr(paths["grid.gr"])
        with open(paths["grid.turns"], encoding="utf-8") as f:
            lines = f.read().splitlines()
        rng = random.Random(23)
        loaded, kinds, messages = 0, set(), set()
        for case in range(200):
            applied, mutated = self._mutate(rng, lines, g)
            kinds.update(applied)
            path = write(tmp_path, "mutated.turns", "\n".join(mutated) + "\n")
            try:
                want = oracles.turn_table(path, g)
            except (ParseError, ConsistencyError) as exc:
                with pytest.raises(type(exc)) as got:
                    load_turn_table(path, g)
                assert type(got.value) is type(exc) and str(got.value) == str(exc), (case, applied)
                messages.add(" ".join(str(exc).split(": ", 1)[1].split()[:2]))
                continue
            table = load_turn_table(path, g)
            assert table.to_dict() == {pair: c for pair, c in want.items() if c}, (case, applied)
            assert expand_turns(g, table) == expand_turns(g, TurnTable.from_dict(g, want)), (case, applied)
            loaded += 1
        # every mutation kind, every error but a non-integer cost, and loads
        assert len(kinds) == 6 and len(messages) == 7 and loaded >= 30, (kinds, messages, loaded)

    def test_table_keeps_about_its_columns(self, tmp_path):
        # The table is its two columns: a dict keyed by arc-pair tuples
        # keeps several times their bytes.
        paths = perfbench_instance(tmp_path)
        g = load_dimacs_gr(paths["grid.gr"])
        load_turn_table(paths["grid.turns"], g)  # the imports and caches of a first call
        kept = {}
        for name, load in (("columns", load_turn_table), ("dict", oracles.turn_table)):
            tracemalloc.start()
            try:
                table = load(paths["grid.turns"], g)
                kept[name] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            if name == "columns":
                columns = table.first.itemsize * len(table.first) + table.cost.itemsize * len(table.cost)
            del table
        assert kept["columns"] < 2 * columns < kept["dict"], (kept, columns)


class TestDijkstra:
    def test_single_vertex(self):
        g = InputGraph.from_arcs(1, [])
        assert dijkstra(g, 0) == [0]

    def test_diamond_against_path_enumeration(self):
        g = diamond()
        for s in range(4):
            dist = dijkstra(g, s)
            for t in range(4):
                assert dist[t] == enumerate_path_distance(g, s, t)
        assert dijkstra(g, 0)[3] == 2
        assert dijkstra(g, 0)[2] == 3  # via v and x, not the direct edge

    def test_disconnected_vertex(self):
        g = InputGraph.from_arcs(3, [(0, 1, 5)])
        assert dijkstra(g, 0)[2] == INFINITY

    def test_early_termination_matches(self):
        rng = random.Random(3)
        from helpers import random_connected_graph
        g, _ = random_connected_graph(rng, 40)
        full = dijkstra(g, 0)
        targets = [5, 17, 31]
        partial = dijkstra(g, 0, targets=set(targets))
        for t in targets:
            assert partial[t] == full[t]

    def test_random_small_against_enumeration(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(2, 6)
            arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 9))
                    for _ in range(rng.randint(1, 2 * n))]
            g = InputGraph.from_arcs(n, arcs)
            s = rng.randrange(n)
            dist = dijkstra(g, s)
            for t in range(n):
                assert dist[t] == enumerate_path_distance(g, s, t)
