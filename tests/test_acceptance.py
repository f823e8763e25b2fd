"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is property-based against independent oracles (Dijkstra, path
enumeration, the naive elimination game) at desk scale; run with -s to
see the per-criterion lines. The optional smoke test picks up a real
DIMACS instance from CCH_SMOKE_GR / CCH_SMOKE_CO when provided.
"""

from __future__ import annotations

import os
import random

import pytest

from cchroute import (Coordinates, INFINITY, InputGraph, QueryState,
                      RphastState, build_cch, build_elimination_tree, contract,
                      customize, dijkstra, knn_query, knn_select,
                      load_dimacs_co, load_dimacs_gr, nested_dissection_order,
                      permute_to_rank_ids, query, rphast_distance, rphast_source,
                      unpack_path, dfs_postorder_reorder)
from helpers import grid_graph, naive_elimination_arcs, random_connected_graph, random_order

SEED = 20240811


def pipeline(g, coords):
    cch = build_cch(g, coords)
    p = permute_to_rank_ids(g, cch.order)
    return cch, p


def path_weight_or_fail(p, path):
    total = 0
    for a, b in zip(path, path[1:]):
        idx = p.arc_index(a, b)
        assert idx is not None, f"unpacked step ({a}, {b}) is not an input arc"
        total += p.weight[idx]
    return total


def test_point_to_point_oracle_equivalence_with_unpacking():
    """Oracle equivalence (point-to-point) + path unpacking criteria."""
    rng = random.Random(SEED)
    sizes = ([rng.randint(10, 60) for _ in range(35)]
             + [rng.randint(61, 150) for _ in range(10)]
             + [rng.randint(151, 300) for _ in range(5)])
    instances = [random_connected_graph(rng, n) for n in sizes]
    grid_dims = [(4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9),
                 (10, 10), (11, 11), (12, 12), (5, 12)]
    instances += [grid_graph(rng, r, c, one_way=0.2) for r, c in grid_dims]

    pairs_checked = 0
    paths_checked = 0
    for g, coords in instances:
        n = g.vertex_count
        cch, p = pipeline(g, coords)
        parent = cch.parent
        state = QueryState.for_vertex_count(n)
        budget = min(n * n, 10_000)
        source_count = min(n, -(-budget // n))
        sources = rng.sample(range(n), source_count)
        for use_perfect in (False, True):
            c = customize(cch, list(g.weight), use_perfect=use_perfect)
            graphs = c.graphs
            for s in sources:
                dist = dijkstra(p, s)
                for t in range(n):
                    got = query(s, t, state, graphs, parent)
                    assert got == dist[t], (n, s, t, use_perfect)
                    pairs_checked += 1
                    if got != INFINITY:
                        path = unpack_path(state, graphs)
                        assert path[0] == s and path[-1] == t
                        assert path_weight_or_fail(p, path) == got
                        paths_checked += 1
    assert len(instances) >= 60
    print(f"\nPASS point-to-point oracle equivalence: {len(instances)} instances, "
          f"{pairs_checked} pair distances exact in both modes")
    print(f"PASS path unpacking: {paths_checked} finite paths are valid walks "
          f"with matching length")


def test_observation_suite_after_basic():
    """Lower triangle inequality, distance bounds, respecting bounds."""
    from oracles import basic_sweep, respect

    rng = random.Random(SEED + 1)
    triangles = 0
    arcs_checked = 0
    for _ in range(6):
        g, coords = random_connected_graph(rng, rng.randint(30, 150))
        cch, p = pipeline(g, coords)
        ug = cch.ug
        m = basic_sweep(respect(ug, list(g.weight)), ug)
        dist_from = [dijkstra(p, u) for u in range(ug.vertex_count)]
        for u in range(ug.vertex_count):
            lo, hi = ug.first_arc[u], ug.first_arc[u + 1]
            for ei in range(lo, hi):
                for ej in range(ei + 1, hi):
                    vw = ug.arc_index(ug.head[ei], ug.head[ej])
                    assert m.l_up[vw] <= m.l_down[ei] + m.l_up[ej]
                    assert m.l_down[vw] <= m.l_up[ei] + m.l_down[ej]
                    triangles += 1
        for i in range(ug.arc_count):
            u, v = ug.tail[i], ug.head[i]
            assert m.l_up[i] >= dist_from[u][v]
            assert m.l_down[i] >= dist_from[v][u]
            if ug.orig_up[i] != -1:
                assert m.l_up[i] <= g.weight[ug.orig_up[i]]
            if ug.orig_down[i] != -1:
                assert m.l_down[i] <= g.weight[ug.orig_down[i]]
            arcs_checked += 1
    print(f"\nPASS lower-triangle suite: {triangles} triangles, "
          f"{arcs_checked} arcs bounded by oracle distances")


def test_perfect_fixed_point():
    """Every surviving weight equals the oracle; a second pass is a no-op."""
    from oracles import basic_sweep, perfect, respect

    rng = random.Random(SEED + 2)
    arcs_checked = 0
    for _ in range(6):
        g, coords = random_connected_graph(rng, rng.randint(20, 120))
        cch, p = pipeline(g, coords)
        ug = cch.ug
        m = perfect(basic_sweep(respect(ug, list(g.weight)), ug), ug)
        dist_from = [dijkstra(p, u) for u in range(ug.vertex_count)]
        for i in range(ug.arc_count):
            u, v = ug.tail[i], ug.head[i]
            assert m.l_up[i] == dist_from[u][v]
            assert m.l_down[i] == dist_from[v][u]
            arcs_checked += 1
        snapshot = (list(m.l_up), list(m.l_down),
                    bytes(m.delete_up), bytes(m.delete_down))
        perfect(m, ug)
        assert snapshot == (m.l_up, m.l_down, bytes(m.delete_up), bytes(m.delete_down))
    print(f"\nPASS perfect fixed point: {arcs_checked} arc weights equal oracle "
          f"distances; second pass changed nothing")


def test_contraction_matches_elimination_game():
    """Chordal completion equals the naive elimination game."""
    rng = random.Random(SEED + 3)
    checked = 0
    for _ in range(110):
        n = rng.randint(2, 50)
        edges = set()
        for _ in range(rng.randint(n - 1, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        arcs = [(a, b, 1) for a, b in edges]
        g = InputGraph.from_arcs(n, arcs)
        p = permute_to_rank_ids(g, random_order(rng, n))
        ug = contract(p)
        assert set(zip(ug.tail, ug.head)) == naive_elimination_arcs(n, p.undirected_edges())
        checked += 1
    print(f"\nPASS contraction oracle: {checked} random (graph, order) pairs match "
          f"the elimination game")


def test_separator_reconstruction():
    """Reconstructed top separators disconnect their cells and stay within
    the recorded dissection separator."""
    rng = random.Random(SEED + 4)
    instances = [random_connected_graph(rng, rng.randint(30, 150)) for _ in range(8)]
    instances += [grid_graph(rng, 7, 9), grid_graph(rng, 10, 10)]
    split_instances = 0
    for g, coords in instances:
        cch, _ = pipeline(g, coords)
        top = cch.decomposition
        order = cch.order
        assert top.children, "test instances must split at the top level"
        split_instances += 1
        sep = {order.vertex_at[r] for r in range(top.sep_lo, top.cell_hi)}
        label = {}
        for i, child in enumerate(top.children):
            for r in range(child.cell_lo, child.cell_hi):
                label[order.vertex_at[r]] = i
        adj = g.undirected_adjacency()
        for v, lab in label.items():
            for w in adj[v]:
                if w not in sep:
                    assert label[w] == lab, "top separator fails to disconnect cells"
        recorded = cch.initial_order.decomposition
        recorded_sep = {cch.initial_order.vertex_at[r]
                        for r in range(recorded.sep_lo, recorded.cell_hi)}
        assert sep <= recorded_sep
    print(f"\nPASS separator reconstruction: {split_instances} instances; top "
          f"separators disconnect cells and are subsets of the recorded ones")


def test_dfs_postorder_preserves_structure():
    """Re-contraction under the improved order is an isomorphic relabeling."""
    rng = random.Random(SEED + 5)
    for _ in range(20):
        g, coords = random_connected_graph(rng, rng.randint(15, 120))
        order = nested_dissection_order(g, coords)
        ug1 = contract(permute_to_rank_ids(g, order))
        tree1 = build_elimination_tree(ug1)
        improved = dfs_postorder_reorder(order, tree1)
        ug2 = contract(permute_to_rank_ids(g, improved))
        tree2 = build_elimination_tree(ug2)
        assert ug1.arc_count == ug2.arc_count
        pi = [improved.rank_of[order.vertex_at[r]] for r in range(g.vertex_count)]
        assert {(pi[ug1.tail[i]], pi[ug1.head[i]]) for i in range(ug1.arc_count)} \
            == set(zip(ug2.tail, ug2.head))
        for r in range(g.vertex_count):
            p1 = tree1[r]
            assert tree2[pi[r]] == (-1 if p1 == -1 else pi[p1])
    print("\nPASS DFS post-order preservation: 20 instances re-contract to "
          "isomorphic hierarchies with identical shortcut counts")


def test_parallel_determinism():
    """Thread counts 1, 2, 4, 8 produce bitwise-identical customizations."""
    rng = random.Random(SEED + 6)
    instances = [grid_graph(rng, 16, 16, one_way=0.2),
                 random_connected_graph(rng, 250)]
    for g, coords in instances:
        cch, _ = pipeline(g, coords)
        runs = [customize(cch, list(g.weight), use_perfect=True, threads=t)
                for t in (1, 2, 4, 8)]
        base = runs[0]
        for c in runs[1:]:
            assert c.metric.l_up == base.metric.l_up
            assert c.metric.l_down == base.metric.l_down
            assert c.metric.up_a == base.metric.up_a
            assert c.metric.up_b == base.metric.up_b
            assert c.metric.down_a == base.metric.down_a
            assert c.metric.down_b == base.metric.down_b
            assert bytes(c.metric.delete_up) == bytes(base.metric.delete_up)
            assert bytes(c.metric.delete_down) == bytes(base.metric.delete_down)
            for side in ("forward", "backward"):
                sg = getattr(c.graphs, side)
                bg = getattr(base.graphs, side)
                assert (sg.adj, sg.arc_count) == (bg.adj, bg.arc_count)
    print("\nPASS parallel determinism: threads 1/2/4/8 bitwise-identical on "
          f"{len(instances)} instances (weights, witnesses, flags, reduced graphs)")


def test_lazy_rphast_one_to_many():
    """100 sources per graph reproduce Dijkstra one-to-all; re-queries free."""
    rng = random.Random(SEED + 7)
    instances = [random_connected_graph(rng, 80),
                 random_connected_graph(rng, 150),
                 grid_graph(rng, 10, 10, one_way=0.2)]
    sources_run = 0
    for g, coords in instances:
        n = g.vertex_count
        cch, p = pipeline(g, coords)
        c = customize(cch, list(g.weight))
        st = RphastState(c.graphs, cch.parent)
        for _ in range(100):
            s = rng.randrange(n)
            rphast_source(s, st)
            dist = dijkstra(p, s)
            for t in range(n):
                assert rphast_distance(t, st) == dist[t]
            before = st.relaxations
            for t in range(n):
                assert rphast_distance(t, st) == dist[t]
            assert st.relaxations == before, "re-queries must not relax arcs"
            sources_run += 1
    print(f"\nPASS lazy rphast: {sources_run} sources reproduce one-to-all "
          f"vectors; re-queries perform zero relaxations")


def test_knn_against_brute_force():
    """Separator-based k-NN equals brute force for k in {1, 4, 8}."""
    rng = random.Random(SEED + 8)
    instances = []
    for _ in range(4):
        instances.append(random_connected_graph(rng, rng.randint(40, 140)))
    instances.append(grid_graph(rng, 9, 9, one_way=0.25))
    # plus one disconnected instance so unreachable targets are exercised
    ga, ca = random_connected_graph(rng, 30)
    gb, cb = random_connected_graph(rng, 20)
    arcs = list(zip(ga.tail, ga.head, ga.weight))
    arcs += [(t + 30, h + 30, w) for t, h, w in zip(gb.tail, gb.head, gb.weight)]
    merged = InputGraph.from_arcs(50, arcs)
    merged_coords = Coordinates(x=ca.x + [x + 90000 for x in cb.x], y=ca.y + cb.y)
    instances.append((merged, merged_coords))

    combos = 0
    for g, coords in instances:
        n = g.vertex_count
        cch, p = pipeline(g, coords)
        c = customize(cch, list(g.weight))
        st = RphastState(c.graphs, cch.parent)
        for _ in range(90):
            size = rng.choice([2, 3, 6, 12, min(20, n)])
            targets = rng.sample(range(n), size)
            poi = knn_select(targets, n)
            s = rng.randrange(n)
            rphast_source(s, st)
            dist = dijkstra(p, s)
            ranked = sorted((dist[t], t) for t in poi.targets if dist[t] != INFINITY)
            for k in (1, 4, 8):
                want = [(t, d) for d, t in ranked[:k]]
                got = knn_query(s, k, poi, cch.decomposition, st)
                assert got == want, (s, k, targets)
            combos += 1
    assert combos >= 500
    print(f"\nPASS k-NN: {combos} (source, target-set) combinations match brute "
          f"force for k in {{1, 4, 8}}, including short and unreachable target sets")


def test_relaxed_arcs_drop_after_perfect():
    """Perfect customization reduces query work on a 100x100 grid."""
    rng = random.Random(SEED + 9)
    g, coords = grid_graph(rng, 100, 100)
    n = g.vertex_count
    cch, p = pipeline(g, coords)
    parent = cch.parent
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    means = {}
    for use_perfect in (False, True):
        c = customize(cch, list(g.weight), use_perfect=use_perfect, threads=2)
        state = QueryState.for_vertex_count(n)
        results = []
        for s, t in pairs:
            results.append(query(s, t, state, c.graphs, parent))
        means[use_perfect] = state.relaxed / len(pairs)
        if use_perfect:
            assert results == baseline_results
        else:
            baseline_results = results
    ratio = means[True] / means[False]
    assert ratio < 1.0
    print(f"\nPASS query-work trend: mean relaxed arcs per query "
          f"{means[False]:.1f} (basic) -> {means[True]:.1f} (perfect), "
          f"ratio {ratio:.3f} < 1.0")


@pytest.mark.skipif("CCH_SMOKE_GR" not in os.environ or "CCH_SMOKE_CO" not in os.environ,
                    reason="set CCH_SMOKE_GR and CCH_SMOKE_CO to run the smoke test")
def test_optional_dimacs_smoke():
    """Full pipeline on a user-supplied DIMACS instance; 1000 query oracle."""
    g = load_dimacs_gr(os.environ["CCH_SMOKE_GR"])
    coords = load_dimacs_co(os.environ["CCH_SMOKE_CO"], g.vertex_count)
    cch, p = pipeline(g, coords)
    c = customize(cch, list(g.weight), threads=os.cpu_count() or 1)
    rng = random.Random(SEED)
    state = QueryState.for_vertex_count(g.vertex_count)
    n = g.vertex_count
    sources = [rng.randrange(n) for _ in range(10)]
    for s in sources:
        dist = dijkstra(p, s)
        for _ in range(100):
            t = rng.randrange(n)
            assert query(s, t, state, c.graphs, cch.parent) == dist[t]
    print(f"\nPASS smoke: {n} vertices, 1000 random queries match Dijkstra")
