"""Command-line interface: pipelines, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from cchroute import (INFINITY, ConsistencyError, FormatError, InputGraph, dijkstra, load_cch,
                      load_customized, load_dimacs_gr, reconstruct_separator_decomposition)
from cchroute import cli
from cchroute.cli import EXIT_CODES, main
from cchroute.formats import MAX_VERTICES
from helpers import (SAMPLE, ArtifactEditor, diamond, grid_graph, head_moves, search_arcs,
                     swappable_heads)


def write_instance(tmp_path, g, coords, prefix="g"):
    gr = tmp_path / f"{prefix}.gr"
    with open(gr, "w") as f:
        f.write(f"p sp {g.vertex_count} {g.arc_count}\n")
        for i in range(g.arc_count):
            f.write(f"a {g.tail[i] + 1} {g.head[i] + 1} {g.weight[i]}\n")
    co = tmp_path / f"{prefix}.co"
    with open(co, "w") as f:
        for v in range(g.vertex_count):
            f.write(f"v {v + 1} {coords.x[v]} {coords.y[v]}\n")
    return str(gr), str(co)


@pytest.fixture(scope="module")
def sample_artifacts(tmp_path_factory):
    """Paths of sample/grid.gr, grid.co and their CCHP and perfect CCHM."""
    d = tmp_path_factory.mktemp("sample")
    gr, co = str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co")
    cchp, cchm = d / "s.cchp", d / "s.cchm"
    assert main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)]) == 0
    assert main(["customize", "--graph", gr, "--cch", str(cchp), "--out", str(cchm)]) == 0
    return gr, co, cchp, cchm


def diamond_files(tmp_path):
    from cchroute import Coordinates
    g = diamond()
    coords = Coordinates(x=[0, 0, 20, 20], y=[0, 10, 0, 10])
    return g, write_instance(tmp_path, g, coords, "diamond")


class TestPreprocessCmd:
    def test_artifact_passes_structural_invariants(self, tmp_path, capsys):
        rng = random.Random(211)
        g, coords = grid_graph(rng, 5, 6)
        gr, co = write_instance(tmp_path, g, coords)
        out = tmp_path / "x.cchp"
        assert main(["preprocess", "--graph", gr, "--coords", co, "--out", str(out)]) == 0
        cch = load_cch(str(out))
        ug = cch.ug
        for u in range(ug.vertex_count):
            heads = list(ug.head[ug.first_arc[u]:ug.first_arc[u + 1]])
            assert heads == sorted(set(heads))
            for i, a in enumerate(heads):
                for b in heads[i + 1:]:
                    assert ug.arc_index(a, b) is not None
        for u, p in enumerate(cch.parent):
            assert p == -1 or p > u

    def test_identity_order_honored(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        order_file = tmp_path / "order.txt"
        order_file.write_text("0\n1\n2\n3\n")
        out = tmp_path / "d.cchp"
        assert main(["preprocess", "--graph", gr, "--order", str(order_file),
                     "--out", str(out)]) == 0
        cch = load_cch(str(out))
        # identity order is already a DFS post-order of the diamond's tree
        assert cch.order.vertex_at == [0, 1, 2, 3]
        assert list(cch.parent) == [1, 2, 3, -1]

    def test_non_integer_order_line_exits_2(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        order_file = tmp_path / "order.txt"
        order_file.write_text("0\n1\ntwo\n3\n")
        assert main(["preprocess", "--graph", gr, "--order", str(order_file),
                     "--out", str(tmp_path / "d.cchp")]) == 2

    def test_missing_file_exits_5(self, tmp_path, capsys):
        assert main(["preprocess", "--graph", str(tmp_path / "no.gr"),
                     "--coords", str(tmp_path / "no.co"),
                     "--out", str(tmp_path / "o")]) == 5

    def test_missing_coords_and_order_exits_3(self, tmp_path, capsys):
        g, (gr, _) = diamond_files(tmp_path)
        assert main(["preprocess", "--graph", gr, "--out", str(tmp_path / "o")]) == 3
        assert "preprocess needs --coords (to compute an order) or --order" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("flag, text", [("--coords", "p aux sp co 0\n"), ("--order", "")],
                             ids=["computed-order", "imported-order"])
    def test_empty_graph_exits_3(self, tmp_path, capsys, flag, text):
        gr, source = tmp_path / "e.gr", tmp_path / "e.in"
        gr.write_text("p sp 0 0\n")
        source.write_text(text)
        assert main(["preprocess", "--graph", str(gr), flag, str(source),
                     "--out", str(tmp_path / "e.cchp")]) == 3
        assert "empty elimination tree" in capsys.readouterr().err

    def test_vertex_count_above_the_ceiling_exits_3(self, tmp_path):
        # The problem line is checked before anything is allocated. Under a
        # 1 GiB address-space limit, 10**9 declared vertices used to end in
        # a MemoryError traceback (exit 1).
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from cchroute.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        gr = tmp_path / "big.gr"
        for n in (10**9, MAX_VERTICES + 1):
            gr.write_text(f"p sp {n} 1\na 1 2 5\n")
            out = subprocess.run(
                [sys.executable, "-c", script, "preprocess", "--graph", str(gr),
                 "--order", os.devnull, "--out", str(tmp_path / "big.cchp")],
                capture_output=True, text=True, env={"PYTHONPATH": ":".join(sys.path)})
            assert (out.returncode, out.stderr) == (
                3, f"error: line 1: {n} vertices declared, more than the 33554432 admitted\n")

    def test_many_isolated_vertices_load(self, tmp_path):
        gr = tmp_path / "sparse.gr"
        gr.write_text("p sp 1000000 2\na 1 1000000 5\na 1000000 1 5\n")
        g = load_dimacs_gr(str(gr))
        assert (g.vertex_count, g.arc_count) == (10**6, 2)

    def test_decomposition_dump(self, tmp_path, capsys):
        rng = random.Random(223)
        g, coords = grid_graph(rng, 4, 5)
        gr, co = write_instance(tmp_path, g, coords)
        assert main(["preprocess", "--graph", gr, "--coords", co,
                     "--out", str(tmp_path / "o.cchp"), "--dump-decomposition"]) == 0
        out = capsys.readouterr().out
        assert "cell [0, 20)" in out


class TestCustomizeCmd:
    def test_thread_counts_and_reruns_byte_identical(self, tmp_path, capsys):
        rng = random.Random(227)
        g, coords = grid_graph(rng, 6, 6)
        gr, co = write_instance(tmp_path, g, coords)
        cchp = tmp_path / "g.cchp"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        outs = []
        for name, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            out = tmp_path / f"{name}.cchm"
            assert main(["customize", "--graph", gr, "--cch", str(cchp),
                         "--out", str(out), "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_no_perfect_marks_mode(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchp, cchm = tmp_path / "d.cchp", tmp_path / "d.cchm"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(cchm), "--no-perfect"]) == 0
        c = load_customized(str(cchm))
        assert c.perfect is False
        ug = c.cch.ug
        everything = list(zip(ug.tail, ug.head))
        for graph in (c.graphs.forward, c.graphs.backward):
            assert [(u, v) for u, v, _ in search_arcs(graph)] == everything
            assert graph.arc_count == ug.arc_count

    def test_weight_graph_mismatch_exits_3(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchp = tmp_path / "d.cchp"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        rng = random.Random(229)
        g2, coords2 = grid_graph(rng, 3, 3)
        gr2, _ = write_instance(tmp_path, g2, coords2, "other")
        assert main(["customize", "--graph", gr2, "--cch", str(cchp),
                     "--out", str(tmp_path / "x.cchm")]) == 3

    def test_graph_with_a_self_loop_is_its_own_metric_file(self, tmp_path, capsys):
        # load_dimacs_gr drops the self-loop line, and load_metric skips it
        # once its IDs and weight are checked.
        gr, order, cchp = tmp_path / "loop.gr", tmp_path / "loop.order", tmp_path / "loop.cchp"
        gr.write_text("p sp 3 4\na 1 2 5\na 2 3 6\na 1 1 7\na 3 1 2\n")
        order.write_text("0\n1\n2\n")
        assert main(["preprocess", "--graph", str(gr), "--order", str(order),
                     "--out", str(cchp)]) == 0
        outs = []
        for extra in ((), ("--weights", str(gr))):
            out = tmp_path / f"loop{len(outs)}.cchm"
            assert main(["customize", "--graph", str(gr), "--cch", str(cchp),
                         "--out", str(out), *extra]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        metric = tmp_path / "loop.metric"
        metric.write_text(f"a 1 1 {INFINITY}\n")
        capsys.readouterr()
        assert main(["customize", "--graph", str(gr), "--cch", str(cchp), "--weights", str(metric),
                     "--out", str(tmp_path / "x.cchm")]) == 3
        assert "line 1: weight" in capsys.readouterr().err

    def test_graph_with_a_repointed_arc_exits_3(self, tmp_path, capsys, sample_artifacts):
        # Same vertex and arc counts, one arc's head moved: the hierarchy's
        # graph fingerprint no longer matches.
        gr, _, cchp, _ = sample_artifacts
        lines = open(gr).read().splitlines()
        arcs = {tuple(line.split()[1:3]) for line in lines if line.startswith("a ")}
        i = next(i for i, line in enumerate(lines) if line.startswith("a "))
        _, t, h, w = lines[i].split()
        h2 = next(str(v) for v in range(1, 201) if str(v) != t and (t, str(v)) not in arcs)
        lines[i] = f"a {t} {h2} {w}"
        other = tmp_path / "repointed.gr"
        other.write_text("\n".join(lines) + "\n")
        assert main(["customize", "--graph", str(other), "--cch", str(cchp),
                     "--out", str(tmp_path / "x.cchm")]) == 3
        assert "different graph" in capsys.readouterr().err

    @pytest.mark.parametrize("index", [0, 1], ids=["orig_up", "orig_down"])
    def test_input_arc_id_out_of_range_exits_3(self, tmp_path, capsys, index):
        gr, co = str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co")
        cchp = tmp_path / "s.cchp"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        edit = ArtifactEditor(cchp.read_bytes(), load_cch(str(cchp)))
        edit.put(["orig_up", "orig_down"][index], 0, 1_000_000)
        cchp.write_bytes(edit.sealed())
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")]) == 3
        assert "input arc ID" in capsys.readouterr().err

    # The CCHP columns the values land in. Tails and parents are derived at
    # load: their cases hit what they come from, the last arc range bound
    # and the middle vertex's first head.
    CCHP_COLUMNS = ["first_arc", "head", "tail", "parent", "vertex_at", "orig_up", "orig_down"]

    @pytest.mark.parametrize("value", [0x80000000, 0xFFFFFFFE, 0x7FFFFFFF])
    @pytest.mark.parametrize("column", CCHP_COLUMNS)
    def test_large_column_value_rejected(self, tmp_path, capsys, sample_artifacts,
                                         column, value):
        # Signed columns read a value of 2**31 or more as negative; no such
        # value may slip through as an index, whichever column holds it.
        gr, _, clean, _ = sample_artifacts
        cch = load_cch(str(clean))
        n, m = cch.ug.vertex_count, cch.ug.arc_count
        column, index = {"first_arc": ("first_arc", (n + 1) // 2), "head": ("head", m // 2),
                         "tail": ("first_arc", n), "parent": ("head", cch.ug.first_arc[n // 2]),
                         "vertex_at": ("vertex_at", n // 2), "orig_up": ("orig_up", m // 2),
                         "orig_down": ("orig_down", m // 2)}[column]
        edit = ArtifactEditor(clean.read_bytes(), cch)
        edit.put(column, index, value)
        cchp = tmp_path / "s.cchp"
        cchp.write_bytes(edit.sealed())
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")]) in (2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("pick", [
        lambda root, leaf: root.sep_lo - 1,
        lambda root, leaf: root.children[0].cell_lo,
        lambda root, leaf: leaf.sep_lo,
    ], ids=["root-cell-hi", "child-cell-lo", "leaf-sep-lo"])
    def test_decomposition_not_tiling_ranks_exits_3(self, tmp_path, capsys, sample_artifacts,
                                                    pick):
        # The separator decomposition is derived from the elimination tree,
        # whose parents are the vertices' first heads. Each case re-hangs a
        # vertex at a cell bound (the top of the root's cells, the bottom of
        # its first child cell, the bottom of the last leaf's separator)
        # under a higher vertex: every arc stays upward, but the derived
        # cells no longer tile the ranks.
        gr, _, clean, _ = sample_artifacts
        cch = load_cch(str(clean))
        nodes = list(cch.decomposition.preorder())
        u = pick(nodes[0], nodes[-1])

        def rejected(w):
            parent = list(cch.parent)
            parent[u] = w
            try:
                reconstruct_separator_decomposition(parent)
            except ConsistencyError:
                return True
            return False

        w = next(filter(rejected, range(u + 1, cch.ug.vertex_count)))
        edit = ArtifactEditor(clean.read_bytes(), cch)
        edit.put("head", cch.ug.first_arc[u], w)
        cchp = tmp_path / "s.cchp"
        cchp.write_bytes(edit.sealed())
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")]) == 3
        assert "rank ranges not contiguous" in capsys.readouterr().err

    # The ids name the vertices of the edits that these tests once made at
    # fixed positions of the sample hierarchy; each edit is now derived
    # from the hierarchy, so it holds under any order.
    @pytest.mark.parametrize("pick", [0, -1], ids=["vertex-4", "vertex-32"])
    def test_heads_swapped_with_their_arcs_exits_3(self, tmp_path, capsys, sample_artifacts,
                                                   pick):
        # Two later heads of one vertex change places with their input arc
        # IDs, so the elimination tree and every arc's input arc hold: the
        # first and the last such swap of the hierarchy.
        gr, _, clean, _ = sample_artifacts
        cch = load_cch(str(clean))
        i, j = swappable_heads(cch.ug)[pick]
        edit = ArtifactEditor(clean.read_bytes(), cch)
        for column in ("head", "orig_up", "orig_down"):
            edit.swap(column, i, j)
        cchp = tmp_path / "s.cchp"
        cchp.write_bytes(edit.sealed())
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")]) == 3
        err = capsys.readouterr().err
        assert "not strictly ascending" in err and "Traceback" not in err

    @staticmethod
    def _customize_moved_head(tmp_path, sample_artifacts, chordal, pick):
        """Exit code of ``customize`` on the sample CCHP with one later head
        of a vertex moved between its neighbours, so that the tree and the
        ascent of the heads hold: entry ``pick`` of the hierarchy's
        ``head_moves`` that keep it chordal, or of those that do not."""
        gr, _, clean, _ = sample_artifacts
        cch = load_cch(str(clean))
        ug = cch.ug
        i, v = [(i, v) for i, v, stays in head_moves(ug) if stays == chordal][pick]
        assert ug.first_arc[ug.tail[i]] < i and ug.tail[i + 1] == ug.tail[i]
        assert ug.head[i - 1] < v < ug.head[i + 1] and v != ug.head[i]
        edit = ArtifactEditor(clean.read_bytes(), cch)
        edit.put("head", i, v)
        cchp = tmp_path / "s.cchp"
        cchp.write_bytes(edit.sealed())
        return main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")])

    def test_non_chordal_hierarchy_exits_3(self, tmp_path, capsys, sample_artifacts):
        # The first head move that leaves a triangle without its third arc.
        # cmd_customize runs Cch.check_graph before it customizes, so the
        # compare rejects the move first; the chordality raise is reachable
        # only through the library, where test_customize.py's
        # test_non_chordal_hierarchy_rejected pins it.
        assert self._customize_moved_head(tmp_path, sample_artifacts, False, 0) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "not the contraction" in err

    # The first and the last head move to another vertex of the clique
    # above its tail: the hierarchy stays chordal and customizes, and the
    # moved arc carries its input arc to the wrong vertex.
    @pytest.mark.parametrize("pick", [-1, 0], ids=["vertex-166", "vertex-160"])
    def test_head_moved_inside_a_clique_exits_3(self, tmp_path, capsys, sample_artifacts, pick):
        assert self._customize_moved_head(tmp_path, sample_artifacts, True, pick) == 3
        err = capsys.readouterr().err
        assert "not the contraction" in err and "Traceback" not in err

    def test_json_timings(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchp = tmp_path / "d.cchp"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        capsys.readouterr()
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "d.cchm"), "--json"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        payload = json.loads(line)
        assert payload["kind"] == "customize"
        assert set(payload["seconds"]) == {"respect", "basic", "perfect", "construct", "total"}


class TestQueryCmd:
    def _pipeline(self, tmp_path, gr, co, extra=()):
        cchp, cchm = tmp_path / "q.cchp", tmp_path / "q.cchm"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        main(["customize", "--graph", gr, "--cch", str(cchp), "--out", str(cchm), *extra])
        return cchm

    def test_diamond_all_pairs_match_oracle(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        for extra in ((), ("--no-perfect",)):
            cchm = self._pipeline(tmp_path, gr, co, extra)
            pairs = tmp_path / "pairs.txt"
            pairs.write_text("".join(f"{s} {t}\n" for s in range(4) for t in range(4)))
            capsys.readouterr()
            assert main(["query", "--customized", str(cchm), "--pairs", str(pairs)]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 16
            for line in lines:
                s, t, d = line.split("\t")
                want = dijkstra(g, int(s))[int(t)]
                got = INFINITY if d == "inf" else int(d)
                assert got == want

    def test_paths_are_original_id_walks(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchm = self._pipeline(tmp_path, gr, co)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 3\n")
        capsys.readouterr()
        main(["query", "--customized", str(cchm), "--pairs", str(pairs), "--paths"])
        line = capsys.readouterr().out.strip()
        s, t, d, path = line.split("\t")
        assert path.split() == ["0", "1", "3"] and d == "2"

    @pytest.mark.parametrize("extra, cchm_digest", [
        ((), "766a9d25b81c9653aa61228e24b7392560ed39cdcadcb059baa20339332fb1f2"),
        (("--no-perfect",), "b960bada0063d831cbf6bae3668110e0900ddafc23dbc4c9114395f0588548d5"),
    ], ids=["perfect", "no-perfect"])
    def test_sample_paths_pinned(self, tmp_path, capsys, extra, cchm_digest):
        # Digests of sample/grid.gr's CCHM and of `query --paths` on 300
        # seeded pairs. How search graphs are built and paths unpacked may
        # change; these outputs may not. The CCHM digests were recorded
        # anew when the ordering moved to vertex cuts, which changes the
        # order it stores; the answers kept their digest.
        cchm = self._pipeline(tmp_path, str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co"), extra)
        rng = random.Random(7)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("".join(f"{rng.randrange(200)} {rng.randrange(200)}\n" for _ in range(300)))
        capsys.readouterr()
        assert main(["query", "--customized", str(cchm), "--pairs", str(pairs), "--paths"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(cchm.read_bytes()).hexdigest() == cchm_digest
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7e8965ef87281b383c50cedc35959227b506544ce8993765f323414850548e9f")

    def test_malformed_batch_exits_2(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchm = self._pipeline(tmp_path, gr, co)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0\n")
        assert main(["query", "--customized", str(cchm), "--pairs", str(pairs)]) == 2

    def test_perfect_flag_not_0_or_1_exits_2(self, tmp_path, capsys, sample_artifacts):
        cchm = tmp_path / "s.cchm"
        data = bytearray(sample_artifacts[3].read_bytes())
        data[5] = 7  # after magic and version
        cchm.write_bytes(ArtifactEditor(data, load_cch(str(sample_artifacts[2])), cchm=True).sealed())
        assert main(["query", "--customized", str(cchm),
                     "--pairs", str(SAMPLE / "queries.txt")]) == 2
        assert "perfect flag" in capsys.readouterr().err

    def test_flipped_weight_bit_exits_2(self, tmp_path, capsys, sample_artifacts):
        # No structural check can tell a wrong weight from a right one; the
        # CRC32 trailer does.
        clean = sample_artifacts[3]
        edit = ArtifactEditor(clean.read_bytes(), load_customized(str(clean)).cch, cchm=True)
        edit.data[edit.at("l_up", 0)] ^= 1
        cchm = tmp_path / "s.cchm"
        cchm.write_bytes(bytes(edit.data))
        assert main(["query", "--customized", str(cchm),
                     "--pairs", str(SAMPLE / "queries.txt")]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_out_of_range_vertex_exits_3(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchm = self._pipeline(tmp_path, gr, co)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 9\n")
        assert main(["query", "--customized", str(cchm), "--pairs", str(pairs)]) == 3


    def test_out_of_range_pair_rejected_before_any_line(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchm = self._pipeline(tmp_path, gr, co)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n\n2 4\n")
        capsys.readouterr()
        assert main(["query", "--customized", str(cchm), "--pairs", str(pairs)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "line 3: vertex ID 4 out of [0, 4)" in err

    def test_out_of_range_witness_exits_3(self, tmp_path, capsys):
        rng = random.Random(241)
        g, coords = grid_graph(rng, 6, 6)
        gr, co = write_instance(tmp_path, g, coords)
        cchm = self._pipeline(tmp_path, gr, co)
        c = load_customized(str(cchm))
        m, ug = c.metric, c.cch.ug
        arc = next(e for e in range(ug.arc_count)
                   if not m.delete_up[e] and m.up_a[e] != -1)
        edit = ArtifactEditor(cchm.read_bytes(), c.cch, cchm=True)
        edit.put("up_a", arc, ug.arc_count)
        cchm.write_bytes(edit.sealed())
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n")
        assert main(["query", "--customized", str(cchm), "--pairs", str(pairs)]) == 3

class TestKnnCmd:
    def test_sep_and_dijkstra_agree(self, tmp_path, capsys):
        rng = random.Random(233)
        g, coords = grid_graph(rng, 6, 7, one_way=0.2)
        gr, co = write_instance(tmp_path, g, coords)
        cchp, cchm = tmp_path / "k.cchp", tmp_path / "k.cchm"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        main(["customize", "--graph", gr, "--cch", str(cchp), "--out", str(cchm)])
        sources = tmp_path / "s.txt"
        sources.write_text("".join(f"{v}\n" for v in rng.sample(range(42), 6)))
        targets = tmp_path / "t.txt"
        targets.write_text("".join(f"{v}\n" for v in rng.sample(range(42), 9)))
        capsys.readouterr()
        assert main(["knn", "--customized", str(cchm), "--sources", str(sources),
                     "--targets", str(targets), "-k", "4", "--algo", "sep"]) == 0
        sep_out = capsys.readouterr().out
        assert main(["knn", "--customized", str(cchm), "--sources", str(sources),
                     "--targets", str(targets), "-k", "4", "--algo", "dijkstra"]) == 0
        dij_out = capsys.readouterr().out
        assert sep_out == dij_out and sep_out.strip()

    @pytest.mark.parametrize("extra, algo", [((), "sep"), (("--no-perfect",), "sep"),
                                             ((), "dijkstra"), (("--no-perfect",), "dijkstra")],
                             ids=["perfect", "no-perfect", "perfect-dijkstra",
                                  "no-perfect-dijkstra"])
    def test_sample_knn_pinned(self, tmp_path, capsys, extra, algo):
        # Digest of `knn` on the sample sources and targets with k = 4
        # (pruned cells) and k = 15 (every target), the same in both modes
        # and for both algorithms. How the searches iterate their graphs may
        # change; this output may not.
        gr, co = str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co")
        cchp, cchm = tmp_path / "s.cchp", tmp_path / "s.cchm"
        assert main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)]) == 0
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(cchm), *extra]) == 0
        capsys.readouterr()
        for k in ("4", "15"):
            assert main(["knn", "--customized", str(cchm), "--sources", str(SAMPLE / "sources.txt"),
                         "--targets", str(SAMPLE / "targets.txt"), "-k", k, "--algo", algo]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0d5a30fdcdd9213f4907036841f90f4dae08203fc60e581981656bfe48ce06ab")

    def test_zero_weight_tie_goes_to_smaller_id(self, tmp_path, capsys):
        # Both vertices lie at distance 0 from source 1 across zero-weight
        # arcs; both algorithms must name target 0.
        from cchroute import Coordinates
        g = InputGraph.from_arcs(2, [(0, 1, 0), (1, 0, 0)])
        gr, co = write_instance(tmp_path, g, Coordinates(x=[0, 10], y=[0, 0]), "tie")
        cchp, cchm = tmp_path / "tie.cchp", tmp_path / "tie.cchm"
        assert main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)]) == 0
        assert main(["customize", "--graph", gr, "--cch", str(cchp), "--out", str(cchm)]) == 0
        sources, targets = tmp_path / "s.txt", tmp_path / "t.txt"
        sources.write_text("1\n")
        targets.write_text("0\n1\n")
        capsys.readouterr()
        outs = []
        for algo in ("sep", "dijkstra"):
            assert main(["knn", "--customized", str(cchm), "--sources", str(sources),
                         "--targets", str(targets), "-k", "1", "--algo", algo]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].strip()

    def test_non_positive_k_exits_3(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchp, cchm = tmp_path / "d.cchp", tmp_path / "d.cchm"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        main(["customize", "--graph", gr, "--cch", str(cchp), "--out", str(cchm)])
        ids = tmp_path / "ids.txt"
        ids.write_text("0\n3\n")
        for k in ("0", "-1"):
            assert main(["knn", "--customized", str(cchm), "--sources", str(ids),
                         "--targets", str(ids), "-k", k]) == 3


    def test_sources_checked_before_targets_are_read(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchp, cchm = tmp_path / "d.cchp", tmp_path / "d.cchm"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        main(["customize", "--graph", gr, "--cch", str(cchp), "--out", str(cchm)])
        sources, targets = tmp_path / "s.txt", tmp_path / "t.txt"
        sources.write_text("0\n9\n")
        targets.write_text("x\n")
        capsys.readouterr()
        assert main(["knn", "--customized", str(cchm), "--sources", str(sources),
                     "--targets", str(targets), "-k", "1"]) == 3
        assert "line 2: vertex ID 9 out of [0, 4)" in capsys.readouterr().err


class TestThreadResolution:
    def test_env_fallback(self, tmp_path, capsys, monkeypatch):
        from cchroute.cli import _check_threads
        monkeypatch.setenv("CCH_THREADS", "3")
        _check_threads(None)
        _check_threads(2)
        monkeypatch.setenv("CCH_THREADS", "zero")
        _check_threads(2)  # a valid flag wins over the environment
        with pytest.raises(ConsistencyError):
            _check_threads(None)
        with pytest.raises(ConsistencyError):
            _check_threads(0)

    @pytest.mark.parametrize("command", ["customize", "bench"])
    def test_threads_validated_and_not_echoed(self, tmp_path, capsys, monkeypatch, command):
        g, (gr, co) = diamond_files(tmp_path)
        cchp = tmp_path / "d.cchp"
        assert main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)]) == 0
        args = {"customize": ["customize", "--graph", gr, "--cch", str(cchp),
                              "--out", str(tmp_path / "d.cchm")],
                "bench": ["bench", "--graph", gr, "--coords", co, "--count", "5"]}[command]
        assert main([*args, "--threads", "0"]) == 3
        monkeypatch.setenv("CCH_THREADS", "zero")
        assert main(args) == 3
        assert main([*args, "--threads", "2"]) == 0
        monkeypatch.setenv("CCH_THREADS", "2")
        capsys.readouterr()
        assert main(args) == 0
        assert main([*args, "--threads", "3", "--json"]) == 0
        out = capsys.readouterr().out
        # Neither the text nor the JSON output names the ignored setting.
        assert "threads" not in out


class TestBenchCmd:
    def test_same_seed_identical_output(self, tmp_path, capsys):
        rng = random.Random(239)
        g, coords = grid_graph(rng, 5, 8)
        gr, co = write_instance(tmp_path, g, coords)
        runs = []
        for _ in range(2):
            capsys.readouterr()
            assert main(["bench", "--graph", gr, "--coords", co,
                         "--seed", "5", "--count", "40", "--json"]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            payloads = [json.loads(line) for line in lines]
            runs.append([(p.get("s"), p.get("t"), p.get("distance"))
                         for p in payloads if p["kind"] == "sample"])
        assert runs[0] == runs[1]
        assert len(runs[0]) == 40

    def test_sample_distances_match_oracle(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        capsys.readouterr()
        assert main(["bench", "--graph", gr, "--coords", co,
                     "--seed", "1", "--count", "30", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for payload in map(json.loads, lines):
            if payload["kind"] != "sample":
                continue
            want = dijkstra(g, payload["s"])[payload["t"]]
            got = INFINITY if payload["distance"] is None else payload["distance"]
            assert got == want

    @pytest.mark.parametrize("extra, work_digest, relaxed_before", [
        ((), "360118305aa641d66828185cedd4781180a0eef31fe0deaa521729c75659edde", 39893),
        (("--no-perfect",), "f409261f07ae64a12bca69b2635f4e2376fac6c8b41ac30662b23e4d8a442280",
         96068),
    ], ids=["perfect", "no-perfect"])
    def test_sample_counters_pinned(self, tmp_path, capsys, extra, work_digest, relaxed_before):
        # Digests of every bench sample on sample/grid.gr without its
        # timing: pair, distance and path length in one, which no order
        # may change, and the vertices visited and arcs relaxed in the
        # other. The order sets the work: the work digest was recorded anew
        # when the ordering moved to vertex cuts, and the sums must stay
        # below the edge cut's, 8,302 vertices visited in both modes.
        capsys.readouterr()
        assert main(["bench", "--graph", str(SAMPLE / "grid.gr"), "--coords", str(SAMPLE / "grid.co"),
                     "--seed", "3", "--count", "200", "--json", *extra]) == 0
        samples = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        samples = [p for p in samples if p["kind"] == "sample"]
        assert len(samples) == 200

        def digest(data) -> str:
            return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

        assert digest([{k: v for k, v in p.items() if k not in ("ns", "visited", "relaxed")}
                       for p in samples]) == (
            "f651d2f82d09739ef962f7e2f72873b26308a484efe3bc643facd427f51f6296")
        assert digest([[p["visited"], p["relaxed"]] for p in samples]) == work_digest
        assert sum(p["visited"] for p in samples) < 8302
        assert sum(p["relaxed"] for p in samples) < relaxed_before

    def test_non_positive_count_exits_3(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        for count in ("0", "-3"):
            assert main(["bench", "--graph", gr, "--coords", co, "--count", count]) == 3

    def test_missing_coords_and_order_exits_3(self, tmp_path, capsys):
        g, (gr, _) = diamond_files(tmp_path)
        assert main(["bench", "--graph", gr]) == 3
        assert "bench needs --coords (to compute an order) or --order" in capsys.readouterr().err

    def test_imported_order_honored(self, tmp_path, capsys):
        g, (gr, _) = diamond_files(tmp_path)
        order = tmp_path / "o.txt"
        order.write_text("0\n1\n2\n3\n")
        assert main(["bench", "--graph", gr, "--order", str(order), "--count", "5"]) == 0
        phases = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:5]]
        assert phases == ["ordering", "contraction", "customization"]


@pytest.mark.parametrize("command, flag", [
    ("preprocess", "--graph"), ("preprocess", "--coords"), ("preprocess", "--order"),
    ("customize", "--weights"), ("query", "--pairs"), ("knn", "--sources"), ("knn", "--targets"),
])
def test_non_utf8_text_input_exits_2(tmp_path, capsys, sample_artifacts, command, flag):
    gr, co, cchp, cchm = map(str, sample_artifacts)
    out = str(tmp_path / "out")
    argv = {
        "preprocess": ["preprocess", "--graph", gr, "--coords", co, "--out", out],
        "customize": ["customize", "--graph", gr, "--cch", cchp, "--out", out],
        "query": ["query", "--customized", cchm, "--pairs", str(SAMPLE / "queries.txt")],
        "knn": ["knn", "--customized", cchm, "--sources", str(SAMPLE / "sources.txt"),
                "--targets", str(SAMPLE / "targets.txt"), "-k", "2"],
    }[command]
    bad = tmp_path / "bad.txt"
    bad.write_bytes("0 1\n".encode("utf-16"))  # starts with the byte-order mark ff fe
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


class TestTextInputFuzz:
    """Seeded mutations of every text input the CLI reads, each run through
    the subcommand that reads it: every run exits 0, 2, 3 or 5, never with
    a traceback."""

    MUTATIONS = 40
    TOKENS = [b"x", b"-1", b"0", str(2**40).encode()]

    @classmethod
    def _mutate(cls, rng: random.Random, data: bytes) -> bytes:
        """``data`` with one non-blank line changed: a token dropped,
        duplicated or replaced, the line cut short, or a byte 0xff put in."""
        lines = data.split(b"\n")
        i = rng.choice([i for i, line in enumerate(lines) if line.strip()])
        line, tokens = lines[i], lines[i].split()
        kind = rng.randrange(5)
        j = rng.randrange(len(tokens))
        if kind == 0:
            del tokens[j]
        elif kind == 1:
            tokens.insert(j, tokens[j])
        elif kind == 2:
            tokens[j] = rng.choice(cls.TOKENS)
        if kind < 3:
            lines[i] = b" ".join(tokens)
        elif kind == 3:
            lines[i] = line[:rng.randrange(len(line))]
        else:
            cut = rng.randrange(len(line) + 1)
            lines[i] = line[:cut] + b"\xff" + line[cut:]
        return b"\n".join(lines)

    def test_mutated_inputs_exit_with_a_documented_code(self, tmp_path, capsys, sample_artifacts):
        gr, co, cchp, cchm = map(str, sample_artifacts)
        order, metric = tmp_path / "order.txt", tmp_path / "metric.txt"
        assert main(["preprocess", "--graph", gr, "--coords", co, "--out", str(tmp_path / "o.cchp"),
                     "--export-order", str(order)]) == 0
        with open(gr) as f:
            arcs = [line.split() for line in f if line.startswith("a ")]
        metric.write_text("".join(f"a {t} {h} {2 * int(w)}\n" for _, t, h, w in arcs))
        queries, sources, targets = (str(SAMPLE / f) for f in
                                     ("queries.txt", "sources.txt", "targets.txt"))
        mut, out = str(tmp_path / "mutated"), str(tmp_path / "out")
        knn = ["knn", "--customized", cchm, "-k", "2"]
        cases = {
            gr: ["preprocess", "--graph", mut, "--coords", co, "--out", out],
            co: ["preprocess", "--graph", gr, "--coords", mut, "--out", out],
            str(metric): ["customize", "--graph", gr, "--cch", cchp, "--weights", mut, "--out", out],
            str(order): ["preprocess", "--graph", gr, "--order", mut, "--out", out],
            queries: ["query", "--customized", cchm, "--pairs", mut],
            sources: [*knn, "--sources", mut, "--targets", targets],
            targets: [*knn, "--sources", sources, "--targets", mut],
        }
        rng = random.Random(263)
        codes = set()
        for source, argv in cases.items():
            data = open(source, "rb").read()
            for _ in range(self.MUTATIONS):
                mutated = self._mutate(rng, data)
                with open(mut, "wb") as f:
                    f.write(mutated)
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 2, 3, 5) and "Traceback" not in err, (argv, mutated)
                codes.add(code)
        assert codes == {0, 2, 3}


class TestMain:
    QUERY = ["query", "--customized", "c.cchm", "--pairs", "pairs.txt"]

    @pytest.mark.parametrize("error, code", [*EXIT_CODES.items(), (FormatError, 2)],
                             ids=lambda x: x.__name__ if isinstance(x, type) else str(x))
    def test_error_class_maps_to_its_exit_code(self, capsys, monkeypatch, error, code):
        def stub(args):
            raise error("stub failure")
        monkeypatch.setattr(cli, "cmd_query", stub)
        assert main(self.QUERY) == code
        assert capsys.readouterr().err == "error: stub failure\n"

    def test_other_errors_propagate(self, monkeypatch):
        def stub(args):
            raise RuntimeError("stub failure")
        monkeypatch.setattr(cli, "cmd_query", stub)
        with pytest.raises(RuntimeError, match="stub failure"):
            main(self.QUERY)

    @pytest.mark.parametrize("command", ["", "preprocess", "customize", "query", "knn", "bench"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([*command.split(), "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: cchroute {command}".rstrip())
