"""Command-line interface: pipelines, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
import random
import struct

import pytest

from cchroute import INFINITY, InputGraph, dijkstra, load_cch, load_customized
from cchroute.cli import main
from helpers import SAMPLE, diamond, grid_graph, search_arcs


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

    @pytest.mark.parametrize("index", [0, 1], ids=["orig_up", "orig_down"])
    def test_input_arc_id_out_of_range_exits_3(self, tmp_path, capsys, index):
        gr, co = str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co")
        cchp = tmp_path / "s.cchp"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        ug = load_cch(str(cchp)).ug
        n, m = ug.vertex_count, ug.arc_count
        # CCHP layout: magic, version, four u32 counts, then the u32 arrays
        # first_arc, head, tail, parent, vertex_at, orig_up, orig_down
        offset = 5 + 16 + 4 * (n + 1) + 8 * m + 8 * n + 4 * m * index
        data = bytearray(cchp.read_bytes())
        struct.pack_into("<I", data, offset, 1_000_000)
        cchp.write_bytes(bytes(data))
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")]) == 3
        assert "input arc ID" in capsys.readouterr().err

    # CCHP columns after magic, version and four u32 counts, in file order
    CCHP_COLUMNS = ["first_arc", "head", "tail", "parent", "vertex_at", "orig_up", "orig_down"]

    @pytest.mark.parametrize("value", [0x80000000, 0xFFFFFFFE, 0x7FFFFFFF])
    @pytest.mark.parametrize("column", CCHP_COLUMNS)
    def test_large_column_value_rejected(self, tmp_path, capsys, sample_artifacts,
                                         column, value):
        # Signed columns read a value of 2**31 or more as negative; no such
        # value may slip through as an index, whichever column holds it.
        gr, _, clean, _ = sample_artifacts
        ug = load_cch(str(clean)).ug
        n, m = ug.vertex_count, ug.arc_count
        lengths = [n + 1, m, m, n, n, m, m]
        i = self.CCHP_COLUMNS.index(column)
        offset = 5 + 16 + 4 * sum(lengths[:i]) + 4 * (lengths[i] // 2)
        data = bytearray(clean.read_bytes())
        struct.pack_into("<I", data, offset, value)
        cchp = tmp_path / "s.cchp"
        cchp.write_bytes(bytes(data))
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")]) in (2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("node, field", [(0, 1), (1, 0), (-1, 2)],
                             ids=["root-cell-hi", "child-cell-lo", "leaf-sep-lo"])
    def test_decomposition_not_tiling_ranks_exits_3(self, tmp_path, capsys, node, field):
        gr, co = str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co")
        cchp = tmp_path / "s.cchp"
        main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)])
        nodes = sum(1 for _ in load_cch(str(cchp)).decomposition.preorder())
        # the CCHP ends with the decomposition in preorder: per node the u32s
        # cell_lo, cell_hi, sep_lo, child count
        data = bytearray(cchp.read_bytes())
        offset = len(data) - 16 * nodes + 16 * (node % nodes) + 4 * field
        (value,) = struct.unpack_from("<I", data, offset)
        struct.pack_into("<I", data, offset, value + 1)
        cchp.write_bytes(bytes(data))
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(tmp_path / "s.cchm")]) == 3
        assert "separator decomposition" in capsys.readouterr().err

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
        ((), "76f543e5b15eec312699298b693da451b607cbdff193a90ffe68ef92a563027a"),
        (("--no-perfect",), "da141e541145f54ef91c3fde4798410bbfd91629c9b419c7dab93351d661c955"),
    ], ids=["perfect", "no-perfect"])
    def test_sample_paths_pinned(self, tmp_path, capsys, extra, cchm_digest):
        # Digests of sample/grid.gr's CCHM and of `query --paths` on 300
        # seeded pairs. How search graphs are built and paths unpacked may
        # change; these outputs may not.
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
        cchm.write_bytes(bytes(data))
        assert main(["query", "--customized", str(cchm),
                     "--pairs", str(SAMPLE / "queries.txt")]) == 2
        assert "perfect flag" in capsys.readouterr().err

    def test_out_of_range_vertex_exits_3(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        cchm = self._pipeline(tmp_path, gr, co)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 9\n")
        assert main(["query", "--customized", str(cchm), "--pairs", str(pairs)]) == 3


    def test_out_of_range_witness_exits_3(self, tmp_path, capsys):
        from cchroute.preprocess import serialize_cch
        rng = random.Random(241)
        g, coords = grid_graph(rng, 6, 6)
        gr, co = write_instance(tmp_path, g, coords)
        cchm = self._pipeline(tmp_path, gr, co)
        c = load_customized(str(cchm))
        m, ug = c.metric, c.cch.ug
        arc = next(e for e in range(ug.arc_count)
                   if not m.delete_up[e] and m.up_a[e] != -1)
        # CCHM layout: magic, version, perfect flag, CCHP, input weights,
        # l_up, l_down, up_a, ... as little-endian u32 arrays
        offset = (6 + len(serialize_cch(c.cch)) + 4 * ug.input_arc_count
                  + 8 * ug.arc_count + 4 * arc)
        data = bytearray(cchm.read_bytes())
        struct.pack_into("<I", data, offset, ug.arc_count)
        cchm.write_bytes(bytes(data))
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

    @pytest.mark.parametrize("extra", [(), ("--no-perfect",)], ids=["perfect", "no-perfect"])
    def test_sample_knn_pinned(self, tmp_path, capsys, extra):
        # Digest of `knn --algo sep` on the sample sources and targets with
        # k = 4 (pruned cells) and k = 15 (every target), the same in both
        # modes. How the searches iterate the search graphs may change;
        # this output may not.
        gr, co = str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co")
        cchp, cchm = tmp_path / "s.cchp", tmp_path / "s.cchm"
        assert main(["preprocess", "--graph", gr, "--coords", co, "--out", str(cchp)]) == 0
        assert main(["customize", "--graph", gr, "--cch", str(cchp),
                     "--out", str(cchm), *extra]) == 0
        capsys.readouterr()
        for k in ("4", "15"):
            assert main(["knn", "--customized", str(cchm), "--sources", str(SAMPLE / "sources.txt"),
                         "--targets", str(SAMPLE / "targets.txt"), "-k", k, "--algo", "sep"]) == 0
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


class TestThreadResolution:
    def test_env_fallback(self, tmp_path, capsys, monkeypatch):
        from cchroute.cli import _resolve_threads
        monkeypatch.setenv("CCH_THREADS", "3")
        assert _resolve_threads(None) == 3
        assert _resolve_threads(2) == 2  # flag wins over the environment
        monkeypatch.setenv("CCH_THREADS", "zero")
        import pytest
        from cchroute import ConsistencyError
        with pytest.raises(ConsistencyError):
            _resolve_threads(None)


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

    @pytest.mark.parametrize("extra, digest", [
        ((), "68da712bd4ca4f12cadf2535e7777bd99b00ee5602a1e1a1631682ce7fb40346"),
        (("--no-perfect",), "26d3e6c2b38c2b0cc33a60938bd0875488aa301fdc3c2a97ef92ca10284f0734"),
    ], ids=["perfect", "no-perfect"])
    def test_sample_counters_pinned(self, tmp_path, capsys, extra, digest):
        # Digest of every bench sample on sample/grid.gr without its timing:
        # pair, distance, vertices visited, arcs relaxed and path length.
        capsys.readouterr()
        assert main(["bench", "--graph", str(SAMPLE / "grid.gr"), "--coords", str(SAMPLE / "grid.co"),
                     "--seed", "3", "--count", "200", "--json", *extra]) == 0
        samples = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        samples = [{k: v for k, v in p.items() if k != "ns"} for p in samples if p["kind"] == "sample"]
        assert len(samples) == 200
        blob = json.dumps(samples, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_non_positive_count_exits_3(self, tmp_path, capsys):
        g, (gr, co) = diamond_files(tmp_path)
        for count in ("0", "-3"):
            assert main(["bench", "--graph", gr, "--coords", co, "--count", count]) == 3


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
