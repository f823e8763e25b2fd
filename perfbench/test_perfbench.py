"""Tests of the benchmark itself, on tiny instances.

Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 12


def tiny(workload, tmp_path, trace=False, seed=3, **kw):
    kw.setdefault("max_ops", 700)
    return workloads.run_workload(workload, seed, float("inf"), trace,
                                  str(tmp_path / f"{workload}-{trace}"), side=TINY,
                                  check_all=True, **kw)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_generator_is_deterministic(tmp_path):
    a = gen.generate(11, str(tmp_path / "a"), side=TINY)
    b = gen.generate(11, str(tmp_path / "b"), side=TINY)
    c = gen.generate(12, str(tmp_path / "c"), side=TINY)
    for name in a:
        with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
            assert fa.read() == fb.read(), name
    with open(a["grid.gr"], "rb") as fa, open(c["grid.gr"], "rb") as fc:
        assert fa.read() != fc.read()


def test_generated_instance_shape(tmp_path):
    paths = gen.generate(5, str(tmp_path), side=30)
    from cchroute import load_dimacs_gr, load_turn_table
    g = load_dimacs_gr(paths["grid.gr"])
    edges = 2 * 30 * 29
    kept = len(g.undirected_edges())
    assert 0.85 * edges < kept < 0.95 * edges
    one_way = 2 * kept - g.arc_count
    assert 0.05 * kept < one_way < 0.15 * kept
    assert load_turn_table(paths["grid.turns"], g)
    with open(paths["inputs.json"], encoding="utf-8") as f:
        inputs = json.load(f)
    kinds = [op[0] for op in inputs["serve_ops"]]
    assert kinds.count("p2p") == gen.SERVE_P2P and kinds.count("astar") == gen.SERVE_ASTAR
    assert len(inputs["poi"]) == 9 and len(inputs["metrics"]) == gen.METRICS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_with_all_oracles(workload, tmp_path):
    report = tiny(workload, tmp_path)
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] >= 700


def test_exact_counters_repeat_for_a_seed(tmp_path):
    names = ("preprocess.upward_arcs", "preprocess.triangles", "preprocess.etree_height",
             "customize.kept_arc_frac", "query.visited", "query.relaxed", "query.astar_settled",
             "order.top_separator_size", "order.decomposition_nodes")
    runs = []
    for i in range(2):
        r = workloads.Run(float("inf"), trace=False, max_ops=400, check_all=True)
        work = str(tmp_path / str(i))
        gen.generate(7, work, side=TINY)
        paths = workloads.artifact_paths(work)
        with open(paths["inputs.json"], encoding="utf-8") as f:
            inputs = json.load(f)
        workloads.prep(r, "serve", paths)
        workloads.serve(r, paths, inputs)
        assert r.failed == 0
        runs.append({name: sum(r.counters[name]) for name in names})
    assert runs[0] == runs[1]
    assert all(runs[0][name] > 0 for name in names)


def test_triangles_count_lower_triangles(tmp_path):
    from cchroute import build_cch, load_dimacs_co, load_dimacs_gr
    paths = gen.generate(4, str(tmp_path), side=8)
    g = load_dimacs_gr(paths["grid.gr"])
    cch = build_cch(g, load_dimacs_co(paths["grid.co"], g.vertex_count))
    r = workloads.Run(0, trace=False)
    workloads.record_structure(r, g, cch.initial_order, cch, paths["grid.gr"])
    ug = cch.ug
    brute = 0
    for u in range(ug.vertex_count):
        ups = ug.head[ug.first_arc[u]:ug.first_arc[u + 1]]
        brute += sum(1 for i, v in enumerate(ups) for w in ups[i + 1:]
                     if ug.arc_index(v, w) is not None)
    assert r.counters["preprocess.triangles"] == [brute] and brute > 0


@pytest.mark.parametrize("target", ["query", "rphast_distance", "knn_query",
                                    "astar_with_cch_potential"])
def test_oracles_catch_wrong_answers(target, tmp_path, monkeypatch):
    real = getattr(workloads, target)

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, list):
            return [(v, d + 1) for v, d in out]
        return out + 1 if out != workloads.INFINITY else 0

    monkeypatch.setattr(workloads, target, off_by_one)
    report = tiny("serve", tmp_path, max_ops=300)
    assert not report["correct"] and report["failed"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_output_contract(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    monkeypatch.setattr(workloads, "run_workload", functools.partial(
        workloads.run_workload, side=TINY, max_ops=600, check_all=True))
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "5",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(type(m["value"]) in (int, float) for m in result["metrics"].values())
    with open(tmp_path / "reports" / f"{workload}-seed2-trace{trace}.json",
              encoding="utf-8") as f:
        report = json.load(f)
    assert report["schema"] == workloads.SCHEMA == "cchroute-perfbench/1"
    assert os.listdir(tmp_path) == ["reports"]
    if trace:
        layers = {k.split(".")[0] for k in report["per_layer"]
                  if k.endswith(".self_per_call_s")}
        assert {"dimacs", "order", "preprocess", "customize", "query"} <= layers
        assert report["per_layer"]["trace.span_cost_ns"][0] > 0


def test_end_to_end_metrics_are_never_zero(tmp_path):
    for workload in workloads.WORKLOADS:
        e2e = tiny(workload, tmp_path, max_ops=300)["end_to_end"]
        for m in spec()["end_to_end"]:
            assert e2e[m["name"]][0] > 0, (workload, m["name"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_nested_requests_share_the_outer_tracing_state():
    from spans import Tracer
    tr = Tracer(True)
    seen = []
    for _ in range(4):
        with tr.request("pass"):
            outer = tr.enabled
            for _ in range(3):
                with tr.request("p2p"):
                    seen.append((outer, tr.enabled))
                    tr.call("query.p2p", lambda: None)
    assert [outer for outer, _ in seen[::3]] == [True, False, True, False]
    assert all(outer == inner for outer, inner in seen)
    assert len(tr.durations("query.p2p")) == 6
    per_call = tr.self_seconds_per_call()
    assert set(per_call) == {"bench", "query"} and all(v > 0 for v in per_call.values())


def test_host_speed_scales_timings_and_leaves_out_its_own_time():
    from hostspeed import NOMINAL_S
    r = workloads.Run(1, trace=False)
    assert r.scaled(0.0, 2.0) == 2.0  # no samples near it: unscaled
    r.speed.start()
    try:
        spent, t0 = r.speed.spent, time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            pass
        elapsed = time.perf_counter() - t0
        dt = r.since(t0, spent)
    finally:
        r.speed.stop()
    assert len(r.speed.loops) >= 4 and r.speed.spent > 0
    assert dt == pytest.approx(elapsed - r.speed.spent, abs=1e-3)
    assert r.scaled(t0, dt) == pytest.approx(dt * NOMINAL_S / statistics.median(r.speed.loops))
