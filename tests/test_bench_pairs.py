"""tools/bench_pairs.py: summary arithmetic, worktree checkouts, and the
refusal to write a report when a run failed or the file holds runs
against another parent."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SUMMARY_KEYS = ("better", "parent", "change", "parent_median", "change_median",
                "parent_quartiles", "change_quartiles", "change_wins")


@pytest.mark.parametrize("name", ["BENCH_23_turn_table_columns.json", "BENCH_26_vertex_cuts.json"])
def test_summary_reproduces_stored_reports(name):
    report = json.loads((ROOT / name).read_text(encoding="utf-8"))
    for entry in report["workloads"].values():
        pairs = entry["pairs"]
        assert entry["first"] == {"parent": list(range(1, pairs + 1, 2)),
                                  "change": list(range(2, pairs + 1, 2))}
        for stored in entry["metrics"].values():
            summary = bench_pairs.summarize(stored["better"], stored["parent"], stored["change"])
            assert summary == {key: stored[key] for key in SUMMARY_KEYS}


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


FAKE_RUN = '''import json, sys
value = float(open("value.txt").read())
failed = int(value < 0)
print("perfbench build seed=1 seconds=25 trace=0 schema=fake")
print(json.dumps({"correct": True, "attempted": 10, "failed": failed,
                  "metrics": {"throughput_ops_s": {"value": value, "unit": "1/s"},
                              "setup_s": {"value": 1 / abs(value), "unit": "s"}}}))
sys.exit(failed)
'''


def make_repo(tmp_path: Path, parent_value: float, change_value: float) -> tuple[Path, str, str]:
    """A repository whose two commits hold a fake perfbench that reports
    the given throughput, with BENCHMARK.json's two metrics."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    git(repo, "init", "-q")
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "setup_s", "better": "lower"},
        {"name": "throughput_ops_s", "better": "higher"}]}), encoding="utf-8")
    revs = []
    for value in (parent_value, change_value):
        (repo / "value.txt").write_text(str(value), encoding="utf-8")
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", f"value {value}")
        revs.append(git(repo, "rev-parse", "HEAD"))
    return repo, revs[0], revs[1]


def test_checkout_is_a_worktree_of_the_revision(tmp_path):
    repo, parent, _ = make_repo(tmp_path, 1.0, 2.0)
    dest = repo / ".perfbench_work" / "pairs" / "parent"
    bench_pairs.checkout(str(repo), parent, str(dest))
    assert (dest / "value.txt").read_text(encoding="utf-8") == "1.0"
    assert git(dest, "rev-parse", "HEAD") == parent
    assert (repo / "value.txt").read_text(encoding="utf-8") == "2.0"
    bench_pairs.remove_checkout(str(repo), str(dest))
    assert not dest.exists()
    assert git(repo, "worktree", "list").count("\n") == 0


def test_pairs_alternate_and_are_summarised(tmp_path):
    repo, parent, _ = make_repo(tmp_path, 100.0, 125.0)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--repo", str(repo), "--parent", parent, "--label", "x",
                             "--workload", "build", "--pairs", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["parent"] == parent[:len(report["parent"])]
    entry = report["workloads"]["build"]
    assert entry["first"] == {"parent": [1, 3], "change": [2]}
    assert entry["seconds"] == 25.0
    assert entry["attempted"] == {"parent": 30, "change": 30}
    assert entry["correct"] is True
    assert entry["metrics"]["throughput_ops_s"]["change_wins"] == 3
    assert entry["metrics"]["setup_s"] == bench_pairs.summarize(
        "lower", [0.01] * 3, [0.008] * 3)
    assert not (repo / ".perfbench_work" / "pairs" / "parent").exists()


def test_key_adds_runs_only_against_the_same_parent(tmp_path, capsys):
    repo, parent, change = make_repo(tmp_path, 100.0, 125.0)
    out = tmp_path / "BENCH_x.json"
    common = ["--repo", str(repo), "--label", "x", "--workload", "build", "--pairs", "1",
              "--out", str(out)]
    assert bench_pairs.main([*common, "--parent", parent]) == 0
    assert bench_pairs.main([*common, "--parent", parent[:10], "--key", "seed2"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["workloads"]["build"]["pairs"] == report["seed2"]["build"]["pairs"] == 1
    written = out.read_text(encoding="utf-8")
    for key in ("seed2", "workloads"):
        assert bench_pairs.main([*common, "--parent", change, "--key", key]) == 1
        assert "holds runs against parent" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == written
    assert git(repo, "worktree", "list").count("\n") == 0


def test_failed_run_blocks_the_write(tmp_path, capsys):
    repo, parent, _ = make_repo(tmp_path, 100.0, -1.0)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--repo", str(repo), "--parent", parent, "--label", "x",
                             "--workload", "build", "--pairs", "2", "--out", str(out)]) == 1
    assert not out.exists()
    assert "build pair 1 change failed" in capsys.readouterr().err
    assert git(repo, "worktree", "list").count("\n") == 0


def test_single_pair_has_its_value_as_quartiles():
    summary = bench_pairs.summarize("lower", [2.5], [2.0])
    assert summary["parent_quartiles"] == [2.5, 2.5]
    assert summary["change_median"] == 2.0
    assert summary["change_wins"] == 1


def test_runs_are_judged_by_exit_code_and_json_line():
    ok = {"returncode": 0, "json": {"correct": True, "failed": 0}}
    assert not bench_pairs.run_failed(ok)
    assert bench_pairs.run_failed({**ok, "returncode": 1})
    assert bench_pairs.run_failed({**ok, "json": None})
    assert bench_pairs.run_failed({**ok, "json": {"correct": False, "failed": 0}})
    assert bench_pairs.run_failed({**ok, "json": {"correct": True, "failed": 2}})
