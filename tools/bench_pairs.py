"""Alternating parent/change perfbench pairs, summarised as a BENCH_*.json.

Run from the root of a checkout, after committing the change:

    python3 tools/bench_pairs.py --parent 117bd63 --label parallel_dissection \\
        --note "what the change does" --workload build --pairs 10

The parent and the change, HEAD, are checked out with ``git worktree``
under ``.perfbench_work/pairs/``. For each workload and pair, both
checkouts run

    python3 perfbench/run.py --workload W --seed S --trace 0

the parent first in odd pairs and the change first in even pairs, and
each run's JSON line is read. The run length is perfbench's own; it is
recorded as the runs state it in their header line. The result is written to
``BENCH_<label>.json`` in the layout of the committed ``BENCH_*.json``
files: per workload the runs each side went first in, the operations
attempted and failed, and per end-to-end metric of ``BENCHMARK.json`` its
direction, both raw lists, both medians and quartile pairs (inclusive
method, as ``statistics.quantiles`` computes it) and the pairs the change
won. ``--key`` stores the workloads under another key of an existing
file, as for a confirming run on another seed; the harness refuses to
add runs to a file whose parent is another revision than ``--parent``.

Nothing is written when any run failed: a nonzero exit, a failed
operation, an answer the oracles rejected or no JSON line. The
checkouts are removed at exit either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGITS = 4


def summarize(better: str, parent: list[float], change: list[float]) -> dict:
    """One metric's entry: raw lists, medians, quartiles and the pairs
    the change won, each rounded to ``DIGITS`` places."""
    def quartiles(values):
        if len(values) == 1:
            return [values[0], values[0]]
        q = statistics.quantiles(values, n=4, method="inclusive")
        return [round(q[0], DIGITS), round(q[2], DIGITS)]

    sign = 1 if better == "higher" else -1
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": round(statistics.median(parent), DIGITS),
        "change_median": round(statistics.median(change), DIGITS),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }


def run_failed(run: dict) -> bool:
    """Whether a run exited nonzero, failed an operation or was wrong."""
    line = run.get("json")
    return (run["returncode"] != 0 or line is None or not line["correct"]
            or line["failed"] != 0)


def workload_entry(seed: int, directions: dict[str, str], runs: dict[str, list[dict]]) -> dict:
    """A workload's entry from the JSON lines of its runs, pair by pair."""
    pairs = len(runs["parent"])
    return {
        "pairs": pairs,
        "seed": seed,
        "seconds": runs["change"][0]["seconds"],
        "first": {"parent": list(range(1, pairs + 1, 2)), "change": list(range(2, pairs + 1, 2))},
        "attempted": {side: sum(r["json"]["attempted"] for r in runs[side]) for side in runs},
        "failed": {side: sum(r["json"]["failed"] for r in runs[side]) for side in runs},
        "correct": all(r["json"]["correct"] for side in runs for r in runs[side]),
        "metrics": {
            name: summarize(better, *([round(r["json"]["metrics"][name]["value"], DIGITS)
                                       for r in runs[side]] for side in ("parent", "change")))
            for name, better in directions.items()},
    }


def commit_of(repo: str, rev: str) -> str | None:
    """The full hash of the commit ``rev`` names in ``repo``, or None."""
    proc = subprocess.run(["git", "-C", repo, "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def checkout(repo: str, rev: str, dest: str) -> None:
    """Check ``rev`` of ``repo`` out at ``dest`` as a detached worktree."""
    subprocess.run(["git", "-C", repo, "worktree", "add", "--detach", "--force", dest, rev],
                   check=True, capture_output=True)


def remove_checkout(repo: str, dest: str) -> None:
    """Remove a worktree ``checkout`` made, and git's record of it."""
    subprocess.run(["git", "-C", repo, "worktree", "remove", "--force", dest],
                   capture_output=True)
    shutil.rmtree(dest, ignore_errors=True)
    subprocess.run(["git", "-C", repo, "worktree", "prune"], capture_output=True)


def run_perfbench(tree: str, workload: str, seed: int) -> dict:
    """Run perfbench once in a checkout; its exit code, JSON line and the
    run length its header line states."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    line = seconds = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            line = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        if header := re.search(r"\bseconds=([0-9.]+)", lines[0]):
            seconds = float(header[1])
    return {"returncode": proc.returncode, "json": line, "seconds": seconds,
            "stderr": proc.stderr[-2000:]}


def machine() -> str:
    """CPU count and model, interpreter and system of this host."""
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{len(os.sched_getaffinity(0))}-core {model}, CPython {platform.python_version()}, "
            f"{platform.system()}; perfbench times scaled to its nominal host speed")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, help="revision to compare against")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--note", default="", help="what the change does, stored as 'change'")
    p.add_argument("--workload", action="append", choices=("serve", "recustomize", "build"),
                   required=True, help="repeat for several workloads")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--key", default="workloads", help="key the workloads are stored under")
    p.add_argument("--repo", default=ROOT, help="repository holding both revisions")
    p.add_argument("--out", help="output path (default <repo>/BENCH_<label>.json)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = os.path.abspath(args.repo)
    out = args.out or os.path.join(repo, f"BENCH_{args.label}.json")
    work = os.path.join(repo, ".perfbench_work", "pairs")
    trees = {side: os.path.join(work, side) for side in ("parent", "change")}
    parent_rev = subprocess.run(["git", "-C", repo, "rev-parse", "--short", args.parent],
                                check=True, capture_output=True, text=True).stdout.strip()
    report = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
        if commit_of(repo, str(report.get("parent"))) != commit_of(repo, args.parent):
            print(f"error: {out} holds runs against parent {report.get('parent')}, "
                  f"not {parent_rev}; no file written", file=sys.stderr)
            return 1
    results = {}
    try:
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            remove_checkout(repo, trees[side])
            checkout(repo, rev, trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as f:
            directions = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for pair in range(1, args.pairs + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    run = run_perfbench(trees[side], workload, args.seed)
                    runs[side].append(run)
                    if run_failed(run):
                        print(f"error: {workload} pair {pair} {side} failed "
                              f"(exit {run['returncode']}); no file written\n{run['stderr']}",
                              file=sys.stderr)
                        return 1
                    print(f"{workload} pair {pair} {side}: " + ", ".join(
                        f"{name}={m['value']:.4g}" for name, m in run["json"]["metrics"].items()),
                        file=sys.stderr)
            results[workload] = workload_entry(args.seed, directions, runs)
    finally:
        for tree in trees.values():
            remove_checkout(repo, tree)

    if report is None:
        report = {
            "label": args.label,
            "change": args.note,
            "parent": parent_rev,
            "machine": machine(),
            "method": (f"perfbench/run.py --seed {args.seed} --trace 0, its default run "
                       "length, parent and change alternating, the parent first in odd "
                       "pairs and the change first in even pairs, each from its own git "
                       "worktree; metrics from each run's JSON line"),
        }
    report.setdefault(args.key, {}).update(results)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
