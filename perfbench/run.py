"""Seeded benchmark of the three CCH phases: serve, recustomize, build.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

The benchmark generates its instance and inputs from the seed, runs the
workload against the ``cchroute`` package under ``src/`` of the same
checkout, checks every answer with the brute-force oracles, prints each
metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics listed in ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics. The exit code is 0 only when every
operation agreed with the oracles.

Scratch files live under ``.perfbench_work/`` and are removed at exit,
except the report (and, when traced, the spans) under
``.perfbench_work/reports/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=("serve", "recustomize", "build"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prep", choices=("serve", "recustomize", "build"), help=argparse.SUPPRESS)
    p.add_argument("--side", type=int, help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    p.add_argument("--answer", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.prep is None and not args.answer and args.workload is None:
        p.error("--workload is required")
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        p.error("--seconds must be a positive number")
    return args


def import_program():
    """Import ``cchroute`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cchroute", "__init__.py")):
        raise SystemExit(f"error: no cchroute package under {SRC}")
    sys.path.insert(0, SRC)
    import cchroute
    if os.path.dirname(os.path.dirname(os.path.abspath(cchroute.__file__))) != SRC:
        raise SystemExit(f"error: cchroute was imported from {cchroute.__file__}, not {SRC}")


def listed_metrics(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json asks for in this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.prep is not None:
        return workloads.prep_main(args.prep, args.seed, args.side, args.dir, bool(args.trace))
    if args.answer:
        return workloads.answer_main(args.dir, bool(args.trace), args.memory)

    listed = listed_metrics(args.trace)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        report = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {}
    for name, unit in listed:
        if name not in measured or measured[name][1] != unit:
            report["correct"] = False
            report["failures"].append(f"metric {name} ({unit}) was not measured")
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            metrics[name] = {"value": measured[name][0], "unit": unit}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} schema={workloads.SCHEMA}")
    for section in ("end_to_end", "per_layer"):
        for name, (value, unit) in sorted(report[section].items()):
            print(f"  {section:<10} {name:<42} {value:>14.6g} {unit}")
    for note in report["failures"]:
        print(f"FAILED: {note}", file=sys.stderr)

    reports = os.path.join(WORK_ROOT, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = report.pop("tracer")
    if args.trace:
        tracer.write(stem + "-spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
