#!/usr/bin/env python3
"""Collect result sets and compare two of them.

A result set is a JSON-lines file with one benchmark run per line:
``{"workload", "seed", "trace", "result"}``.

    # ten seeds of every workload, end-to-end metrics, into one file
    python3 perfbench/compare.py collect --seeds 1-10 --out .bench_results/parent.jsonl
    # every metric x workload on its own row, with a verdict
    python3 perfbench/compare.py diff .bench_results/parent.jsonl .bench_results/change.jsonl

``collect`` also prints each end-to-end metric's spread: the distance
between the first and third quartile of its run values, as a share of their
median, next to the metric's bound.

``diff`` verdicts: *worse* when the
change's median is worse than the parent's by more than the bound;
*unresolved* when the parent's own spread is wider than the bound, unless
every change run beats every parent run; *better* when the change wins at
least nine tenths of the runs paired by seed, ties counting for neither,
and the medians differ by more than the parent's quartile distance;
otherwise *within bound*.  Per-layer metrics have no bound, so they read
better, worse (the same test mirrored) or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, bench_spec


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(path):
    """{(workload, metric): {seed: value}} for one result set."""
    table = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            run = json.loads(line)
            for name, metric in run["result"]["metrics"].items():
                table[(run["workload"], name)][run["seed"]] = metric["value"]
    return table


def verdict(parent: dict, change: dict, better: str, bound):
    sign = 1.0 if better == "higher" else -1.0
    a, b = list(parent.values()), list(change.values())
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    q1, _, q3 = quartiles(a)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if bound is not None and spread(a) > bound:
        return "better" if all_better else "unresolved"
    if bound is not None and sign * (mb - ma) < -bound * abs(ma):
        return "worse"
    pairs = [(parent[s], change[s]) for s in parent.keys() & change.keys()]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    separated = abs(mb - ma) > q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and separated and sign * (mb - ma) > 0:
        return "better"
    if bound is None:
        return "worse" if pairs and losses >= 0.9 * len(pairs) and separated else "unresolved"
    return "within bound"


def cmd_diff(args) -> int:
    spec = bench_spec()
    parent, change = load(args.parent), load(args.change)
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]] + [(m, None) for m in spec["per_layer"]]
    print(f"{'metric':40s} {'workload':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  verdict")
    for m, bound in metrics:
        for w in spec["workloads"]:
            key = (w["name"], m["name"])
            if key not in parent or key not in change:
                continue
            a, b = quartiles(list(parent[key].values())), quartiles(list(change[key].values()))
            print(
                f"{m['name']:40s} {w['name']:16s} {a[1]:>12.6g} [{a[0]:.6g}, {a[2]:.6g}]"
                f" {b[1]:>12.6g} [{b[0]:.6g}, {b[2]:.6g}]  {verdict(parent[key], change[key], m['better'], bound)}"
            )
    return 0


def cmd_collect(args) -> int:
    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    values = defaultdict(list)
    with open(out, "a", encoding="utf-8") as fh:
        for name in names:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", name, "--seed", str(seed),
                       "--seconds", seconds, "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace, "result": result}) + "\n")
                fh.flush()
                print(f"{name} seed={seed} correct={result['correct']} failed={result['failed']}", flush=True)
                for metric, m in result["metrics"].items():
                    values[(name, metric)].append(m["value"])
    if args.trace:
        return 0
    print(f"\n{'metric':20s} {'workload':16s} {'median':>12s} {'unit':6s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        for name in names:
            v = values[(name, m["name"])]
            if v:
                flag = "" if spread(v) < m["bound"] / 3 else "  above a third of the bound"
                print(f"{m['name']:20s} {name:16s} {statistics.median(v):>12.6g} {m['unit']:6s} {spread(v):>8.4f}"
                      f" {m['bound']:>6}{flag}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect", help="run every workload at run_seconds for each seed; append to a result set")
    collect.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    collect.add_argument("--out", required=True)
    collect.set_defaults(func=cmd_collect)
    diff = sub.add_parser("diff", help="compare a parent result set with a change result set")
    diff.add_argument("parent")
    diff.add_argument("change")
    diff.set_defaults(func=cmd_diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
