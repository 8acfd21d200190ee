#!/usr/bin/env python3
"""Compare two result sets of the benchmark, or show the spread of one.

A result set is a directory of records written by ``run.py --out``.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RUNS_DIR            # spread of one set

For each workload and end-to-end metric it prints both medians and quartiles,
the share of pairs the change wins (runs are paired by seed; ties count for
neither side), and a verdict.  Both sets must hold the same seeds, and each
parent run must have run right before or after its change run (by the start
time in its record), so that a host that speeds up or slows down over a
session moves both sides alike; otherwise every verdict is unresolved.
The verdicts:

* improved   - the change wins at least 9 of 10 pairs, over at least 10
               pairs, and the medians differ by more than the parent's own
               quartile distance;
* unresolved - the parent's quartile distance, as a share of its median, is
               wider than the metric's bound, unless every change run reads
               better than every parent run;
* worse      - the change's median is worse than the parent's by more than
               the bound fixed in BENCHMARK.json;
* unchanged  - otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(directory: str) -> dict:
    """{workload: {seed: record}} for every record in the directory."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        env = record["environment"]
        if env["trace"]:
            continue
        runs.setdefault(env["workload"]["name"], {})[env["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(parent, change, better: str, bound: float) -> tuple[str, float, int]:
    """(verdict, change win share, pairs) for paired samples of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse_by = sign * (p_med - c_med) / p_med
    if len(pairs) >= MIN_PAIRS and win_share >= WIN_SHARE and worse_by < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", win_share, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", win_share, len(pairs)
    if worse_by > bound:
        return "worse", win_share, len(pairs)
    return "unchanged", win_share, len(pairs)


def unpaired_reason(parent_runs: dict, change_runs: dict) -> str | None:
    """Why the two sets' runs of one workload cannot be paired, or None.

    Runs pair by seed, and each pair must be adjacent in start time: no other
    run of the workload started between the parent run and its change run.
    """
    if set(parent_runs) != set(change_runs):
        return "the sets hold different seeds"
    try:
        order = sorted(
            [(r["environment"]["started_unix_s"], seed) for seed, r in parent_runs.items()]
            + [(r["environment"]["started_unix_s"], seed) for seed, r in change_runs.items()]
        )
    except KeyError:
        return "a record has no start time"
    position = {}
    for index, (_, seed) in enumerate(order):
        position.setdefault(seed, []).append(index)
    if any(abs(a - b) != 1 for a, b in position.values()):
        return "parent and change runs did not alternate in time"
    return None


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of run.py --out records")
    parser.add_argument("change", nargs="?", help="second directory; omit to show the spread of one set")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    parent = load_set(args.parent)
    change = load_set(args.change) if args.change else None
    if not parent:
        print(f"no untraced records in {args.parent}", file=sys.stderr)
        return 2

    status = 0
    for workload in sorted(parent):
        p_runs = parent[workload]
        if change is None:
            failed = sum(r["failed"] for r in p_runs.values())
            print(f"{workload}: {len(p_runs)} runs, {failed} failed jobs")
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in p_runs.values()]
                s = spread(values)
                flag = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
                print(f"  {m['name']:12s} {_fmt(values):36s} spread {s:7.2%} of bound {m['bound']:.0%}: {flag}")
            continue
        if workload not in change:
            print(f"{workload}: missing from {args.change}")
            status = 1
            continue
        c_runs = change[workload]
        unpaired = unpaired_reason(p_runs, c_runs)
        seeds = sorted(set(p_runs) & set(c_runs))
        failed = sum(r["failed"] for r in p_runs.values()), sum(r["failed"] for r in c_runs.values())
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, failed jobs {failed[0]} / {failed[1]}")
        if unpaired:
            print(f"  every verdict is unresolved: {unpaired}")
        if not seeds:
            continue
        for m in metrics:
            p = [p_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            c = [c_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            v, win, pairs = verdict(p, c, m["better"], m["bound"])
            if unpaired:
                v = "unresolved"
            if v == "worse":
                status = 1
            print(
                f"  {m['name']:12s} parent {_fmt(p):30s} change {_fmt(c):30s} "
                f"wins {win:4.0%} of {pairs:2d}  bound {m['bound']:.0%}  {v}"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
