#!/usr/bin/env python3
"""Compare the last run of two bench trajectory files field by field.

Usage: scripts/bench_rows_diff.py [--threads N] A.json B.json

A and B are trajectory files written by bench_concurrent_tpcw or
bench_overload (bench-results/BENCH_*.json layout: {"runs": [...]}). The
last run object of each is compared recursively -- run-level fields, every
`results` row and every `metrics` registry snapshot -- ignoring only
`timestamp`. Each difference prints as `path: a -> b`. Exits 0 when the
runs are identical, 1 when they differ, 2 on unreadable input.

With --threads N, only the `results` rows with that thread count are
compared, paired by system and mix; run-level fields and registry
snapshots, which cover every thread count of a run, are not. This compares
two runs with different SYNERGY_BENCH_THREADS. A row only one run has (the
failover row runs at each run's largest thread count) is listed and
skipped. Exits 1 if no row pairs.
"""

import argparse
import json
import sys

IGNORED = {"timestamp"}


def last_run(path):
    with open(path) as f:
        runs = json.load(f)["runs"]
    if not runs:
        raise ValueError(f"{path}: no runs")
    return runs[-1]


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in IGNORED:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a:
                out.append(f"{sub}: <absent> -> {json.dumps(b[key])}")
            elif key not in b:
                out.append(f"{sub}: {json.dumps(a[key])} -> <absent>")
            else:
                diff(a[key], b[key], sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} entries -> {len(b)} entries")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {json.dumps(a)} -> {json.dumps(b)}")


def rows_at(run, threads):
    """The run's `results` rows with `threads` clients, keyed by system/mix."""
    return {f"{r['system']}/{r['mix']}": r for r in run["results"]
            if r["threads"] == threads}


def diff_rows(a, b, threads, out):
    """Diffs the paired rows into `out`; returns how many rows paired."""
    a_rows, b_rows = rows_at(a, threads), rows_at(b, threads)
    for key in sorted(set(a_rows) ^ set(b_rows)):
        side = "A" if key in a_rows else "B"
        print(f"skipped: {key} (threads={threads}) is only in {side}")
    paired = sorted(set(a_rows) & set(b_rows))
    for key in paired:
        diff(a_rows[key], b_rows[key], key, out)
    return len(paired)


def main(argv):
    parser = argparse.ArgumentParser(
        usage="%(prog)s [--threads N] A.json B.json")
    parser.add_argument("--threads", type=int)
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv[1:])
    try:
        a, b = last_run(args.a), last_run(args.b)
        out = []
        if args.threads is None:
            diff(a, b, "", out)
            what = "last run"
        else:
            if diff_rows(a, b, args.threads, out) == 0:
                print(f"bench_rows_diff: no threads={args.threads} row in "
                      "both runs", file=sys.stderr)
                return 1
            what = f"threads={args.threads} rows of the last run"
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_rows_diff: {e}", file=sys.stderr)
        return 2
    for line in out:
        print(line)
    if out:
        print(f"{len(out)} field(s) differ", file=sys.stderr)
        return 1
    print(f"identical: {args.a} == {args.b} ({what}, timestamp ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
