#!/usr/bin/env python3
"""Compare the last run of two bench trajectory files field by field.

Usage: scripts/bench_rows_diff.py A.json B.json

A and B are trajectory files written by bench_concurrent_tpcw or
bench_overload (bench-results/BENCH_*.json layout: {"runs": [...]}). The
last run object of each is compared recursively -- run-level fields, every
`results` row and every `metrics` registry snapshot -- ignoring only
`timestamp`. Each difference prints as `path: a -> b`. Exits 0 when the
runs are identical, 1 when they differ, 2 on unreadable input.
"""

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


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        a, b = last_run(argv[1]), last_run(argv[2])
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_rows_diff: {e}", file=sys.stderr)
        return 2
    out = []
    diff(a, b, "", out)
    for line in out:
        print(line)
    if out:
        print(f"{len(out)} field(s) differ", file=sys.stderr)
        return 1
    print(f"identical: {argv[1]} == {argv[2]} (last run, timestamp ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
