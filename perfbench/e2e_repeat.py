#!/usr/bin/env python3
"""Repeatability tool for the end-to-end benchmark.

Runs each workload K times in fresh processes (seeds 1..K), prints every
end-to-end metric's median and quartiles, and fails when a metric's spread
(Q3 - Q1) / median exceeds its bound in BENCHMARK.json.

Run from the repository root:

  python3 perfbench/e2e_repeat.py -k 5                    # all workloads
  python3 perfbench/e2e_repeat.py -k 5 --trace --record parent
  python3 perfbench/e2e_repeat.py --compare parent change

--record appends the set (and, with --trace, one traced run per workload) to
perfbench/results/BENCH_e2e.json. --compare checks the medians of two
recorded sets against the bounds, e.g. a parent commit against a change.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(REPO, "perfbench", "results", "BENCH_e2e.json")


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != expected:
        raise SystemExit(f"{workload} seed {seed}: metrics or units differ "
                         f"from BENCHMARK.json")
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def check_spreads(spec, workload, runs):
    """Prints one row per end-to-end metric; returns False if any fails."""
    ok = True
    print(f"\n== {workload}: {len(runs)} runs")
    print(f"{'metric':26} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'/bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        s = summarize([r["metrics"][name] for r in runs])
        spread = (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0
        verdict = "ok" if spread <= bound else "FAIL"
        ok = ok and verdict == "ok"
        same = len({r["metrics"][name] for r in runs}) == 1
        print(f"{name:26} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {spread:8.4f} {bound:6.3f} "
              f"{spread / bound:6.2f} {verdict}"
              f"{' (identical in every run)' if same else ''}")
    return ok


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_results():
    if os.path.exists(RESULTS):
        with open(RESULTS) as f:
            return json.load(f)
    return {"sets": []}


def compare(spec, results, base_label, new_label):
    sets = {s["label"]: s for s in results["sets"]}
    base, new = sets[base_label], sets[new_label]
    ok = True
    print(f"{'workload':10} {'metric':26} {base_label:>14} {new_label:>14} "
          f"{'worse':>8} {'bound':>6}")
    for workload in base["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base["workloads"][workload]["summary"][name]["median"]
            n = new["workloads"][workload]["summary"][name]["median"]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (n - b) / abs(b) if b else 0.0
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{workload:10} {name:26} {b:14.6g} {n:14.6g} "
                  f"{worse:8.4f} {metric['bound']:6.3f} {verdict}")
    return ok


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("-k", type=int, default=5, help="runs per workload")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true",
                        help="also make one traced run per workload")
    parser.add_argument("--record", metavar="LABEL",
                        help="append this set to the results file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two recorded sets and exit")
    args = parser.parse_args()

    if args.compare:
        return 0 if compare(spec, load_results(), *args.compare) else 1

    record = {"label": args.record, "git_rev": git_rev(),
              "nproc": os.cpu_count(), "seconds": spec["run_seconds"],
              "k": args.k,
              "seeds": list(range(1, args.k + 1)),
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, seed, False)
                for seed in record["seeds"]]
        ok = check_spreads(spec, workload, runs) and ok
        entry = {"runs": runs, "summary": {
            m["name"]: summarize([r["metrics"][m["name"]] for r in runs])
            for m in spec["end_to_end"]}}
        if args.trace:
            entry["traced"] = run_once(spec, workload, 1, True)
        record["workloads"][workload] = entry

    if args.record:
        results = load_results()
        results["sets"].append(record)
        os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
        with open(RESULTS, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"\nrecorded set '{args.record}' in {RESULTS}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
