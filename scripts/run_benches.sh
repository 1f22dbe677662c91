#!/usr/bin/env bash
# Runs every paper benchmark and saves its output under bench-results/.
#
# Usage:
#   scripts/run_benches.sh [build_dir]
#
# Scale knobs (see docs/BENCHMARKS.md):
#   SYNERGY_TPCW_CUSTOMERS  TPC-W scale (default: each bench's own default)
#   SYNERGY_BENCH_REPS      repetitions per statement (paper: 10)
#
# Besides the per-bench .txt transcripts, this appends one machine-readable
# datapoint per invocation to bench-results/BENCH_exec_hotpath.json (rows/sec
# for the executor hash join, aggregation, top-N, the key codec, the
# Cluster Put/Get rungs, the txn submit rung and the Synergy Order_line load
# rung), giving the repo a perf trajectory across PRs.
# bench_concurrent_tpcw and bench_overload likewise append to
# BENCH_concurrent_tpcw.json and BENCH_overload.json themselves, in the
# directory SYNERGY_BENCH_RESULTS_DIR names, which this script sets to
# bench-results/ (the overload sweep also enforces its goodput/p99
# acceptance gate past saturation — a regression fails the run).
set -euo pipefail

build_dir="${1:-build}"
out_dir="bench-results"

if [[ ! -d "$build_dir" ]]; then
  echo "error: build dir '$build_dir' not found; run cmake first" >&2
  exit 1
fi

mkdir -p "$out_dir"
# The benches that append trajectory rows do so only where this names.
export SYNERGY_BENCH_RESULTS_DIR="$out_dir"
# Stale JSON from a previous invocation must not be re-appended to the
# trajectory under this run's git rev/label.
rm -f "$out_dir/bench_micro_components.json"

# Benches that append their own trajectory datapoints (bench_concurrent_tpcw)
# record the rev they measured. A dirty tree (incl. staged/untracked files)
# means the measured code is not the commit's code.
git_rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
[[ -z "$(git status --porcelain 2>/dev/null)" ]] || git_rev="${git_rev}-dirty"
export SYNERGY_GIT_REV="$git_rev"
shopt -s nullglob
benches=("$build_dir"/bench_*)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench_* binaries in '$build_dir'" >&2
  exit 1
fi

for bench in "${benches[@]}"; do
  name="$(basename "$bench")"
  echo "=== $name"
  if [[ "$name" == "bench_micro_components" ]]; then
    # Tee the human-readable table AND capture the structured JSON.
    "$bench" --benchmark_out="$out_dir/$name.json" \
             --benchmark_out_format=json | tee "$out_dir/$name.txt"
  else
    "$bench" | tee "$out_dir/$name.txt"
  fi
  echo
done

# --------------------------------------------------------------------------
# Fold the micro-component numbers into BENCH_exec_hotpath.json: an array of
# runs, one appended per invocation, each recording rows/sec (items_per_second
# where the benchmark sets it) and ns/op for the executor hot-path, codec,
# Cluster RPC, txn submit and Synergy load benchmarks. This file is committed
# so the perf trajectory survives in git.
# --------------------------------------------------------------------------
if [[ -f "$out_dir/bench_micro_components.json" ]]; then
  python3 - "$out_dir" "$git_rev" <<'PYEOF'
import json, sys, datetime, os

out_dir, git_rev = sys.argv[1], sys.argv[2]
src = os.path.join(out_dir, "bench_micro_components.json")
dst = os.path.join(out_dir, "BENCH_exec_hotpath.json")

with open(src) as f:
    raw = json.load(f)

keep = ("BM_ExecutorHashJoin", "BM_ExecutorAgg", "BM_ExecutorTopN",
        "BM_ExecutorPointLookup", "BM_CodecEncodeKey", "BM_CodecDecodeKey",
        "BM_ClusterPut", "BM_ClusterGet", "BM_TxnSubmitNoop",
        "BM_SynergyLoadOrderLine")
metrics = {}
for b in raw.get("benchmarks", []):
    name = b.get("name", "")
    if name not in keep:
        continue
    entry = {"ns_per_op": round(b["real_time"], 2)}
    if "items_per_second" in b:
        entry["rows_per_sec"] = round(b["items_per_second"], 1)
    metrics[name] = entry

run = {
    "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"),
    "git_rev": git_rev,
    "label": os.environ.get("SYNERGY_BENCH_LABEL", ""),
    "metrics": metrics,
}

doc = {"description":
       "Executor hot-path throughput trajectory (see docs/BENCHMARKS.md)",
       "runs": []}
if os.path.exists(dst):
    try:
        with open(dst) as f:
            doc = json.load(f)
    except json.JSONDecodeError:
        pass
doc.setdefault("runs", []).append(run)
with open(dst, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"Appended hot-path datapoint to {dst}:")
for name, m in metrics.items():
    rps = f"  {m['rows_per_sec']:>14,.0f} rows/s" if "rows_per_sec" in m else ""
    print(f"  {name:<24} {m['ns_per_op']:>12,.0f} ns/op{rps}")
PYEOF
fi
echo "Results written to $out_dir/"
