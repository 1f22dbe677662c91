#!/usr/bin/env bash
# Regenerates bench-results/golden/<bench>.txt, the stdout of the paper and
# ablation benches that the bench_golden_<name> ctest entries compare byte for
# byte (cmake/GoldenBenches.cmake holds the bench list and their scales).
# Run it only after a change that is meant to move a printed figure, and
# commit the new files with that change.
#
# Usage:
#   scripts/update_bench_golden.sh [build_dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$(cd "${1:-$repo/build}" && pwd)"
cmake -DBENCH_DIR="$build_dir" -DGOLDEN_DIR="$repo/bench-results/golden" \
      -DWORK_DIR="$build_dir/bench_golden" -DUPDATE=ON \
      -P "$repo/cmake/BenchGoldenCheck.cmake"
