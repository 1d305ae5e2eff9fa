#!/usr/bin/env bash
# Feature-cost ledger: build an optimized tree, run bench_overhead and
# write its record.  Exits with the harness's status: 0 every check and
# gate passed, 1 a validity check failed or the JSON could not be
# written, 3 only timing gates missed.  The rows, gates and checks are
# described in bench/bench_overhead.cpp; simulator speed per workload is
# perfbench/run.py.
#
# Usage:
#   scripts/run_benches.sh                     # writes BENCH_overhead.json
#   BUILD=build-rel OUT=/tmp/o.json scripts/run_benches.sh
#
# HMCSIM_OVERHEAD_REQUESTS and HMCSIM_OVERHEAD_REPS reach the harness
# through the environment.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build-release}
OUT=${OUT:-BENCH_overhead.json}
GEN=()
command -v ninja >/dev/null && GEN=(-G Ninja)

cmake -B "$BUILD" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target bench_overhead
exec "$BUILD"/bench/bench_overhead --json "$OUT"
