#!/usr/bin/env bash
# Feature-cost ledger: build an optimized tree, run bench_overhead and
# write its record.  Exits with the harness's status: 0 every check and
# gate passed, 1 a validity check failed or the JSON could not be
# written, 3 only timing gates missed.  The rows, gates and checks are
# described in bench/bench_overhead.cpp; simulator speed per workload is
# perfbench/run.py.
#
# The record keeps an append-only `history`: before the new record
# replaces an existing one, the old record's commit, status and gate
# values (with its own history before them) are carried into it, so
# every run's before and after rows survive.
#
# Usage:
#   scripts/run_benches.sh                     # writes BENCH_overhead.json
#   BUILD=build-rel OUT=/tmp/o.json scripts/run_benches.sh
#   OUT=- scripts/run_benches.sh               # record to stdout, no history
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

[[ $OUT == - ]] && exec "$BUILD"/bench/bench_overhead --json -

# One compact line per earlier record, oldest first.
HISTORY=$(mktemp)
RECORD=$(mktemp)
trap 'rm -f "$HISTORY" "$RECORD"' EXIT
if [[ -s $OUT ]]; then
  jq -c '(.history // [])[],
         {commit: .host.commit, status,
          gates: [.rows[] | .name as $row
                  | .gates[] | {row: $row, name, value, pass}]}' \
    "$OUT" >"$HISTORY"
fi

status=0
"$BUILD"/bench/bench_overhead --json "$RECORD" || status=$?

# The harness ends its record with "  ]" and a lone "}": the history goes
# between them.
if [[ -s $RECORD ]]; then
  {
    sed '$d' "$RECORD" | sed '$s/$/,/'
    printf '  "history": [\n'
    sed -e 's/^/    /' -e '$!s/$/,/' "$HISTORY"
    printf '  ]\n}\n'
  } >"$OUT"
fi
exit "$status"
