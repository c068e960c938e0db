#!/usr/bin/env bash
# Regenerates BENCH_solver.json (committed at the repo root) from the
# benchmark binaries that support --json output: bench_bi, bench_leia,
# and bench_server_throughput (the SERVED family:
# resident-session cold vs warm-after-edit solves plus sustained
# 4-client throughput, with a hard >=50% transformer-reuse floor) — then
# smoke-tests the checker pipeline with a gen-corpus / verify-corpus
# round trip.
#
# Repetitions are fixed by the harness itself (bench/BenchUtil.h): each
# analysis is timed over 5 runs with a 20% trimmed mean, so successive invocations of this script are
# comparable trajectory points. The google-benchmark timing loops the
# binaries also register are skipped (--benchmark_filter matching nothing)
# — the JSON records come from the table harness, not from gbench.
#
# Every binary invocation goes through run_checked, which propagates the
# exact child exit status; a failure in any stage — bench binary, pmaf
# subcommand, or the JSON merge — fails the whole script loudly. Keep that
# invariant when adding stages.
#
# Usage: tools/run_benchmarks.sh [build-dir]   (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$REPO_ROOT/BENCH_solver.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Runs "$@" and exits with the child's status on failure, naming the
# culprit. Commands guarded by `if`/`||` escape `set -e`; this does not.
run_checked() {
  local STATUS=0
  "$@" || STATUS=$?
  if [ "$STATUS" -ne 0 ]; then
    echo "error: '$1' exited with status $STATUS (see output above)" >&2
    exit "$STATUS"
  fi
}

require_binary() {
  if [ ! -x "$1" ]; then
    echo "error: $1 not built (cmake --build $BUILD_DIR first)" >&2
    exit 1
  fi
}

BENCHES=(bench_bi bench_leia bench_server_throughput)

for BENCH in "${BENCHES[@]}"; do
  BIN="$BUILD_DIR/bench/$BENCH"
  require_binary "$BIN"
  echo "== $BENCH"
  run_checked "$BIN" --json="$TMP/$BENCH.json" --benchmark_filter='^$'
  if [ ! -s "$TMP/$BENCH.json" ]; then
    echo "error: $BENCH wrote no JSON to $TMP/$BENCH.json" >&2
    exit 1
  fi
done

python3 - "$TMP" "$OUT" "${BENCHES[@]}" <<'EOF'
import json, pathlib, sys

tmp, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
merged = {name: json.loads((tmp / f"{name}.json").read_text())
          for name in sys.argv[3:]}
out.write_text(json.dumps(merged, indent=2) + "\n")
print(f"wrote {out}")
EOF

# Checker smoke: a seeded corpus round trip. verify-corpus exits nonzero
# on any crash, failed file, or soundness violation, and run_checked
# propagates that — benchmarks from a build whose checker is unsound
# should never be recorded.
PMAF="$BUILD_DIR/tools/pmaf"
require_binary "$PMAF"
echo "== verify-corpus smoke"
run_checked "$PMAF" gen-corpus "$TMP/corpus" --count=50 --seed=1
run_checked "$PMAF" verify-corpus "$TMP/corpus" --jobs=4 --seed=1 \
  --out="$TMP/checksdb.json"
if [ ! -s "$TMP/checksdb.json" ]; then
  echo "error: verify-corpus wrote no ChecksDb JSON" >&2
  exit 1
fi
