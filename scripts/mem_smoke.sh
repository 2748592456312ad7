#!/usr/bin/env bash
# Memory-budgeted streaming smoke gate. Builds the table5 harness and the
# CLI, then enforces the two windowed-linking invariants at small scale:
#
#   1. the detect-phase window peak stays under the budget (+slack), and
#   2. the windowed image is byte-identical to the monolithic one (cmp).
#
# table5_memory itself exits non-zero when its own shape checks fail
# (byte-identity across the budget sweep, bounded peak under a fixed budget
# while the unbudgeted peak grows with input size), so running it IS a gate,
# not just a report. Usage: scripts/mem_smoke.sh [build-dir] [scale]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SCALE="${2:-0.3}"
BUDGET=600000      # bytes; forces 2 windows of 8 groups at this scale
SLACK_PCT=25       # real peak may exceed the budget by at most this much

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j --target table5_memory calibro-dex2oat

echo "== mem-smoke: table5 shape gates (scale $SCALE) =="
(cd "$BUILD/bench" && ./table5_memory "$SCALE")

echo "== mem-smoke: CLI windowed-vs-monolithic (budget $BUDGET) =="
./"$BUILD"/tools/calibro-dex2oat --app Wechat --scale "$SCALE" --cto --ltbo \
  --partitions 8 --threads 4 -o "$BUILD/mono.oat" 2> "$BUILD/mono.log"
./"$BUILD"/tools/calibro-dex2oat --app Wechat --scale "$SCALE" --cto --ltbo \
  --partitions 8 --threads 4 --memory-budget "$BUDGET" \
  -o "$BUILD/win.oat" 2> "$BUILD/win.log"
cat "$BUILD/win.log"

# Identity: windowing may change when groups are detected, never the image.
cmp "$BUILD/mono.oat" "$BUILD/win.oat"

# Bound: the reported window peak must not exceed budget + slack. The CLI
# prints "window peak <N> bytes (budget <B>)".
PEAK=$(grep -oE 'window peak [0-9]+' "$BUILD/win.log" | grep -oE '[0-9]+')
test -n "$PEAK"
LIMIT=$(( BUDGET + BUDGET * SLACK_PCT / 100 ))
if (( PEAK > LIMIT )); then
  echo "mem-smoke: window peak $PEAK bytes exceeds budget $BUDGET (+${SLACK_PCT}% = $LIMIT)" >&2
  exit 1
fi
echo "mem-smoke: peak $PEAK <= $LIMIT, images identical — all green"
