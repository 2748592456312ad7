#!/bin/sh
# Malformed numeric values and unknown flags must make every tool print
# usage and exit 2, before any app is built or any file is read, and
# auditing a missing cache directory must fail without creating it. A
# daemon whose global memory budget leaves a job less than one byte must
# not start, and calibro-run must pass a negative --args value through:
#
#   tests/cli_flags.sh <calibro-dex2oat> <calibro-compiled> \
#                      <calibro-oatdump> <calibro-run> <scratch dir>
set -u
DEX2OAT=$1
COMPILED=$2
OATDUMP=$3
RUN=$4
OUT=$5/cli_flags.oat
GOOD=$5/cli_flags_good.oat
MISSING=$5/cli_flags_no_cache
FAILED=0

expect2() {
  DESC=$1
  shift
  "$@" </dev/null >/dev/null 2>&1
  RC=$?
  if [ "$RC" -ne 2 ]; then
    echo "FAIL: $DESC exited $RC, want 2"
    FAILED=1
  fi
}

job() {
  printf '%s\n' "$1" | "$COMPILED" --threads 1 --jobs 1
}

expect2 "--partitions -1" "$DEX2OAT" --cto --ltbo --partitions -1 -o "$OUT"
expect2 "--partitions 4097" "$DEX2OAT" --cto --ltbo --partitions 4097 -o "$OUT"
expect2 "--scale abc" "$DEX2OAT" --scale abc -o "$OUT"
expect2 "--seed 12x" "$DEX2OAT" --seed 12x -o "$OUT"
expect2 "--memory-budget 99999999999999999999" \
  "$DEX2OAT" --memory-budget 99999999999999999999 -o "$OUT"
expect2 "--threads -4" "$DEX2OAT" --threads -4 -o "$OUT"
expect2 "daemon --partitions -1" "$COMPILED" --partitions -1
expect2 "daemon --partitions 4097" "$COMPILED" --partitions 4097
expect2 "daemon --jobs x" "$COMPILED" --jobs x
expect2 "job scale=abc" job "app=Wechat scale=abc out=$OUT"
expect2 "job seed=-1" job "app=Wechat scale=0.3 seed=-1 out=$OUT"
expect2 "job budget=1e6" job "app=Wechat scale=0.3 budget=1e6 out=$OUT"
expect2 "oatdump --page-size 4k" \
  "$OATDUMP" --layout-order --page-size 4k "$OUT"
expect2 "oatdump --callgraph --scale abc" "$OATDUMP" --callgraph --scale abc
expect2 "oatdump --callgraph --seed -1" "$OATDUMP" --callgraph --seed -1
expect2 "oatdump --disasmm" "$OATDUMP" --disasmm "$OUT"
expect2 "run --method x" "$RUN" "$OUT" --method x
expect2 "run --args 5x" "$RUN" "$OUT" --args 5x
expect2 "run --trcae" "$RUN" "$OUT" --trcae

if ! "$DEX2OAT" --app Toutiao --scale 0.1 -o "$GOOD" >/dev/null 2>&1; then
  echo "FAIL: building $GOOD failed"
  FAILED=1
fi
if ! "$RUN" "$GOOD" --method 0 --args -5 >/dev/null 2>&1; then
  echo "FAIL: run --args -5 failed"
  FAILED=1
fi
expect2 "run --args -5x" "$RUN" "$GOOD" --method 0 --args -5x
rm -f "$GOOD"

if "$COMPILED" --jobs 2 --global-memory-budget 1 </dev/null >/dev/null 2>&1
then
  echo "FAIL: daemon --jobs 2 --global-memory-budget 1 exited 0"
  FAILED=1
fi

rm -rf "$MISSING"
"$OATDUMP" --cache-audit "$MISSING" >/dev/null 2>&1
RC=$?
if [ "$RC" -eq 0 ]; then
  echo "FAIL: --cache-audit of a missing directory exited 0"
  FAILED=1
fi
if [ -e "$MISSING" ]; then
  echo "FAIL: --cache-audit created $MISSING"
  FAILED=1
fi
if [ -e "$OUT" ]; then
  echo "FAIL: a rejected command wrote $OUT"
  FAILED=1
fi
exit $FAILED
