#!/bin/sh
# Malformed numeric values must make both build front ends print usage and
# exit 2, before any app is built:
#
#   tests/cli_flags.sh <calibro-dex2oat> <calibro-compiled> <scratch dir>
set -u
DEX2OAT=$1
COMPILED=$2
OUT=$3/cli_flags.oat
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
expect2 "--scale abc" "$DEX2OAT" --scale abc -o "$OUT"
expect2 "--seed 12x" "$DEX2OAT" --seed 12x -o "$OUT"
expect2 "--memory-budget 99999999999999999999" \
  "$DEX2OAT" --memory-budget 99999999999999999999 -o "$OUT"
expect2 "--threads -4" "$DEX2OAT" --threads -4 -o "$OUT"
expect2 "daemon --partitions -1" "$COMPILED" --partitions -1
expect2 "daemon --jobs x" "$COMPILED" --jobs x
expect2 "job scale=abc" job "app=Wechat scale=abc out=$OUT"
expect2 "job seed=-1" job "app=Wechat scale=0.3 seed=-1 out=$OUT"
expect2 "job budget=1e6" job "app=Wechat scale=0.3 budget=1e6 out=$OUT"
if [ -e "$OUT" ]; then
  echo "FAIL: a rejected command wrote $OUT"
  FAILED=1
fi
exit $FAILED
