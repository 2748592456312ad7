#!/usr/bin/env bash
# Tier-1 verification cycle plus sanitizer passes over the verification
# suite. Usage: scripts/check.sh [mode] [build-dir]
#   mode: all (default) | tier1 | asan | tsan
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-all}"
BUILD="${2:-build}"

case "$MODE" in
  all|tier1|asan|tsan) ;;
  *) echo "usage: scripts/check.sh [all|tier1|asan|tsan] [build-dir]" >&2
     exit 2 ;;
esac

if [[ "$MODE" == all || "$MODE" == tier1 ]]; then
  echo "== tier-1: configure + build + full test suite =="
  cmake -B "$BUILD" -S .
  cmake --build "$BUILD" -j
  ctest --test-dir "$BUILD" --output-on-failure -j
fi

if [[ "$MODE" == all || "$MODE" == asan ]]; then
  # A Debug build, so assert() and the HGraph verifier that runPipeline
  # runs after every pass are live here; the tier-1 build defines NDEBUG.
  echo "== sanitizers: ASan+UBSan asserts-on build of the verification suite =="
  SAN_BUILD="${BUILD}-asan"
  cmake -B "$SAN_BUILD" -S . -DCALIBRO_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=Debug
  cmake --build "$SAN_BUILD" -j \
        --target test_verify test_outliner test_suffixtree \
                 test_serialize test_faultinject test_cache test_analysis \
                 test_service test_layout test_hir test_codegen test_oat \
                 test_dex
  ctest --test-dir "$SAN_BUILD" --output-on-failure \
        -R '^(test_verify|test_outliner|test_suffixtree|test_serialize|test_faultinject|test_cache|test_analysis|test_service|test_layout|test_hir|test_codegen|test_oat|test_dex)$'
fi

if [[ "$MODE" == all || "$MODE" == tsan ]]; then
  echo "== sanitizers: TSan build of the parallel link-stage suite =="
  TSAN_BUILD="${BUILD}-tsan"
  cmake -B "$TSAN_BUILD" -S . -DCALIBRO_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j --target test_parallel test_support \
                                          test_faultinject test_cache \
                                          test_analysis test_service \
                                          test_layout test_codegen \
                                          test_dex
  ctest --test-dir "$TSAN_BUILD" --output-on-failure \
        -R '^(test_parallel|test_support|test_faultinject|test_cache|test_analysis|test_service|test_layout|test_codegen|test_dex)$'
fi

echo "check.sh ($MODE): all green"
