#!/usr/bin/env bash
# Local mirror of the CI gates (.github/workflows/ci.yml):
#   1. repo lints: lint_determinism.py + lint_contracts.py   (always; fast)
#   2. -Werror build + full ctest                            (always)
#   3. ASan+UBSan build + full ctest                         (skipped by --fast)
#   4. clang-tidy over src/                                  (skipped if missing)
#
# Usage: tools/lint.sh [--fast]
#   --fast   skip the sanitizer stage (stages 1, 2, 4 only)
#
# Exit codes follow the tools/metric_diff.py contract: 0 clean, 1 findings or
# test failures, 2 usage/internal error. Lint JSON reports land in
# build/lint-reports/ (uploaded as artifacts by the CI `lint` job).
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== stage 1: repo lints (determinism + contracts) =="
mkdir -p build/lint-reports
python3 tools/lint_determinism.py --self-test
python3 tools/lint_contracts.py --self-test
python3 tools/lint_determinism.py --json build/lint-reports/determinism.json src
python3 tools/lint_contracts.py --json build/lint-reports/contracts.json src

echo "== stage 2: -Werror build + ctest =="
cmake --preset werror >/dev/null
cmake --build --preset werror -j "$jobs"
ctest --test-dir build-werror --output-on-failure

if [[ "$fast" == 0 ]]; then
  echo "== stage 3: ASan+UBSan build + ctest =="
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j "$jobs"
  ctest --preset asan-ubsan
else
  echo "== stage 3: skipped (--fast) =="
fi

echo "== stage 4: clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # The default preset exports compile_commands.json; configure it if absent.
  [[ -f build/compile_commands.json ]] || cmake --preset default >/dev/null
  mapfile -t sources < <(find src -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet -j "$jobs" "${sources[@]}"
  else
    clang-tidy -p build --quiet "${sources[@]}"
  fi
else
  echo "clang-tidy not installed; skipping (CI runs it)"
fi

echo "lint OK"
