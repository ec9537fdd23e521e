#!/usr/bin/env bash
# Repo verification gate:
#   1. tier-1: configure, build, and run the full ctest suite, then
#      configure and build a Release (-O3) tree in build-release/ so an
#      optimizer-only warning fails here, under -Werror, and not first
#      in CI
#   2. lint: the trace validator over all shipped kernels with warnings
#      promoted to errors (tools/unimem_lint --Werror); the
#      machine-readable report is written to build/lint_report.json for
#      CI to archive
#   3. concurrency: rebuild the worker pool, the sweep engine and the
#      chip golden under ThreadSanitizer and run test_common (the
#      pool's own dispatch tests), test_sweep and test_chip_determinism
#      (independent ChipModels side by side on one worker pool, as
#      reproduce ext_chip_validation runs them) to catch data races
#      the functional suite cannot see
#   4. memory: rebuild the analyzer, integration and reference-SM
#      differential tests, the footprint-pass oracle and the trace
#      parser's TraceIo cases under AddressSanitizer+UBSan and run them
#      with halt_on_error (the differential test drives the whole SM
#      issue path of both SmModel and the per-cycle reference; the
#      oracle and the parser are the code a hostile trace reaches)
#   5. tidy (opt-in via --tidy): clang-tidy over src/ using the compile
#      database; skipped with a notice when clang-tidy is absent
#
# Usage: scripts/check.sh [--tier1-only] [--tsan-only] [--asan-only]
#                         [--lint-only] [--tidy]
# Release and sanitizer trees live in build-release/, build-tsan/ and
# build-asan/ so they never pollute the main build; all build trees
# are .gitignore'd.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
run_tier1=1
run_lint=1
run_tsan=1
run_asan=1
run_tidy=0
for arg in "$@"; do
    case "$arg" in
      --tier1-only) run_lint=0; run_tsan=0; run_asan=0 ;;
      --lint-only)  run_tier1=0; run_tsan=0; run_asan=0 ;;
      --tsan-only)  run_tier1=0; run_lint=0; run_asan=0 ;;
      --asan-only)  run_tier1=0; run_lint=0; run_tsan=0 ;;
      --tidy)       run_tidy=1 ;;
      *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

if [[ $run_tier1 -eq 1 ]]; then
    echo "=== tier-1: build + ctest ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    ctest --test-dir build --output-on-failure -j "$JOBS"

    echo "=== tier-1: Release build (-O3, -Werror) ==="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$JOBS"
fi

if [[ $run_lint -eq 1 ]]; then
    echo "=== lint: trace validator (-Werror) ==="
    if [[ ! -x build/tools/unimem_lint ]]; then
        cmake -B build -S . >/dev/null
        cmake --build build -j "$JOBS" --target unimem_lint
    fi
    # The JSON report is the CI artifact; the summary line it prints on
    # stderr is the console evidence.
    ./build/tools/unimem_lint --Werror --jobs="$JOBS" --json \
        > build/lint_report.json
fi

if [[ $run_tsan -eq 1 ]]; then
    echo "=== ThreadSanitizer: worker pool + sweep engine + concurrent chips ==="
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
    cmake --build build-tsan -j "$JOBS" --target test_common \
        --target test_sweep --target test_chip_determinism
    # TSAN_OPTIONS halt_on_error makes any race a hard failure.
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_common
    TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_sweep
    TSAN_OPTIONS="halt_on_error=1" \
        ./build-tsan/tests/test_chip_determinism
fi

if [[ $run_asan -eq 1 ]]; then
    echo "=== AddressSanitizer+UBSan: analyzer + integration + SM issue path + trace input ==="
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
    cmake --build build-asan -j "$JOBS" \
        --target test_analysis --target test_integration \
        --target test_reference_sm --target test_footprint \
        --target test_arch --target unimem_lint
    export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
    export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
    ./build-asan/tests/test_analysis
    ./build-asan/tests/test_integration
    ./build-asan/tests/test_reference_sm
    ./build-asan/tests/test_footprint
    ./build-asan/tests/test_arch --gtest_filter='TraceIo.*'
    ./build-asan/tools/unimem_lint --Werror --jobs="$JOBS"
fi

if [[ $run_tidy -eq 1 ]]; then
    echo "=== clang-tidy: src/ via compile database ==="
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed; skipping tidy gate" >&2
    else
        cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
        mapfile -t tidy_files < <(find src tools -name '*.cc' -o -name '*.cpp')
        clang-tidy -p build --quiet --warnings-as-errors='*' \
            "${tidy_files[@]}"
    fi
fi

echo "=== check.sh: all gates passed ==="
