#!/usr/bin/env bash
# Tracked simulator performance benchmark (host wall-clock).
#
# Builds bench/perf_harness in an optimized tree (build-bench/, Release,
# NDEBUG) and runs it, emitting BENCH_results.json at the repo root.
# Modes:
#   scripts/bench.sh                 full run (scale 0.1, 3 repetitions)
#   scripts/bench.sh --smoke         CI quick mode (scale 0.05, 1 rep)
#   scripts/bench.sh --compare=REF   also build REF in a throwaway git
#                                    worktree (this commit's harness is
#                                    copied in, so both sides time the
#                                    identical composite and kernel
#                                    phase on the same machine), run
#                                    the two binaries in alternating
#                                    rounds (UNIMEM_BENCH_COMPARE_ROUNDS,
#                                    default 3) so sustained frequency
#                                    drift can't land in the ratio, and
#                                    report best-of-rounds new-vs-REF
#                                    speedups
#   scripts/bench.sh --profile       profile the kernel phase instead of
#                                    benchmarking: runs perf_harness
#                                    --kernel-only under `perf stat`
#                                    (cycles, cache and branch misses)
#                                    when perf is available, else under
#                                    a gprof (-pg) build, and writes the
#                                    report to BENCH_profile.txt
# Extra flags (--scale=, --jobs=, --repeat=, --kernel=, --no-cache,
# --gate=) are forwarded to perf_harness. UNIMEM_BENCH_REPEAT raises
# the default repetition count on noisy machines; rates come from each
# phase's best rep, so more reps tighten the estimate. The build tree
# is .gitignore'd.
#
# Every run also appends one line to BENCH_history.jsonl (commit, date,
# cold and warm composite seconds, per-phase best seconds, kernel,
# irregular-kernel and chip-sim throughput) so the tracked numbers
# accumulate a per-commit trail.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
compare_ref=""
profile=0
harness_flags=()
for arg in "$@"; do
    case "$arg" in
      --compare=*) compare_ref="${arg#--compare=}" ;;
      --compare) echo "use --compare=REF" >&2; exit 2 ;;
      --profile) profile=1 ;;
      *) harness_flags+=("$arg") ;;
    esac
done

build_harness() { # build_harness <srcdir> <builddir>
    cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$2" -j "$JOBS" --target perf_harness >/dev/null
}

if [[ "$profile" == 1 ]]; then
    echo "=== bench: profiling the kernel phase ==="
    if command -v perf >/dev/null 2>&1 &&
       perf stat -e cycles true >/dev/null 2>&1; then
        build_harness . build-bench
        perf stat -e cycles,instructions,L1-dcache-loads,L1-dcache-load-misses,branch-misses \
            -o BENCH_profile.txt -- \
            ./build-bench/bench/perf_harness --kernel-only \
            --out=/dev/null ${harness_flags[@]+"${harness_flags[@]}"}
    else
        # No usable perf (common in containers): fall back to gprof via
        # a -pg instrumented tree. Self-time percentages are usable;
        # call counts on this path are not always reliable.
        echo "=== bench: perf unavailable, using gprof fallback ==="
        cmake -B build-gprof -S . -DCMAKE_BUILD_TYPE=Release \
            -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg" \
            >/dev/null
        cmake --build build-gprof -j "$JOBS" --target perf_harness \
            >/dev/null
        (cd build-gprof && ./bench/perf_harness --kernel-only \
            --out=/dev/null ${harness_flags[@]+"${harness_flags[@]}"})
        gprof -b build-gprof/bench/perf_harness build-gprof/gmon.out \
            > BENCH_profile.txt
    fi
    echo "=== bench: wrote BENCH_profile.txt ==="
    exit 0
fi

echo "=== bench: building perf_harness (Release) ==="
build_harness . build-bench

echo "=== bench: running perf_harness ==="
./build-bench/bench/perf_harness --out=BENCH_results.json \
    ${harness_flags[@]+"${harness_flags[@]}"}

# One JSON line per run: enough to plot the trend without digging
# through CI artifacts. jq-free extraction relies on the harness's
# fixed key layout.
json_num() { # json_num <file> <key>
    sed -n "s/.*\"$2\": \([0-9.eE+-]*\).*/\1/p" "$1" | head -n1
}
phase_best() { # phase_best <file> <phase>
    sed -n "s/.*\"name\": \"$2\".*\"best_s\": \([0-9.eE+-]*\).*/\1/p" \
        "$1" | head -n1
}
{
    printf '{"commit": "%s", "date": "%s"' \
        "$(git describe --always --dirty 2>/dev/null || echo unknown)" \
        "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf ', "composite_s": %s' "$(json_num BENCH_results.json composite_s)"
    printf ', "composite_warm_s": %s' \
        "$(json_num BENCH_results.json composite_warm_s)"
    printf ', "phase_best_s": {"fig8": %s, "autotune": %s, "kernel": %s, "kernel_irr": %s, "chip": %s}' \
        "$(phase_best BENCH_results.json fig8)" \
        "$(phase_best BENCH_results.json autotune)" \
        "$(phase_best BENCH_results.json kernel)" \
        "$(phase_best BENCH_results.json kernel_irr)" \
        "$(phase_best BENCH_results.json chip)"
    printf ', "kernel_sim_cycles_per_s": %s' \
        "$(json_num BENCH_results.json kernel_sim_cycles_per_s)"
    printf ', "kernel_irr_sim_cycles_per_s": %s' \
        "$(json_num BENCH_results.json kernel_irr_sim_cycles_per_s)"
    printf ', "chip_sim_cycles_per_s": %s}\n' \
        "$(json_num BENCH_results.json chip_sim_cycles_per_s)"
} >> BENCH_history.jsonl
echo "=== bench: appended BENCH_history.jsonl ==="

if [[ -n "$compare_ref" ]]; then
    worktree=$(mktemp -d /tmp/unimem-bench-ref.XXXXXX)
    trap 'git worktree remove --force "$worktree" >/dev/null 2>&1 || true
          rm -rf "$worktree"' EXIT
    echo "=== bench: building $compare_ref for comparison ==="
    git worktree add --detach --force "$worktree" "$compare_ref" >/dev/null
    # Time the identical composite on both sides: ship this commit's
    # harness into the reference tree (it degrades gracefully on
    # commits that predate the result cache).
    cp bench/perf_harness.cc "$worktree/bench/perf_harness.cc"
    if ! grep -q 'perf_harness' "$worktree/bench/CMakeLists.txt"
    then
        echo 'unimem_bench(perf_harness perf_harness.cc)' \
            >> "$worktree/bench/CMakeLists.txt"
    fi
    build_harness "$worktree" "$worktree/build-bench"

    # Interleave the two sides. A single new-then-ref sequence puts
    # minutes (including a full ref build) between the runs being
    # compared, so sustained host frequency drift lands squarely in
    # the ratio; alternating ref/new rounds on the already-built
    # binaries and comparing best-of-rounds per side cancels it.
    rounds=${UNIMEM_BENCH_COMPARE_ROUNDS:-3}
    ref_s="" ; ref_k="" ; ref_i="" ; ref_c=""
    new_s=$(json_num BENCH_results.json composite_s)
    new_k=$(json_num BENCH_results.json kernel_sim_cycles_per_s)
    new_i=$(json_num BENCH_results.json kernel_irr_sim_cycles_per_s)
    new_c=$(json_num BENCH_results.json chip_sim_cycles_per_s)
    best() { # best <min|max> <a> <b>  (empty operands pass through)
        awk -v op="$1" -v a="$2" -v b="$3" 'BEGIN {
            if (a == "") { print b; exit }
            if (b == "") { print a; exit }
            if ((op == "max") == (a + 0 > b + 0)) print a; else print b
        }'
    }
    for ((round = 1; round <= rounds; ++round)); do
        echo "=== bench: compare round $round/$rounds ==="
        (cd "$worktree" && ./build-bench/bench/perf_harness \
            --out="$worktree/BENCH_ref.json" \
            ${harness_flags[@]+"${harness_flags[@]}"}) >/dev/null
        ./build-bench/bench/perf_harness --out=BENCH_cmp.json \
            ${harness_flags[@]+"${harness_flags[@]}"} >/dev/null
        ref_s=$(best min "$ref_s" "$(json_num "$worktree/BENCH_ref.json" composite_s)")
        ref_k=$(best max "$ref_k" "$(json_num "$worktree/BENCH_ref.json" kernel_sim_cycles_per_s)")
        ref_i=$(best max "$ref_i" "$(json_num "$worktree/BENCH_ref.json" kernel_irr_sim_cycles_per_s)")
        ref_c=$(best max "$ref_c" "$(json_num "$worktree/BENCH_ref.json" chip_sim_cycles_per_s)")
        new_s=$(best min "$new_s" "$(json_num BENCH_cmp.json composite_s)")
        new_k=$(best max "$new_k" "$(json_num BENCH_cmp.json kernel_sim_cycles_per_s)")
        new_i=$(best max "$new_i" "$(json_num BENCH_cmp.json kernel_irr_sim_cycles_per_s)")
        new_c=$(best max "$new_c" "$(json_num BENCH_cmp.json chip_sim_cycles_per_s)")
    done
    rm -f BENCH_cmp.json

    awk -v new="$new_s" -v ref="$ref_s" -v refname="$compare_ref" \
        'BEGIN { printf "=== bench: composite %.3fs vs %.3fs at %s " \
                        "-> %.2fx speedup ===\n", \
                 new, ref, refname, ref / new }'
    awk -v new="$new_k" -v ref="$ref_k" -v refname="$compare_ref" \
        'BEGIN { printf "=== bench: kernel %.3g vs %.3g sim-cycles/s " \
                        "at %s -> %.2fx speedup ===\n", \
                 new, ref, refname, new / ref }'
    if [[ -n "$new_i" && -n "$ref_i" ]]; then
        awk -v new="$new_i" -v ref="$ref_i" -v refname="$compare_ref" \
            'BEGIN { printf "=== bench: kernel_irr %.3g vs %.3g " \
                            "sim-cycles/s at %s -> %.2fx speedup ===\n", \
                     new, ref, refname, new / ref }'
    fi
    awk -v new="$new_c" -v ref="$ref_c" -v refname="$compare_ref" \
        'BEGIN { printf "=== bench: chip %.3g vs %.3g agg-SM-cycles/s " \
                        "at %s -> %.2fx speedup ===\n", \
                 new, ref, refname, new / ref }'
fi

echo "=== bench: wrote BENCH_results.json ==="
