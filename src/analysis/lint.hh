/**
 * @file
 * The trace validator ("unimem-lint").
 *
 * The simulator trusts every KernelModel twice: the Section 4.5
 * allocator sizes the MRF slice and scratchpad from the *declared*
 * KernelParams, and the LRF/ORF hierarchy assumes compiler-known
 * register lifetimes (Section 2.1). lintKernel() machine-checks that
 * trust with three static checks, each finding a named diagnostic
 * (analysis/diagnostic.hh):
 *
 *  - warp invariants: a bounded prefix of several warps' traces --
 *    first, middle, and last CTA, first and last warp, multiple seeds --
 *    through def-use/liveness and per-instruction shape, register and
 *    address checks, including the legal-access rule the trace parser
 *    applies (validAccessBytes, accessInOneLine). It also derives the
 *    static metrics the docs quote: register pressure, ORF-reachable
 *    read fraction, and shared-bank conflict degree (the conflict
 *    model's own, core/conflict_model.hh);
 *  - barrier sync: every warp of a CTA reaches each barrier the same
 *    number of times, over whole warp traces;
 *  - register hazards across ORF capture windows, and the legality of
 *    the default partitioned and unified allocations.
 *
 * No SM, cache, or DRAM model runs, so linting all 26 shipped kernels
 * takes milliseconds and is wired into ctest and scripts/check.sh as a
 * hard gate (tools/unimem_lint).
 */

#ifndef UNIMEM_ANALYSIS_LINT_HH
#define UNIMEM_ANALYSIS_LINT_HH

#include <string>
#include <vector>

#include "analysis/diagnostic.hh"
#include "arch/kernel_model.hh"

namespace unimem {

/** Tunables of one lintKernel() call. */
struct LintOptions
{
    /** Trace-prefix bound per sampled warp. */
    u32 maxInstrsPerWarp = 4096;

    /** Treat warnings as errors (-Werror). */
    bool werror = false;

    /** Launch seeds to sample (distinct WarpCtx shapes per seed). */
    std::vector<u64> seeds = {1, 2};

    /**
     * Whole-trace instruction budget of the barrier-sync check, spent
     * across all scanned warps of one kernel. Exhausting it truncates
     * the proof and raises trace-bound-exceeded (warning).
     */
    u64 barrierScanBudget = u64(16) << 20;
};

/** Static metrics aggregated over all sampled warps of one kernel. */
struct LintMetrics
{
    u64 instrs = 0;
    u64 memOps = 0;
    u64 sharedOps = 0;

    /** Max simultaneously live values over any sampled warp. */
    u32 regPressure = 0;

    /** Register source reads / LRF+ORF-window hits (Section 2.1). */
    u64 regReads = 0;
    u64 orfCaptured = 0;

    /** Shared ops by statically provable max-accesses-per-bank. */
    u64 sharedConflictFree = 0; ///< degree <= 1
    u64 sharedDegreeSum = 0;    ///< sum of per-op degrees
    u32 sharedDegreeMax = 0;

    double
    orfReachableFraction() const
    {
        return regReads == 0 ? 0.0
                             : static_cast<double>(orfCaptured) /
                                   static_cast<double>(regReads);
    }

    double
    avgSharedConflictDegree() const
    {
        return sharedOps == 0 ? 0.0
                              : static_cast<double>(sharedDegreeSum) /
                                    static_cast<double>(sharedOps);
    }
};

/** Everything one lintKernel() call produces. */
struct LintReport
{
    std::string kernel;

    /** Metrics of the warp-invariants check. */
    LintMetrics metrics;

    DiagnosticEngine diags;

    u64 errors() const { return diags.count(Severity::Error); }
    u64 warnings() const { return diags.count(Severity::Warning); }
    u64 infos() const { return diags.count(Severity::Info); }
    bool clean() const { return !diags.hasErrors(); }

    /** Deterministic multi-line rendering (metrics + findings). */
    std::string str() const;
};

/**
 * The WarpCtx sample set lintKernel() analyzes: the cross product of
 * {first, middle, last} CTA, {first, last} warp-in-CTA, and opt.seeds,
 * deduplicated. Exposed so tests can pin the sampling policy.
 */
std::vector<WarpCtx> lintWarpSamples(const KernelParams& kp,
                                     const LintOptions& opt);

/**
 * Analyze one warp's trace prefix, appending findings to @p diags and
 * accumulating @p metrics. Building block of lintKernel(), exposed for
 * targeted tests.
 */
void lintWarp(const KernelModel& kernel, const WarpCtx& ctx,
              const LintOptions& opt, DiagnosticEngine& diags,
              LintMetrics& metrics);

/**
 * Whole-trace barrier-sync check: every warp of up to three CTAs per
 * seed ({first, middle, last} past 8 CTAs, all of them otherwise) must
 * execute the same number of Bar instructions, or the CTA deadlocks.
 */
void lintBarriers(const KernelModel& kernel, const LintOptions& opt,
                  DiagnosticEngine& diags);

/**
 * Register hazards across ORF capture windows over the @p samples'
 * trace prefixes, then allocation legality of the default partitioned
 * and 384 KB unified RunSpecs.
 */
void lintRegisterHazards(const KernelModel& kernel,
                         const std::vector<WarpCtx>& samples,
                         const LintOptions& opt, DiagnosticEngine& diags);

/** Run the three checks over @p kernel, in the order above. */
LintReport lintKernel(const KernelModel& kernel,
                      const LintOptions& opt = {});

} // namespace unimem

#endif // UNIMEM_ANALYSIS_LINT_HH
