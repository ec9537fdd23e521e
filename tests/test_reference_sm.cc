/**
 * @file
 * Differential test: SmModel against the per-cycle reference SM
 * (tests/reference_sm.hh).
 *
 * The goldens (sched_order, soa_parity, fig8, table5) only say that the
 * event-driven loop has not changed since they were recorded. This
 * suite says that it equals a model simple enough to read: for every
 * point, both models must export identical SmStats::toStatSet()
 * entries and identical issue traces (cycle, warp slot, warp global id,
 * opcode). The reference evaluates every instruction's conflicts and
 * runs the coalescer on its own, so every point also checks that the
 * compute-op outcome table and SmModel's one shared footprint pass per
 * data-bank op charge exactly what the separate computations produce.
 *
 * Points: all 26 kernels under both designs, lps at active sets 1-3
 * (where a promotion chain after the CTA's last barrier once made the
 * fast loop panic with a false deadlock), and seeded random RunSpecs
 * over active set, unified capacity, thread limit, register override
 * (so the spill path runs), RF hierarchy, penalties, aggressive
 * unified, write-back and seed. Random points whose launch does not fit
 * are counted and skipped.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "kernels/registry.hh"
#include "reference_sm.hh"
#include "sim/simulator.hh"

namespace unimem {
namespace {

constexpr double kScale = 0.02;

std::string
describe(const std::string& kernel, const RunSpec& s)
{
    std::ostringstream os;
    os << kernel << ' ' << designName(s.design)
       << " as=" << s.activeSetSize
       << " unifiedKB=" << s.unifiedCapacity / 1024
       << " threads=" << s.threadLimit << " regs=" << s.regsOverride
       << " rfh=" << s.rfHierarchy << " pen=" << s.conflictPenalties
       << " aggr=" << s.aggressiveUnified << " wb="
       << (s.cachePolicy == WritePolicy::WriteBack) << " seed=" << s.seed;
    return os.str();
}

/**
 * Run @p kernel under @p spec on both models and require identical
 * statistics and issue traces. Returns the launch that ran, or nullopt,
 * running nothing, when it does not fit. SmModel's compute-table hits
 * are added to @p replays when given.
 */
std::optional<LaunchConfig>
checkPoint(const std::string& kernel, const RunSpec& spec,
           FootprintStats* replays = nullptr)
{
    std::unique_ptr<KernelModel> k = createBenchmark(kernel, kScale);
    const AllocationDecision alloc = resolveAllocation(k->params(), spec);
    if (!alloc.launch.feasible)
        return std::nullopt;
    const SmRunConfig cfg = smRunConfigFor(spec, alloc);
    SCOPED_TRACE(describe(kernel, spec));

    std::vector<SmModel::IssueRecord> ref_trace;
    ReferenceSm ref(cfg, *k);
    ref.setIssueTrace(&ref_trace);
    const SmStats& ref_stats = ref.run();

    std::unique_ptr<KernelModel> k2 = createBenchmark(kernel, kScale);
    std::vector<SmModel::IssueRecord> fast_trace;
    SmModel fast(cfg, *k2);
    fast.setIssueTrace(&fast_trace);
    const SmStats& fast_stats = fast.run();
    if (replays != nullptr) {
        replays->computeHits += fast.footprintStats().computeHits;
    }

    const StatSet want_set = ref_stats.toStatSet();
    const StatSet got_set = fast_stats.toStatSet();
    const std::map<std::string, double>& want = want_set.entries();
    const std::map<std::string, double>& got = got_set.entries();
    EXPECT_EQ(got.size(), want.size());
    for (const auto& [name, value] : want) {
        auto it = got.find(name);
        EXPECT_TRUE(it != got.end() && it->second == value)
            << name << ": reference " << value << ", SmModel "
            << (it == got.end() ? -1.0 : it->second);
    }

    EXPECT_EQ(fast_trace.size(), ref_trace.size());
    for (size_t i = 0; i < std::min(fast_trace.size(), ref_trace.size());
         ++i) {
        const SmModel::IssueRecord& a = ref_trace[i];
        const SmModel::IssueRecord& b = fast_trace[i];
        if (a.cycle != b.cycle || a.warp != b.warp ||
            a.warpGlobalId != b.warpGlobalId || a.op != b.op) {
            ADD_FAILURE() << "issue " << i << ": reference " << a.cycle
                          << ':' << a.warp << ':' << a.warpGlobalId << ':'
                          << opcodeName(a.op) << ", SmModel " << b.cycle
                          << ':' << b.warp << ':' << b.warpGlobalId << ':'
                          << opcodeName(b.op);
            break;
        }
    }
    return alloc.launch;
}

TEST(ReferenceSm, AllKernelsBothDesigns)
{
    FootprintStats replays;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        for (DesignKind design :
             {DesignKind::Partitioned, DesignKind::Unified}) {
            RunSpec spec;
            spec.design = design;
            EXPECT_TRUE(checkPoint(info.name, spec, &replays).has_value())
                << info.name << " does not fit by default";
        }
    }
    // The comparison covers the compute-op table only if SmModel
    // actually replayed outcomes from it.
    EXPECT_GT(replays.computeHits, 0u);
}

/**
 * lps at active sets 1-3: after the CTA's final bar, each retiring warp
 * promotes the next exhausted one, so the active set holds only warps
 * that housekeeping must still retire.
 */
TEST(ReferenceSm, LpsTinyActiveSets)
{
    for (u32 as : {1u, 2u, 3u}) {
        for (DesignKind design :
             {DesignKind::Partitioned, DesignKind::Unified}) {
            RunSpec spec;
            spec.design = design;
            spec.activeSetSize = as;
            EXPECT_TRUE(checkPoint("lps", spec).has_value());
        }
    }
}

TEST(ReferenceSm, RandomRunSpecs)
{
    constexpr u32 kPoints = 320;
    const u32 active_sets[] = {1, 2, 3, 4, 6, 8, 16, 32, 64};
    const u32 thread_limits[] = {kMaxThreadsPerSm, 768, 512, 256};
    const std::vector<BenchmarkInfo>& kernels = allBenchmarks();
    Rng rng(20121201);
    u32 feasible = 0;
    u32 spilled = 0;
    for (u32 i = 0; i < kPoints; ++i) {
        const BenchmarkInfo& info = kernels[rng.range(kernels.size())];
        const u32 needed_regs =
            createBenchmark(info.name, kScale)->params().regsPerThread;
        RunSpec spec;
        spec.design = rng.range(2) != 0 ? DesignKind::Unified
                                        : DesignKind::Partitioned;
        spec.activeSetSize = active_sets[rng.range(std::size(active_sets))];
        spec.unifiedCapacity = (1 + rng.range(3)) * 128_KB;
        spec.threadLimit = thread_limits[rng.range(std::size(thread_limits))];
        if (rng.range(2) != 0)
            spec.regsOverride = 8 + static_cast<u32>(rng.range(needed_regs));
        spec.rfHierarchy = rng.range(4) != 0;
        spec.conflictPenalties = rng.range(4) != 0;
        spec.aggressiveUnified = rng.range(4) == 0;
        if (rng.range(4) == 0)
            spec.cachePolicy = WritePolicy::WriteBack;
        spec.seed = 1 + rng.range(1000);
        if (std::optional<LaunchConfig> launch = checkPoint(info.name, spec)) {
            ++feasible;
            spilled += launch->spillMultiplier > 1.0;
        }
        if (HasFailure())
            break; // one diverging point is enough to debug
    }
    std::printf("[ reference ] %u of %u random RunSpecs feasible, %u of "
                "them spill\n",
                feasible, kPoints, spilled);
    EXPECT_GT(feasible, kPoints / 2);
    EXPECT_GT(spilled, 0u);
}

} // namespace
} // namespace unimem
