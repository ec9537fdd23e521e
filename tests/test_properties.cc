/**
 * @file
 * Property-based sweeps (parameterized gtest) over capacities, thread
 * counts, and designs: invariants that must hold for any configuration.
 */

#include <gtest/gtest.h>

#include <random>

#include "kernels/registry.hh"
#include "sim/experiments.hh"

namespace unimem {
namespace {

constexpr double kScale = 0.1;

// ---- Cache capacity sweep: DRAM traffic is non-increasing ------------

// The sweeps name their benchmark with a std::string, not a const char*:
// gtest prints a pointer inside a tuple with its address, which put an
// ASLR-dependent value into every test name.
class CacheSweep
    : public ::testing::TestWithParam<std::tuple<std::string, u64>>
{
};

TEST_P(CacheSweep, LargerCacheNeverIncreasesMisses)
{
    auto [name, cache] = GetParam();
    RunSpec small_spec;
    small_spec.partition = MemoryPartition{256_KB, 64_KB, cache};
    RunSpec big_spec;
    big_spec.partition = MemoryPartition{256_KB, 64_KB, cache * 2};

    SimResult small = simulateBenchmark(name, kScale, small_spec);
    SimResult big = simulateBenchmark(name, kScale, big_spec);
    // Cache *misses* (not sectors) must not grow with capacity; sector
    // counts can shift with timing, so compare miss counts with a small
    // tolerance for LRU boundary effects.
    EXPECT_LE(static_cast<double>(big.sm.cache.readMisses),
              static_cast<double>(small.sm.cache.readMisses) * 1.02 + 64)
        << name << " cache " << cache;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CacheSweep,
    ::testing::Combine(::testing::Values("bfs", "pcr", "nn", "lu",
                                         "srad"),
                       ::testing::Values(32_KB, 64_KB, 128_KB)),
    [](const auto& info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param) / 1024) + "K";
    });

// ---- Thread count sweep: occupancy consistency ------------------------

class ThreadSweep
    : public ::testing::TestWithParam<std::tuple<std::string, u32>>
{
};

TEST_P(ThreadSweep, OccupancyRespectsLimitAndWorkIsConserved)
{
    auto [name, limit] = GetParam();
    RunSpec spec;
    spec.threadLimit = limit;
    SimResult r = simulateBenchmark(name, kScale, spec);
    EXPECT_LE(r.alloc.launch.threads, limit);
    EXPECT_GT(r.alloc.launch.threads, 0u);

    // Total executed CTAs equals the kernel grid regardless of limit.
    auto k = createBenchmark(name, kScale);
    EXPECT_EQ(r.sm.ctasExecuted, k->params().gridCtas);
}

TEST_P(ThreadSweep, SameConfigIsBitReproducible)
{
    auto [name, limit] = GetParam();
    RunSpec spec;
    spec.threadLimit = limit;
    SimResult a = simulateBenchmark(name, kScale, spec);
    SimResult b = simulateBenchmark(name, kScale, spec);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.sm.warpInstrs, b.sm.warpInstrs);
    EXPECT_EQ(a.dramSectors(), b.dramSectors());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThreadSweep,
    ::testing::Combine(::testing::Values("vectoradd", "dgemm", "needle",
                                         "bfs"),
                       ::testing::Values(256u, 512u, 1024u)),
    [](const auto& info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param));
    });

// ---- Unified capacity sweep -------------------------------------------

class CapacitySweep : public ::testing::TestWithParam<u64>
{
};

TEST_P(CapacitySweep, AllocationInvariants)
{
    u64 cap = GetParam();
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto k = createBenchmark(info.name, kScale);
        AllocationDecision d = allocateUnified(k->params(), cap);
        if (!d.launch.feasible)
            continue;
        // Every byte accounted for; no overcommit.
        EXPECT_EQ(d.partition.total(), cap) << info.name;
        EXPECT_EQ(d.partition.rfBytes,
                  static_cast<u64>(d.launch.threads) *
                      d.launch.regsPerThread * 4)
            << info.name;
        // Threads are whole CTAs.
        EXPECT_EQ(d.launch.threads % k->params().ctaThreads, 0u)
            << info.name;
        // Spill multiplier only when squeezed below the requirement.
        if (d.launch.regsPerThread >= k->params().regsPerThread)
            EXPECT_DOUBLE_EQ(d.launch.spillMultiplier, 1.0)
                << info.name;
        else
            EXPECT_GE(d.launch.spillMultiplier, 1.0) << info.name;
    }
}

TEST_P(CapacitySweep, BenefitAppsPerformanceMonotonicInCapacity)
{
    // Table 6 shape: more unified capacity never hurts much. Allow a
    // small tolerance for scheduler interaction effects the paper also
    // observes (needle at 256KB vs 384KB).
    u64 cap = GetParam();
    if (cap >= 384_KB)
        GTEST_SKIP() << "needs a larger comparison point";
    for (const char* name : {"bfs", "srad"}) {
        auto runAt = [&](u64 c) {
            return static_cast<double>(
                runUnified(name, kScale, c).cycles());
        };
        EXPECT_LE(runAt(cap * 3 / 2), runAt(cap) * 1.05) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Grid, CapacitySweep,
                         ::testing::Values(128_KB, 192_KB, 256_KB,
                                           384_KB),
                         [](const auto& info) {
                             return std::to_string(info.param / 1024) +
                                    "K";
                         });

// ---- Design equivalence properties ------------------------------------

TEST(Properties, EqualPartitionEqualOccupancy)
{
    // When the unified allocator happens to choose the baseline split,
    // occupancy must match the partitioned design exactly.
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto k = createBenchmark(info.name, kScale);
        AllocationDecision uni = allocateUnified(k->params(), 384_KB);
        if (!uni.launch.feasible)
            continue;
        AllocationDecision part =
            allocatePartitioned(k->params(), uni.partition);
        ASSERT_TRUE(part.launch.feasible) << info.name;
        EXPECT_EQ(part.launch.threads, uni.launch.threads) << info.name;
        EXPECT_EQ(part.launch.regsPerThread, uni.launch.regsPerThread)
            << info.name;
    }
}

TEST(Properties, ConflictPenaltyAblationNeverSpeedsUp)
{
    for (const char* name : {"aes", "needle", "sto"}) {
        RunSpec with;
        with.design = DesignKind::Unified;
        RunSpec without = with;
        without.conflictPenalties = false;
        SimResult w = simulateBenchmark(name, kScale, with);
        SimResult wo = simulateBenchmark(name, kScale, without);
        // Small slack: removing penalties perturbs issue interleaving
        // and DRAM queueing, which can swing runtime either way by ~1%.
        EXPECT_GE(static_cast<double>(w.cycles()),
                  static_cast<double>(wo.cycles()) * 0.98)
            << name;
    }
}

TEST(Properties, AggressiveUnifiedLayoutIsSmallGain)
{
    // Paper Section 4.2: the multi-bank-per-cluster design gained only
    // ~0.5% on average.
    double total_gain = 0;
    int n = 0;
    for (const char* name : {"aes", "needle", "pcr", "scalarprod"}) {
        RunSpec simple;
        simple.design = DesignKind::Unified;
        RunSpec aggr = simple;
        aggr.aggressiveUnified = true;
        SimResult s = simulateBenchmark(name, kScale, simple);
        SimResult a = simulateBenchmark(name, kScale, aggr);
        EXPECT_LE(a.cycles(), s.cycles()) << name;
        total_gain += static_cast<double>(s.cycles()) /
                      static_cast<double>(a.cycles());
        ++n;
    }
    EXPECT_LT(total_gain / n, 1.05);
}

TEST(Properties, ActiveSetSizeFullDegeneratesToFlatScheduler)
{
    RunSpec two_level;
    RunSpec flat;
    flat.activeSetSize = kMaxWarpsPerSm;
    SimResult a = simulateBenchmark("vectoradd", kScale, two_level);
    SimResult b = simulateBenchmark("vectoradd", kScale, flat);
    // Both must complete the same work.
    EXPECT_EQ(a.sm.warpInstrs, b.sm.warpInstrs);
    // A full-size active set never deschedules for slot pressure only.
    EXPECT_LE(b.sm.sched.deschedules, a.sm.sched.deschedules + 1);
}


// ---- Randomized Section 4.5 allocation properties -----------------------

/** 16B unified bank word: every split boundary must respect it. */
constexpr u64 kBankWordBytes = 16;

KernelParams
randomKernel(std::mt19937& rng)
{
    KernelParams kp;
    kp.name = "random";
    kp.ctaThreads =
        kWarpWidth * std::uniform_int_distribution<u32>(1, 32)(rng);
    kp.regsPerThread =
        std::uniform_int_distribution<u32>(kMinRegsPerThread, 64)(rng);
    // Scratchpad declarations are bank-word granular, up to 48KB/CTA.
    kp.sharedBytesPerCta = static_cast<u32>(
        kBankWordBytes *
        std::uniform_int_distribution<u32>(0, 3072)(rng));
    kp.gridCtas = std::uniform_int_distribution<u32>(1, 64)(rng);
    return kp;
}

TEST(AllocationRandomProperties, UnifiedSplitInvariants)
{
    std::mt19937 rng(20120512); // fixed seed: reproducible failures
    int feasible = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        KernelParams kp = randomKernel(rng);
        u64 capacity =
            kBankWordBytes *
            std::uniform_int_distribution<u64>(1024, 40960)(rng);
        AllocationDecision d = allocateUnified(kp, capacity);
        if (!d.launch.feasible)
            continue;
        ++feasible;

        // Every byte of the unified capacity is accounted for: the
        // register/scratchpad claim plus the cache leftover.
        EXPECT_EQ(d.partition.total(), capacity) << "trial " << trial;

        // All three regions are 16B-bank-word aligned.
        EXPECT_EQ(d.partition.rfBytes % kBankWordBytes, 0u)
            << "trial " << trial;
        EXPECT_EQ(d.partition.sharedBytes % kBankWordBytes, 0u)
            << "trial " << trial;
        EXPECT_EQ(d.partition.cacheBytes % kBankWordBytes, 0u)
            << "trial " << trial;

        // The scratchpad region covers every resident CTA's static
        // declaration - never less than the kernel declares.
        EXPECT_GE(d.partition.sharedBytes,
                  static_cast<u64>(d.launch.ctas) * kp.sharedBytesPerCta)
            << "trial " << trial;

        // Register bytes match the launch exactly.
        EXPECT_EQ(d.partition.rfBytes,
                  static_cast<u64>(d.launch.threads) *
                      d.launch.regsPerThread * kRegBytes)
            << "trial " << trial;

        // Occupancy limits hold.
        EXPECT_LE(d.launch.threads, kMaxThreadsPerSm) << "trial " << trial;
        EXPECT_EQ(d.launch.threads % kp.ctaThreads, 0u)
            << "trial " << trial;
        EXPECT_GE(d.launch.regsPerThread, kMinRegsPerThread)
            << "trial " << trial;
    }
    // The generator must actually exercise the allocator.
    EXPECT_GT(feasible, 1000);
}

TEST(AllocationRandomProperties, UnifiedNeverBeatenByDeclaredNeeds)
{
    // If a configuration is feasible, the per-CTA footprint must fit;
    // if infeasible, even one CTA's scratchpad cannot fit (allocateUnified
    // spills registers down before giving up).
    std::mt19937 rng(777);
    for (int trial = 0; trial < 2000; ++trial) {
        KernelParams kp = randomKernel(rng);
        u64 capacity =
            kBankWordBytes *
            std::uniform_int_distribution<u64>(256, 16384)(rng);
        AllocationDecision d = allocateUnified(kp, capacity);
        u64 minFootprint =
            static_cast<u64>(kp.ctaThreads) * kMinRegsPerThread *
                kRegBytes +
            kp.sharedBytesPerCta;
        if (d.launch.feasible) {
            u64 ctaFootprint = static_cast<u64>(kp.ctaThreads) *
                                   d.launch.regsPerThread * kRegBytes +
                               kp.sharedBytesPerCta;
            EXPECT_LE(ctaFootprint * d.launch.ctas, capacity)
                << "trial " << trial;
        } else {
            EXPECT_GT(minFootprint, capacity) << "trial " << trial;
        }
    }
}

TEST(AllocationRandomProperties, ThreadLimitAndOverrideRespected)
{
    std::mt19937 rng(424242);
    for (int trial = 0; trial < 1000; ++trial) {
        KernelParams kp = randomKernel(rng);
        u32 limit =
            kWarpWidth * std::uniform_int_distribution<u32>(1, 32)(rng);
        u32 regsOverride =
            std::uniform_int_distribution<u32>(0, 48)(rng);
        AllocationDecision d =
            allocateUnified(kp, 384_KB, limit, regsOverride);
        if (!d.launch.feasible)
            continue;
        EXPECT_LE(d.launch.threads, limit) << "trial " << trial;
        EXPECT_EQ(d.partition.total(), u64{384_KB}) << "trial " << trial;
        if (regsOverride >= kMinRegsPerThread) {
            u64 oneCta = static_cast<u64>(kp.ctaThreads) * regsOverride *
                             kRegBytes +
                         kp.sharedBytesPerCta;
            if (oneCta <= 384_KB) {
                EXPECT_EQ(d.launch.regsPerThread, regsOverride)
                    << "trial " << trial;
            }
        }
        // Spills appear exactly when squeezed below the requirement.
        if (d.launch.regsPerThread >= kp.regsPerThread)
            EXPECT_DOUBLE_EQ(d.launch.spillMultiplier, 1.0)
                << "trial " << trial;
        else
            EXPECT_GE(d.launch.spillMultiplier, 1.0) << "trial " << trial;
    }
}

// ---- Broad benchmark x design invariants --------------------------------

class DesignSweep : public ::testing::TestWithParam<const char*>
{
};

TEST_P(DesignSweep, CrossDesignInvariants)
{
    const char* name = GetParam();
    RunSpec part;
    SimResult rp = simulateBenchmark(name, kScale, part);

    RunSpec uni;
    uni.design = DesignKind::Unified;
    SimResult ru = simulateBenchmark(name, kScale, uni);

    // IPC can never exceed the SIMT width.
    EXPECT_LE(rp.sm.ipc(), 32.0) << name;
    EXPECT_LE(ru.sm.ipc(), 32.0) << name;

    // Work is conserved across designs when the register allocation is
    // identical (same spill behaviour): both run at the no-spill count.
    if (rp.alloc.launch.regsPerThread == ru.alloc.launch.regsPerThread &&
        rp.alloc.launch.threads == ru.alloc.launch.threads) {
        EXPECT_EQ(rp.sm.warpInstrs, ru.sm.warpInstrs) << name;
    }

    // Cycles dominate issued instructions (single-issue SM).
    EXPECT_GE(rp.cycles(), rp.sm.warpInstrs) << name;
    EXPECT_GE(ru.cycles(), ru.sm.warpInstrs) << name;

    // Energy accounting is finite and positive everywhere.
    double e = energyOf(ru, rp);
    EXPECT_GT(e, 0.0) << name;
    EXPECT_LT(e, 1.0) << name << " (joules for a millisecond-scale run)";

    // The RF hierarchy always removes some MRF traffic.
    EXPECT_GT(rp.sm.rf.reduction(), 0.0) << name;

    // DRAM sector accounting is consistent with byte accounting.
    EXPECT_EQ(rp.sm.dramBytes(),
              rp.sm.dramSectors() * kDramSectorBytes)
        << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DesignSweep,
    ::testing::ValuesIn([] {
        std::vector<const char*> names;
        for (const BenchmarkInfo& info : allBenchmarks())
            names.push_back(info.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<const char*>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace unimem
