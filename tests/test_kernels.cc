/**
 * @file
 * Parameterized well-formedness tests over all 26 benchmark models:
 * registry metadata agreement with Table 1, register-id bounds,
 * scratchpad address bounds, barrier balance across the warps of a CTA,
 * deterministic trace generation, and non-trivial trace length.
 */

#include <algorithm>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "kernels/registry.hh"
#include "kernels/workloads.hh"

namespace unimem {
namespace {

void
drainWarp(const KernelModel& k, u32 ctaId, u32 warpInCta,
          std::vector<WarpInstr>& out)
{
    WarpCtx ctx;
    ctx.ctaId = ctaId;
    ctx.warpInCta = warpInCta;
    ctx.warpsPerCta = k.params().warpsPerCta();
    ctx.threadsPerCta = k.params().ctaThreads;
    ctx.seed = 1;
    auto prog = k.warpProgram(ctx);
    out.clear();
    while (prog->fill(out)) {
        ASSERT_LT(out.size(), 10u * 1000 * 1000) << "runaway trace";
    }
}

class KernelTest : public ::testing::TestWithParam<const char*>
{
};

TEST_P(KernelTest, MetadataMatchesTable1)
{
    const BenchmarkInfo* info = findBenchmark(GetParam());
    ASSERT_NE(info, nullptr);
    auto k = createBenchmark(GetParam(), 0.25);
    const KernelParams& kp = k->params();
    kp.validate();
    EXPECT_EQ(kp.regsPerThread, info->paperRegs)
        << "registers per thread must match the paper's Table 1";
    EXPECT_NEAR(kp.sharedBytesPerThread(), info->paperSharedPerThread,
                info->paperSharedPerThread * 0.05 + 0.01)
        << "shared bytes/thread must match the paper's Table 1";
}

TEST_P(KernelTest, RegisterIdsWithinBudget)
{
    auto k = createBenchmark(GetParam(), 0.1);
    std::vector<WarpInstr> trace;
    drainWarp(*k, 0, 0, trace);
    ASSERT_FALSE(trace.empty());
    for (const WarpInstr& in : trace) {
        if (in.hasDst()) {
            EXPECT_LT(in.dst, k->params().regsPerThread);
        }
        for (u8 s = 0; s < in.numSrc; ++s) {
            if (in.src[s] != kInvalidReg) {
                EXPECT_LT(in.src[s], k->params().regsPerThread);
            }
        }
    }
}

TEST_P(KernelTest, SharedAddressesWithinCtaAllocation)
{
    auto k = createBenchmark(GetParam(), 0.1);
    const KernelParams& kp = k->params();
    for (u32 w = 0; w < kp.warpsPerCta(); ++w) {
        std::vector<WarpInstr> trace;
        drainWarp(*k, 2, w, trace);
        Addr base = static_cast<Addr>(2) * kp.sharedBytesPerCta;
        for (const WarpInstr& in : trace) {
            if (!isSharedSpace(in.op))
                continue;
            for (u32 lane = 0; lane < kWarpWidth; ++lane) {
                if (!in.laneActive(lane))
                    continue;
                ASSERT_GE(in.addr[lane], base)
                    << kp.name << " warp " << w;
                ASSERT_LT(in.addr[lane] + in.accessBytes,
                          base + kp.sharedBytesPerCta + 1)
                    << kp.name << " warp " << w;
            }
        }
    }
}

TEST_P(KernelTest, BarriersBalancedAcrossCtaWarps)
{
    auto k = createBenchmark(GetParam(), 0.1);
    const KernelParams& kp = k->params();
    std::optional<u64> expected;
    for (u32 w = 0; w < kp.warpsPerCta(); ++w) {
        std::vector<WarpInstr> trace;
        drainWarp(*k, 0, w, trace);
        u64 bars = 0;
        for (const WarpInstr& in : trace)
            if (in.op == Opcode::Bar)
                ++bars;
        if (!expected)
            expected = bars;
        EXPECT_EQ(bars, *expected)
            << kp.name << ": warp " << w << " barrier count differs";
    }
}

TEST_P(KernelTest, TraceIsDeterministic)
{
    auto k1 = createBenchmark(GetParam(), 0.1);
    auto k2 = createBenchmark(GetParam(), 0.1);
    std::vector<WarpInstr> a, b;
    drainWarp(*k1, 1, 0, a);
    drainWarp(*k2, 1, 0, b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op) << "at " << i;
        EXPECT_EQ(a[i].dst, b[i].dst) << "at " << i;
        EXPECT_EQ(a[i].activeMask, b[i].activeMask) << "at " << i;
        if (isMemOp(a[i].op)) {
            EXPECT_EQ(a[i].addr, b[i].addr) << "at " << i;
        }
    }
}

TEST_P(KernelTest, MemoryOpsHaveSaneAddresses)
{
    auto k = createBenchmark(GetParam(), 0.1);
    std::vector<WarpInstr> trace;
    drainWarp(*k, 0, 0, trace);
    u64 mem_ops = 0;
    for (const WarpInstr& in : trace) {
        if (!isMemOp(in.op))
            continue;
        ++mem_ops;
        EXPECT_TRUE(in.accessBytes == 4 || in.accessBytes == 8 ||
                    in.accessBytes == 16)
            << "access size " << static_cast<int>(in.accessBytes);
        EXPECT_NE(in.activeMask, 0u);
        for (u32 lane = 0; lane < kWarpWidth; ++lane) {
            if (!in.laneActive(lane))
                continue;
            // 4-byte alignment keeps accesses within sectors/lines.
            EXPECT_EQ(in.addr[lane] % 4, 0u);
        }
    }
    EXPECT_GT(mem_ops, 0u) << "every workload touches memory";
}

TEST_P(KernelTest, DifferentCtasCoverDifferentGlobalData)
{
    // Streaming benchmarks must not have all CTAs reading the same
    // addresses; verify CTA 0 and CTA 1 traces differ somewhere.
    auto k = createBenchmark(GetParam(), 0.1);
    std::vector<WarpInstr> a, b;
    drainWarp(*k, 0, 0, a);
    drainWarp(*k, 1, 0, b);
    bool differs = a.size() != b.size();
    for (size_t i = 0; i < std::min(a.size(), b.size()) && !differs; ++i)
        if (isMemOp(a[i].op) && a[i].addr != b[i].addr)
            differs = true;
    EXPECT_TRUE(differs) << "CTAs 0 and 1 produce identical traces";
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, KernelTest,
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

TEST(KernelRegistry, HasAll26Benchmarks)
{
    EXPECT_EQ(allBenchmarks().size(), 26u);
    EXPECT_EQ(benefitBenchmarkNames().size(), 8u);
    EXPECT_EQ(noBenefitBenchmarkNames().size(), 18u);
}

TEST(KernelRegistry, UnknownNameReturnsNull)
{
    EXPECT_EQ(findBenchmark("nonexistent"), nullptr);
}

TEST(KernelRegistry, ScaleControlsGridSize)
{
    auto small = createBenchmark("vectoradd", 0.25);
    auto big = createBenchmark("vectoradd", 1.0);
    EXPECT_LT(small->params().gridCtas, big->params().gridCtas);
}

TEST(KernelRegistry, HostileScalesAreFatal)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(createBenchmark("vectoradd", -1.0),
                ::testing::ExitedWithCode(1), "workload scale -1: must be");
    EXPECT_EXIT(createBenchmark("vectoradd", 0.0),
                ::testing::ExitedWithCode(1), "workload scale 0: must be");
    EXPECT_EXIT(createBenchmark("vectoradd", nan),
                ::testing::ExitedWithCode(1), "workload scale -?nan: must be");
    EXPECT_EXIT(createBenchmark("vectoradd", inf),
                ::testing::ExitedWithCode(1), "workload scale inf: must be");
    EXPECT_EXIT(createBenchmark("vectoradd", 1e12),
                ::testing::ExitedWithCode(1),
                "workload scale 1e\\+12: 48000000000000 CTAs do not fit");
}

TEST(Needle, BlockingFactorControlsSharedFootprint)
{
    auto bf16 = makeNeedle(16, 1.0);
    auto bf32 = makeNeedle(32, 1.0);
    auto bf64 = makeNeedle(64, 1.0);
    // Quadratic growth in scratchpad per CTA.
    EXPECT_LT(bf16->params().sharedBytesPerCta,
              bf32->params().sharedBytesPerCta);
    EXPECT_LT(bf32->params().sharedBytesPerCta,
              bf64->params().sharedBytesPerCta);
    // Paper: ~264 B/thread at BF=32, ~528 at BF=64.
    EXPECT_NEAR(bf32->params().sharedBytesPerThread(), 272.0, 10.0);
    EXPECT_NEAR(bf64->params().sharedBytesPerThread(), 528.0, 10.0);
    // BF=64 CTAs span two warps.
    EXPECT_EQ(bf64->params().warpsPerCta(), 2u);
}

} // namespace
} // namespace unimem
