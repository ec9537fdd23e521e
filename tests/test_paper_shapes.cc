/**
 * @file
 * Regression tests that pin the paper-reproduction *shapes* measured in
 * EXPERIMENTS.md, so that future kernel or timing-model edits cannot
 * silently break the calibration:
 *  - Table 1 DRAM-traffic bands for all 26 benchmarks,
 *  - Figure 9 per-benchmark speedup/energy bands,
 *  - Table 6's needle capacity anomaly,
 *  - Figure 11's blocking-factor crossover.
 */

#include <gtest/gtest.h>

#include "kernels/registry.hh"
#include "kernels/workloads.hh"
#include "sim/experiments.hh"

namespace unimem {
namespace {

constexpr double kScale = 0.25;

double
dramAt(const std::string& name, u64 cacheBytes)
{
    RunSpec spec;
    spec.partition = MemoryPartition{256_KB, 1_MB, cacheBytes};
    return static_cast<double>(
        simulateBenchmark(name, kScale, spec).dramSectors());
}

class Table1Shape : public ::testing::TestWithParam<const char*>
{
};

TEST_P(Table1Shape, DramColumnsInBand)
{
    const BenchmarkInfo* info = findBenchmark(GetParam());
    ASSERT_NE(info, nullptr);

    double d256 = dramAt(info->name, 256_KB);
    ASSERT_GT(d256, 0.0);
    double d0 = dramAt(info->name, 0) / d256;
    double d64 = dramAt(info->name, 64_KB) / d256;

    // No-cache column: benchmarks with strong redundancy in the paper
    // must show strong redundancy here; cache-insensitive ones must
    // stay near 1; needle's overfetch inversion must reproduce.
    if (info->paperDramNone < 1.0) {
        EXPECT_LT(d0, 1.0) << info->name << " d0=" << d0;
    } else if (info->paperDramNone >= 3.0) {
        EXPECT_GT(d0, 1.7) << info->name << " d0=" << d0;
    } else if (info->paperDramNone >= 1.2) {
        EXPECT_GT(d0, 1.1) << info->name << " d0=" << d0;
        EXPECT_LT(d0, 8.0) << info->name << " d0=" << d0;
    } else {
        EXPECT_LT(d0, 1.45) << info->name << " d0=" << d0;
    }

    // 64KB column: cache-limited benchmarks keep paying at 64KB, the
    // rest are already served.
    if (info->paperDram64k >= 1.10) {
        EXPECT_GT(d64, 1.05) << info->name << " d64=" << d64;
    } else {
        EXPECT_LT(d64, 1.40) << info->name << " d64=" << d64;
    }

    // The 64KB column never exceeds the no-cache column by more than
    // the paper's ray-style overfetch margin.
    EXPECT_LT(d64, std::max(d0 * 1.3, 1.4)) << info->name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, Table1Shape,
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

// ---- Figure 9 bands ----------------------------------------------------

struct Fig9Band
{
    const char* name;
    double scale;
    double lo;
    double hi;
};

// Without a printer gtest dumps the struct's bytes, name pointer included,
// so every test name carried an ASLR-dependent address.
void PrintTo(const Fig9Band& band, std::ostream* os)
{
    *os << "{\"" << band.name << "\", " << band.scale << ", " << band.lo
        << ", " << band.hi << "}";
}

class Fig9Shape : public ::testing::TestWithParam<Fig9Band>
{
};

TEST_P(Fig9Shape, SpeedupAndEnergyInBand)
{
    const Fig9Band& band = GetParam();
    SimResult base = runBaseline(band.name, band.scale);
    SimResult uni = runUnified(band.name, band.scale, 384_KB);
    Comparison c = compare(uni, base);
    EXPECT_GE(c.speedup, band.lo) << band.name;
    EXPECT_LE(c.speedup, band.hi) << band.name;
    EXPECT_LE(c.energyRatio, 1.02) << band.name;
}

INSTANTIATE_TEST_SUITE_P(
    BenefitSet, Fig9Shape,
    ::testing::Values(Fig9Band{"needle", 0.5, 1.25, 2.2},
                      Fig9Band{"lu", 0.5, 1.05, 1.6},
                      Fig9Band{"gpu-mummer", 0.5, 1.00, 1.35},
                      Fig9Band{"bfs", 0.5, 1.10, 1.9},
                      Fig9Band{"srad", 0.5, 1.05, 1.6},
                      Fig9Band{"dgemm", 0.75, 0.99, 1.25},
                      Fig9Band{"pcr", 0.5, 1.20, 2.3},
                      Fig9Band{"ray", 0.5, 1.02, 1.4}),
    [](const ::testing::TestParamInfo<Fig9Band>& info) {
        std::string name = info.param.name;
        for (char& c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---- Table 6 / Figure 11 anomalies --------------------------------------

TEST(PaperShapes, NeedlePrefers256KOver384K)
{
    // Paper Table 6: needle 1.75 at 256KB vs 1.71 at 384KB - the
    // scheduler-interaction anomaly. The exact winner flips with the
    // workload scale (it does in the paper too); assert 256KB stays
    // competitive despite having 128KB less SRAM.
    SimResult u256 = runUnified("needle", 0.35, 256_KB);
    SimResult u384 = runUnified("needle", 0.35, 384_KB);
    EXPECT_LE(static_cast<double>(u256.cycles()),
              static_cast<double>(u384.cycles()) * 1.15);
}

TEST(PaperShapes, NeedleBlockingFactorCrossover)
{
    // Figure 11: BF=32 beats BF=64 on the partitioned design (BF=64
    // fits only one or two CTAs in 64KB of scratchpad); BF=64 wins on a
    // large unified design.
    auto cyclesOf = [](u32 bf, std::optional<u64> unified) {
        auto k = makeNeedle(bf, 0.35);
        RunSpec spec;
        if (unified) {
            spec.design = DesignKind::Unified;
            spec.unifiedCapacity = *unified;
        }
        return simulate(*k, spec).cycles();
    };
    EXPECT_LT(cyclesOf(32, std::nullopt), cyclesOf(64, std::nullopt));
    EXPECT_LT(cyclesOf(64, 512_KB), cyclesOf(32, 512_KB));
}

TEST(PaperShapes, DgemmOccupancyCollapsesAt128K)
{
    // Table 6: dgemm craters at 128KB (paper 0.77, measured ~0.5)
    // because a 57-regs/thread CTA plus its scratchpad needs ~74KB:
    // only one CTA fits.
    auto k = createBenchmark("dgemm", 0.25);
    AllocationDecision d128 = allocateUnified(k->params(), 128_KB);
    ASSERT_TRUE(d128.launch.feasible);
    EXPECT_EQ(d128.launch.threads, 256u);
    AllocationDecision d384 = allocateUnified(k->params(), 384_KB);
    EXPECT_EQ(d384.launch.threads, 1024u);
}

TEST(PaperShapes, MrfReductionBandAcrossWorkloads)
{
    // The RF hierarchy's MRF traffic reduction (prior work: ~60%)
    // varies by workload but stays substantial on compute-heavy ones.
    for (const char* name : {"dct8x8", "aes", "sobolqrng"}) {
        SimResult r = runBaseline(name, 0.2);
        EXPECT_GT(r.sm.rf.reduction(), 0.40) << name;
        EXPECT_LT(r.sm.rf.reduction(), 0.85) << name;
    }
}

TEST(PaperShapes, UnifiedOverheadAblationOrdering)
{
    // Section 6.1: the unified design pays more conflict overhead than
    // the partitioned design, but both are tiny.
    u64 part = 0, uni = 0, part_instr = 0, uni_instr = 0;
    for (const char* name : {"aes", "sto", "scalarprod"}) {
        RunSpec p;
        SimResult rp = simulateBenchmark(name, kScale, p);
        part += rp.sm.conflictPenaltyCycles;
        part_instr += rp.sm.warpInstrs;
        RunSpec u;
        u.design = DesignKind::Unified;
        SimResult ru = simulateBenchmark(name, kScale, u);
        uni += ru.sm.conflictPenaltyCycles;
        uni_instr += ru.sm.warpInstrs;
    }
    EXPECT_GE(uni, part);
    // Overhead below 0.2 cycles per instruction in both designs.
    EXPECT_LT(static_cast<double>(part) / part_instr, 0.2);
    EXPECT_LT(static_cast<double>(uni) / uni_instr, 0.2);
}

} // namespace
} // namespace unimem
