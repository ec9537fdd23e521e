/**
 * @file
 * Tests for chip-level co-simulation: equivalence with the single-SM
 * methodology at proportional bandwidth, DRAM contention effects,
 * bookkeeping invariants, and a golden snapshot of the Section 5.1
 * chip-vs-scaled-single-SM validation table.
 *
 * The golden file lives in tests/golden/chip_validation.golden;
 * regenerate with
 *   UNIMEM_UPDATE_GOLDEN=1 ./test_chip --gtest_filter='ChipGolden.*'
 * and commit the diff.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "kernels/registry.hh"
#include "sim/simulator.hh"
#include "sm/chip.hh"

namespace unimem {
namespace {

SmRunConfig
smConfigFor(const KernelModel& k)
{
    SmRunConfig cfg;
    cfg.partition = baselinePartition();
    cfg.launch = occupancyPartitioned(k.params(), cfg.partition.rfBytes,
                                      cfg.partition.sharedBytes);
    return cfg;
}

TEST(Chip, OneSmMatchesSingleSmExactly)
{
    auto k = createBenchmark("sgemv", 0.15);
    SmRunConfig cfg = smConfigFor(*k);

    SmStats single = runKernel(cfg, *k);

    ChipConfig chip_cfg;
    chip_cfg.numSms = 1;
    chip_cfg.chipDramBytesPerCycle = cfg.dramBytesPerCycle;
    chip_cfg.sm = cfg;
    ChipModel chip(chip_cfg, *k);
    const ChipStats& chip_stats = chip.run();

    EXPECT_EQ(chip_stats.cycles, single.cycles);
    EXPECT_EQ(chip_stats.sms[0].warpInstrs, single.warpInstrs);
    EXPECT_EQ(chip_stats.dram.sectors(), single.dram.sectors());
}

TEST(Chip, ZeroSmsIsFatalBeforeDramIsBuilt)
{
    // unimem_cli chip --sms=0 derives 0 B/cycle of chip DRAM from it.
    auto k = createBenchmark("sgemv", 0.15);
    ChipConfig cfg;
    cfg.numSms = 0;
    cfg.chipDramBytesPerCycle = 0;
    cfg.sm = smConfigFor(*k);
    EXPECT_EXIT(ChipModel(cfg, *k), ::testing::ExitedWithCode(1),
                "ChipModel: zero SMs");
}

TEST(Chip, SmCountAboveLimitIsFatal)
{
    auto k = createBenchmark("sgemv", 0.15);
    ChipConfig cfg;
    cfg.numSms = ChipConfig::kMaxSms + 1;
    cfg.sm = smConfigFor(*k);
    EXPECT_EXIT(ChipModel(cfg, *k), ::testing::ExitedWithCode(1),
                "ChipModel: 257 SMs, at most 256");
}

TEST(Chip, QuantumSizeDoesNotChangeSingleSmResult)
{
    auto k = createBenchmark("vectoradd", 0.1);
    SmRunConfig cfg = smConfigFor(*k);
    Cycle prev = 0;
    for (Cycle quantum : {16ull, 64ull, 1024ull}) {
        ChipConfig chip_cfg;
        chip_cfg.numSms = 1;
        chip_cfg.chipDramBytesPerCycle = cfg.dramBytesPerCycle;
        chip_cfg.quantum = quantum;
        chip_cfg.sm = cfg;
        ChipModel chip(chip_cfg, *k);
        Cycle c = chip.run().cycles;
        if (prev != 0) {
            EXPECT_EQ(c, prev) << "quantum " << quantum;
        }
        prev = c;
    }
}

TEST(Chip, ProportionalBandwidthApproximatesSingleSm)
{
    // The paper's methodological claim: N SMs sharing N x 8 B/cycle
    // behave like one SM with 8 B/cycle. Allow 15% modeling slack (the
    // shared channel introduces inter-SM queueing jitter).
    for (const char* name : {"vectoradd", "sgemv"}) {
        auto k = createBenchmark(name, 0.15);
        SmRunConfig cfg = smConfigFor(*k);
        SmStats single = runKernel(cfg, *k);

        ChipConfig chip_cfg;
        chip_cfg.numSms = 4;
        chip_cfg.chipDramBytesPerCycle = 4 * cfg.dramBytesPerCycle;
        chip_cfg.sm = cfg;
        ChipModel chip(chip_cfg, *k);
        const ChipStats& cs = chip.run();

        double ratio = static_cast<double>(cs.maxSmCycles()) /
                       static_cast<double>(single.cycles);
        EXPECT_GT(ratio, 0.85) << name;
        EXPECT_LT(ratio, 1.25) << name;
        // All four SMs did the full grid share each.
        EXPECT_EQ(cs.warpInstrs(), 4u * single.warpInstrs);
    }
}

TEST(Chip, UnderProvisionedBandwidthSlowsTheChip)
{
    auto k = createBenchmark("vectoradd", 0.1);
    SmRunConfig cfg = smConfigFor(*k);

    ChipConfig fair;
    fair.numSms = 4;
    fair.chipDramBytesPerCycle = 32;
    fair.sm = cfg;
    auto k1 = createBenchmark("vectoradd", 0.1);
    ChipModel chip_fair(fair, *k1);
    Cycle fair_cycles = chip_fair.run().cycles;

    ChipConfig starved = fair;
    starved.chipDramBytesPerCycle = 8; // 4 SMs on one SM's bandwidth
    auto k2 = createBenchmark("vectoradd", 0.1);
    ChipModel chip_starved(starved, *k2);
    Cycle starved_cycles = chip_starved.run().cycles;

    EXPECT_GT(starved_cycles, fair_cycles * 2);
}

TEST(Chip, PerSmSeedsDiversifyTraces)
{
    // Seed-sensitive kernels (bfs probes) produce different per-SM
    // DRAM timing; deterministic kernels do not.
    auto k = createBenchmark("bfs", 0.05);
    SmRunConfig cfg = smConfigFor(*k);
    ChipConfig chip_cfg;
    chip_cfg.numSms = 2;
    chip_cfg.chipDramBytesPerCycle = 16;
    chip_cfg.sm = cfg;
    ChipModel chip(chip_cfg, *k);
    const ChipStats& cs = chip.run();
    EXPECT_EQ(cs.sms.size(), 2u);
    // Both executed nearly the same instruction count (the random
    // frontier-update masks differ slightly between seeds)...
    EXPECT_NEAR(static_cast<double>(cs.sms[0].warpInstrs),
                static_cast<double>(cs.sms[1].warpInstrs),
                0.01 * static_cast<double>(cs.sms[0].warpInstrs));
    // ...and the run is reproducible.
    auto k2 = createBenchmark("bfs", 0.05);
    ChipModel chip2(chip_cfg, *k2);
    EXPECT_EQ(chip2.run().cycles, cs.cycles);
}

// ---- Golden snapshot of the Section 5.1 validation table --------------

constexpr double kGoldenScale = 0.1;
constexpr u32 kGoldenSms = 4;
constexpr double kGoldenTolerance = 0.01; // 1% relative drift budget

std::string
goldenPath()
{
    return std::string(UNIMEM_SOURCE_DIR) +
           "/tests/golden/chip_validation.golden";
}

struct ChipGoldenRow
{
    std::string name;
    double singleCycles = 0.0;
    double chipMaxCycles = 0.0;
    double error = 0.0; // chip max-SM over single-SM, minus 1
};

std::vector<ChipGoldenRow>
computeChipValidationRows()
{
    std::vector<ChipGoldenRow> rows;
    for (const char* name :
         {"vectoradd", "sgemv", "bfs", "hotspot", "needle"}) {
        auto k = createBenchmark(name, kGoldenScale);
        SmRunConfig cfg = smConfigFor(*k);
        SmStats single = runKernel(cfg, *k);

        ChipConfig chip_cfg;
        chip_cfg.numSms = kGoldenSms;
        chip_cfg.chipDramBytesPerCycle =
            kGoldenSms * cfg.dramBytesPerCycle;
        chip_cfg.sm = cfg;
        auto kc = createBenchmark(name, kGoldenScale);
        ChipModel chip(chip_cfg, *kc);
        const ChipStats& cs = chip.run();

        ChipGoldenRow r;
        r.name = name;
        r.singleCycles = static_cast<double>(single.cycles);
        r.chipMaxCycles = static_cast<double>(cs.maxSmCycles());
        r.error = r.chipMaxCycles / r.singleCycles - 1.0;
        rows.push_back(r);
    }
    return rows;
}

TEST(ChipGolden, ValidationTableMatchesGoldenFile)
{
    std::vector<ChipGoldenRow> rows = computeChipValidationRows();

    if (std::getenv("UNIMEM_UPDATE_GOLDEN")) {
        std::ofstream os(goldenPath());
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        os << "# chip validation golden (paper Section 5.1: single-SM "
              "methodology vs\n"
           << "# " << kGoldenSms
           << "-SM bound-weave co-simulation at proportional "
              "bandwidth, scale "
           << kGoldenScale << ")\n"
           << "# columns: benchmark single_sm_cycles chip_max_sm_cycles "
              "error\n"
           << "# regenerate: UNIMEM_UPDATE_GOLDEN=1 ./test_chip "
              "--gtest_filter='ChipGolden.*'\n";
        os.precision(17);
        for (const ChipGoldenRow& r : rows)
            os << r.name << " " << r.singleCycles << " "
               << r.chipMaxCycles << " " << r.error << "\n";
        GTEST_SKIP() << "golden file regenerated at " << goldenPath();
    }

    std::ifstream is(goldenPath());
    ASSERT_TRUE(is) << "missing golden file " << goldenPath()
                    << " - regenerate with UNIMEM_UPDATE_GOLDEN=1";

    std::map<std::string, ChipGoldenRow> golden;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        ChipGoldenRow r;
        ASSERT_TRUE(static_cast<bool>(ls >> r.name >> r.singleCycles >>
                                      r.chipMaxCycles >> r.error))
            << "malformed golden line: " << line;
        golden[r.name] = r;
    }
    ASSERT_EQ(golden.size(), rows.size())
        << "golden file kernel set diverged - regenerate";

    auto within = [](double got, double want) {
        double denom = std::max(std::abs(want), 1e-12);
        return std::abs(got - want) / denom <= kGoldenTolerance;
    };
    for (const ChipGoldenRow& r : rows) {
        ASSERT_TRUE(golden.count(r.name)) << r.name;
        const ChipGoldenRow& g = golden[r.name];
        EXPECT_TRUE(within(r.singleCycles, g.singleCycles))
            << r.name << " single-SM cycles drifted: got "
            << r.singleCycles << ", golden " << g.singleCycles;
        EXPECT_TRUE(within(r.chipMaxCycles, g.chipMaxCycles))
            << r.name << " chip max-SM cycles drifted: got "
            << r.chipMaxCycles << ", golden " << g.chipMaxCycles;
        // The error column is derived; tolerate absolute drift of one
        // tolerance unit (relative checks degenerate near zero).
        EXPECT_LE(std::abs(r.error - g.error), kGoldenTolerance)
            << r.name << " methodology error drifted: got " << r.error
            << ", golden " << g.error;
    }
}

TEST(Chip, MinMaxSmCycleBookkeeping)
{
    auto k = createBenchmark("hotspot", 0.1);
    SmRunConfig cfg = smConfigFor(*k);
    ChipConfig chip_cfg;
    chip_cfg.numSms = 3;
    chip_cfg.chipDramBytesPerCycle = 24;
    chip_cfg.sm = cfg;
    ChipModel chip(chip_cfg, *k);
    const ChipStats& cs = chip.run();
    EXPECT_LE(cs.minSmCycles(), cs.maxSmCycles());
    EXPECT_GE(cs.cycles, cs.maxSmCycles());
}

} // namespace
} // namespace unimem
