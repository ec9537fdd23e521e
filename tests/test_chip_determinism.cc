/**
 * @file
 * Determinism tier for the bound-weave chip engine (DESIGN.md
 * Section 10): every chip statistic is pinned exactly, no result may
 * depend on how many chips run side by side, and the invariants that
 * hold for any chip are checked.
 *
 *  - exact golden: 42 chip runs (every shipped kernel, three traffic
 *    shapes, eight seeded random chips, fenced sub-rounds at a quantum
 *    above the DRAM latency) against tests/golden/chip_stats.golden;
 *    the runs execute side by side on a worker pool, and the
 *    ThreadSanitizer gate (scripts/check.sh --tsan-only) replays them
 *  - worker sweep: chips run side by side on pools of 1/2/4/8 workers
 *    (as reproduce ext_chip_validation runs them under --jobs) over a
 *    regular (vectoradd), an irregular (bfs), and a barrier-heavy
 *    (needle) kernel, and the eight seeded random chips, must agree
 *    bit for bit
 *  - bound-phase ownership: on every shipped kernel only the weave
 *    touches the chip's DRAM channels, and the per-SM sector shares
 *    add up to the chip's traffic
 *  - quantum audit: which chip stats are quantum-invariant (work
 *    done) and which legitimately move (multi-SM contention timing)
 *  - symmetric-grid skew: a seed-independent compute-only kernel
 *    must finish on every SM at the same cycle (zero skew, zero
 *    imbalance)
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/worker_pool.hh"
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

// ---- Exact golden of every chip statistic ------------------------------

/** One chip run of the golden: a label and the chip it runs. */
struct GoldenRun
{
    std::string label;
    std::string kernel;
    double scale = 0.0;
    u32 numSms = 0;
    u32 chipDramBytesPerCycle = 0;
    Cycle quantum = 0;
};

GoldenRun
goldenRun(const std::string& group, const std::string& kernel,
          double scale, u32 numSms, u32 bytesPerCycle, Cycle quantum)
{
    std::ostringstream label;
    label << group << "/" << kernel << "/" << numSms << "sm/"
          << bytesPerCycle << "B/q" << quantum;
    return {label.str(), kernel, scale, numSms, bytesPerCycle, quantum};
}

/** Every shipped kernel's own traffic shape on a small chip. */
std::vector<GoldenRun>
kernelRuns()
{
    std::vector<GoldenRun> runs;
    for (const BenchmarkInfo& info : allBenchmarks())
        runs.push_back(goldenRun("kernel", info.name, 0.05, 4, 256, 64));
    return runs;
}

/** Regular streaming, irregular data-dependent, and barrier-heavy. */
std::vector<GoldenRun>
shapeRuns()
{
    return {goldenRun("shape", "vectoradd", 0.05, 8, 64, 64),
            goldenRun("shape", "bfs", 0.04, 8, 64, 64),
            goldenRun("shape", "needle", 0.04, 8, 64, 64)};
}

/**
 * Eight chips drawn from a fixed seed, so a failure is reproducible:
 * 1 to 32 SMs, 8 to 256 B/cycle of chip DRAM, quanta 16 to 1024.
 */
std::vector<GoldenRun>
randomRuns()
{
    std::vector<GoldenRun> runs;
    std::mt19937 rng(12345);
    const char* kernels[] = {"vectoradd", "bfs"};
    const Cycle quanta[] = {16, 64, 256, 1024};
    for (int iter = 0; iter < 8; ++iter) {
        u32 sms = 1 + static_cast<u32>(rng() % 32);
        u32 bw = 8u << (rng() % 6);
        Cycle quantum = quanta[rng() % 4];
        rng.discard(2); // unused draws: keeps the golden's seeded configs
        runs.push_back(goldenRun("random" + std::to_string(iter),
                                 kernels[iter % 2], 0.02, sms, bw,
                                 quantum));
    }
    return runs;
}

/**
 * The golden's runs: kernelRuns(), shapeRuns(), randomRuns(), and the
 * validation exhibit's kernels at a quantum above the 400-cycle DRAM
 * latency, where fenced sub-rounds are sure to run.
 */
std::vector<GoldenRun>
goldenRuns()
{
    std::vector<GoldenRun> runs = kernelRuns();
    for (const std::vector<GoldenRun>& group : {shapeRuns(), randomRuns()})
        runs.insert(runs.end(), group.begin(), group.end());
    for (const char* name :
         {"vectoradd", "sgemv", "bfs", "hotspot", "needle"})
        runs.push_back(goldenRun("fenced", name, 0.1, 4, 32, 1024));
    return runs;
}

/**
 * Runs every chip of @p runs side by side on a pool of @p workers,
 * each into its own slot, as reproduce ext_chip_validation runs its
 * chips under --jobs. ChipConfig::workers, which the bound phase
 * ignores, is set to the pool size as well.
 */
std::vector<ChipStats>
runOnPool(const std::vector<GoldenRun>& runs, u32 workers)
{
    std::vector<ChipStats> stats(runs.size());
    WorkerPool(workers).dispatch(static_cast<u32>(runs.size()), [&](u32 i) {
        const GoldenRun& r = runs[i];
        auto k = createBenchmark(r.kernel, r.scale);
        ChipConfig cfg;
        cfg.numSms = r.numSms;
        cfg.chipDramBytesPerCycle = r.chipDramBytesPerCycle;
        cfg.quantum = r.quantum;
        cfg.workers = workers;
        cfg.sm = smConfigFor(*k);
        ChipModel chip(cfg, *k);
        stats[i] = chip.run();
    });
    return stats;
}

/** FNV-1a over every SM's exported statistics, names and values. */
u64
smStatsDigest(const ChipStats& cs)
{
    u64 h = 14695981039346656037ull;
    auto mixByte = [&h](u8 b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    for (const SmStats& s : cs.sms) {
        const StatSet set = s.toStatSet();
        for (const auto& [name, value] : set.entries()) {
            for (char c : name)
                mixByte(static_cast<u8>(c));
            mixByte(0);
            u64 bits = std::bit_cast<u64>(value);
            for (int i = 0; i < 8; ++i)
                mixByte(static_cast<u8>(bits >> (8 * i)));
        }
    }
    return h;
}

/** The golden line of one run, after its label. */
std::string
goldenFields(const ChipStats& cs)
{
    std::ostringstream os;
    os << "cycles=" << cs.cycles << " dram=" << cs.dram.sectors()
       << " tex=" << cs.texDram.sectors() << " sm_sectors=";
    for (size_t i = 0; i < cs.perSmDramSectors.size(); ++i)
        os << (i != 0 ? "," : "") << cs.perSmDramSectors[i];
    os << " windows=" << cs.windows << " passes=" << cs.boundPasses
       << " weave_reqs=" << cs.weaveRequests
       << " stall=" << cs.weaveStallCycles << " quanta=" << cs.smQuantaRun
       << "/" << cs.smQuantaSkipped << " stats=" << std::hex
       << smStatsDigest(cs);
    return os.str();
}

/** Structural invariants of any chip run. */
void
expectWellFormed(const GoldenRun& r, const ChipStats& cs)
{
    EXPECT_EQ(cs.perSmDramSectors.size(), r.numSms) << r.label;
    EXPECT_EQ(cs.sms.size(), r.numSms) << r.label;
    u64 sectorSum = 0;
    for (u64 s : cs.perSmDramSectors)
        sectorSum += s;
    EXPECT_EQ(sectorSum, cs.dram.sectors() + cs.texDram.sectors())
        << r.label << ": per-SM DRAM shares must add up to the chip "
        << "traffic";
    EXPECT_GE(cs.cycles, 1u) << r.label;
    // Every window except the final all-finished one runs >= 1 SM.
    EXPECT_GE(cs.smQuantaRun + 1, cs.windows) << r.label;
}

std::string
goldenPath()
{
    return std::string(UNIMEM_SOURCE_DIR) + "/tests/golden/chip_stats.golden";
}

TEST(ChipGolden, StatsMatchGoldenFile)
{
    const std::vector<GoldenRun> runs = goldenRuns();

    // Independent chips side by side on one pool; the ThreadSanitizer
    // gate (scripts/check.sh --tsan-only) replays this.
    const std::vector<ChipStats> stats = runOnPool(runs, 4);

    std::vector<std::string> lines;
    for (size_t i = 0; i < runs.size(); ++i) {
        expectWellFormed(runs[i], stats[i]);
        lines.push_back(runs[i].label + " " + goldenFields(stats[i]));
    }

    if (std::getenv("UNIMEM_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << "# Chip statistics, exact; regenerate with\n"
            << "# UNIMEM_UPDATE_GOLDEN=1 ./build/tests/"
               "test_chip_determinism --gtest_filter='ChipGolden.*'\n"
            << "# label: group/kernel/SMs/chip DRAM B per cycle/quantum; "
               "stats: FNV-1a of every SM's toStatSet\n";
        for (const std::string& l : lines)
            out << l << '\n';
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in.good())
        << "missing " << goldenPath()
        << " - regenerate with UNIMEM_UPDATE_GOLDEN=1";
    std::vector<std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        golden.push_back(line);
    }
    ASSERT_EQ(golden.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], golden[i]);
}

// ---- Worker-count invariance: the core determinism contract -----------

TEST(ChipDeterminism, WorkerCountBitIdentical_1_2_4_8)
{
    // The pool that runs chips side by side must never change a result,
    // bit for bit. Each traffic shape runs twice per batch, so on the
    // larger pools two copies of one chip also run at the same time.
    const std::vector<GoldenRun> shapes = shapeRuns();
    std::vector<GoldenRun> runs = shapes;
    runs.insert(runs.end(), shapes.begin(), shapes.end());

    const std::vector<ChipStats> reference = runOnPool(runs, 1);
    for (size_t i = 0; i < runs.size(); ++i)
        expectWellFormed(runs[i], reference[i]);
    for (u32 workers : {2u, 4u, 8u}) {
        const std::vector<ChipStats> stats = runOnPool(runs, workers);
        for (size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(goldenFields(stats[i]), goldenFields(reference[i]))
                << runs[i].label << " diverges on " << workers
                << " workers";
    }
}

TEST(ChipDeterminism, RandomConfigsAgreeAcrossWorkerCounts)
{
    // The eight seeded random chips, one after another and then all at
    // once, must agree exactly. scripts/check.sh --tsan-only replays
    // this whole binary under ThreadSanitizer to catch races the
    // equality check cannot see.
    const std::vector<GoldenRun> runs = randomRuns();
    const std::vector<ChipStats> serial = runOnPool(runs, 1);
    const std::vector<ChipStats> together = runOnPool(runs, 8);
    for (size_t i = 0; i < runs.size(); ++i) {
        expectWellFormed(runs[i], serial[i]);
        EXPECT_EQ(goldenFields(together[i]), goldenFields(serial[i]))
            << runs[i].label << " diverges when run beside the others";
    }
}

// ---- Bound-phase ownership on every shipped kernel ---------------------

TEST(PassOwnership, BoundPhaseIsOwnershipCleanOnShippedKernel)
{
    // In the bound phase an SM owns only its own state and its own DRAM
    // queue; the chip's DRAM channels belong to the weave. So on every
    // shipped kernel's own traffic shape (4 SMs, 2 chips at a time),
    // the channels must have served exactly the requests the weave
    // replayed, and the per-SM shares of the replayed sectors must add
    // up to the chip's traffic.
    const std::vector<GoldenRun> runs = kernelRuns();
    const std::vector<ChipStats> stats = runOnPool(runs, 2);
    u64 replayed = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        const ChipStats& cs = stats[i];
        const u64 served = cs.dram.readRequests + cs.dram.writeRequests +
                           cs.texDram.readRequests +
                           cs.texDram.writeRequests;
        EXPECT_EQ(served, cs.weaveRequests)
            << runs[i].label << ": DRAM served requests the weave did "
            << "not replay";
        expectWellFormed(runs[i], cs);
        replayed += cs.weaveRequests;
    }
    EXPECT_GT(replayed, 0u)
        << "the shipped kernels must actually exercise the weave";
}

// ---- Quantum audit: what may and may not move with the quantum --------

TEST(ChipDeterminism, QuantumSweepAuditsInvariantWork)
{
    // The quantum controls how coarsely the weave interleaves multi-SM
    // DRAM traffic, so *timing* (cycles, stall accounting) may shift
    // between quanta. The *work* each SM performs is a function of its
    // trace alone and must not: warp instructions, barriers, CTAs, and
    // the total replayed request count all stay fixed.
    auto k = createBenchmark("sgemv", 0.05);
    ChipConfig cfg;
    cfg.numSms = 4;
    cfg.sm = smConfigFor(*k);
    cfg.chipDramBytesPerCycle = 4 * cfg.sm.dramBytesPerCycle;

    struct WorkAudit
    {
        u64 warpInstrs = 0;
        u64 barriers = 0;
        u64 ctas = 0;
        u64 weaveRequests = 0;
        Cycle cycles = 0;
    };
    std::vector<WorkAudit> audits;
    for (Cycle quantum : {16ull, 64ull, 256ull}) {
        cfg.quantum = quantum;
        auto kq = createBenchmark("sgemv", 0.05);
        ChipModel chip(cfg, *kq);
        const ChipStats& cs = chip.run();
        WorkAudit a;
        a.warpInstrs = cs.warpInstrs();
        for (const SmStats& s : cs.sms) {
            a.barriers += s.barriers;
            a.ctas += s.ctasExecuted;
        }
        a.weaveRequests = cs.weaveRequests;
        a.cycles = cs.cycles;
        audits.push_back(a);

        std::ostringstream os;
        os << "quantum " << quantum << ": " << cs.cycles << " cycles, "
           << cs.windows << " windows, " << cs.boundPasses
           << " bound passes, utilization "
           << cs.quantumUtilization();
        RecordProperty("quantum_" + std::to_string(quantum), os.str());
        std::cout << "[ audit    ] " << os.str() << "\n";
    }
    for (size_t i = 1; i < audits.size(); ++i) {
        EXPECT_EQ(audits[i].warpInstrs, audits[0].warpInstrs);
        EXPECT_EQ(audits[i].barriers, audits[0].barriers);
        EXPECT_EQ(audits[i].ctas, audits[0].ctas);
        EXPECT_EQ(audits[i].weaveRequests, audits[0].weaveRequests);
    }
}

// ---- Symmetric grids finish together ----------------------------------

/** Compute-only kernel that ignores the per-SM trace seed entirely. */
class SymmetricKernel : public KernelModel
{
  public:
    SymmetricKernel()
    {
        kp_.name = "symmetric";
        kp_.regsPerThread = 16;
        kp_.sharedBytesPerCta = 0;
        kp_.ctaThreads = 2 * kWarpWidth;
        kp_.gridCtas = 6;
    }

    const KernelParams& params() const override { return kp_; }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx&) const override
    {
        std::vector<WarpInstr> prog;
        for (int rep = 0; rep < 40; ++rep) {
            prog.push_back(instr::alu(2, 0, 1));
            prog.push_back(instr::alu(3, 2, 1, kInvalidReg, true));
            prog.push_back(instr::sfu(4, 3));
            prog.push_back(instr::bar());
        }
        return std::make_unique<FixedProgram>(prog);
    }

  private:
    KernelParams kp_;
};

TEST(ChipDeterminism, SymmetricGridHasZeroSkew)
{
    // Identical per-SM traces with no shared-resource traffic must
    // finish in lockstep: per-SM completion cycles equal, zero finish
    // skew, zero load imbalance.
    SymmetricKernel k;
    ChipConfig cfg;
    cfg.numSms = 4;
    cfg.sm = smConfigFor(k);
    cfg.chipDramBytesPerCycle = 4 * cfg.sm.dramBytesPerCycle;
    ChipModel chip(cfg, k);
    const ChipStats& cs = chip.run();

    ASSERT_EQ(cs.sms.size(), 4u);
    for (const SmStats& s : cs.sms)
        EXPECT_EQ(s.cycles, cs.sms[0].cycles);
    EXPECT_EQ(cs.finishSkew(), 0u);
    EXPECT_DOUBLE_EQ(cs.loadImbalance(), 0.0);
    for (u64 sectors : cs.perSmDramSectors)
        EXPECT_EQ(sectors, 0u) << "compute-only kernel hit DRAM";
    for (const SmStats& s : cs.sms)
        EXPECT_EQ(s.toStatSet().entries(),
                  cs.sms[0].toStatSet().entries());
}

TEST(ChipDeterminism, SkewBookkeepingIsConsistent)
{
    auto k = createBenchmark("bfs", 0.04);
    ChipConfig cfg;
    cfg.numSms = 3;
    cfg.sm = smConfigFor(*k);
    cfg.chipDramBytesPerCycle = 3 * cfg.sm.dramBytesPerCycle;
    ChipModel chip(cfg, *k);
    const ChipStats& cs = chip.run();
    EXPECT_EQ(cs.finishSkew(), cs.maxSmCycles() - cs.minSmCycles());
    EXPECT_GE(cs.loadImbalance(), 0.0);
    for (const SmStats& s : cs.sms)
        EXPECT_GT(s.cycles, 0u) << "per-SM completion cycle missing";
}

} // namespace
} // namespace unimem
