/**
 * @file
 * Determinism tier for the parallel bound-weave chip engine
 * (DESIGN.md Section 10): the worker count must never change any
 * simulation result, bit for bit.
 *
 *  - worker sweep: 1/2/4/8-worker chip runs over a regular
 *    (vectoradd), an irregular (bfs), and a barrier-heavy (needle)
 *    kernel compared field-by-field against the 1-worker reference
 *  - quantum audit: which chip stats are quantum-invariant (work
 *    done) and which legitimately move (multi-SM contention timing)
 *  - symmetric-grid skew: a seed-independent compute-only kernel
 *    must finish on every SM at the same cycle (zero skew, zero
 *    imbalance)
 *  - randomized stress: random ChipConfigs re-run with two different
 *    worker counts must agree exactly; also run under the
 *    ThreadSanitizer gate (scripts/check.sh --tsan-only)
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/ownership.hh"
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

/**
 * Everything a chip run computes, minus fields that are allowed to
 * depend on the host (workersUsed) or on nothing at all. Two runs of
 * the same ChipConfig must produce equal fingerprints no matter how
 * many bound-phase workers either used.
 */
struct ChipFingerprint
{
    Cycle cycles = 0;
    u64 dramSectors = 0;
    u64 texDramSectors = 0;
    u64 windows = 0;
    u64 boundPasses = 0;
    u64 weaveRequests = 0;
    u64 weaveStallCycles = 0;
    u64 smQuantaRun = 0;
    u64 smQuantaSkipped = 0;
    std::vector<u64> perSmSectors;
    std::vector<std::map<std::string, double>> smStats;

    bool
    operator==(const ChipFingerprint& o) const
    {
        return cycles == o.cycles && dramSectors == o.dramSectors &&
               texDramSectors == o.texDramSectors &&
               windows == o.windows && boundPasses == o.boundPasses &&
               weaveRequests == o.weaveRequests &&
               weaveStallCycles == o.weaveStallCycles &&
               smQuantaRun == o.smQuantaRun &&
               smQuantaSkipped == o.smQuantaSkipped &&
               perSmSectors == o.perSmSectors && smStats == o.smStats;
    }
};

ChipFingerprint
fingerprint(const ChipStats& cs)
{
    ChipFingerprint fp;
    fp.cycles = cs.cycles;
    fp.dramSectors = cs.dram.sectors();
    fp.texDramSectors = cs.texDram.sectors();
    fp.windows = cs.windows;
    fp.boundPasses = cs.boundPasses;
    fp.weaveRequests = cs.weaveRequests;
    fp.weaveStallCycles = cs.weaveStallCycles;
    fp.smQuantaRun = cs.smQuantaRun;
    fp.smQuantaSkipped = cs.smQuantaSkipped;
    fp.perSmSectors = cs.perSmDramSectors;
    for (const SmStats& s : cs.sms)
        fp.smStats.push_back(s.toStatSet().entries());
    return fp;
}

ChipFingerprint
runChip(const ChipConfig& cfg, const std::string& kernel, double scale)
{
    auto k = createBenchmark(kernel, scale);
    ChipModel chip(cfg, *k);
    return fingerprint(chip.run());
}

// ---- Worker-count invariance: the core determinism contract -----------

TEST(ChipDeterminism, WorkerCountBitIdentical_1_2_4_8)
{
    struct Workload
    {
        const char* name;
        double scale;
    };
    // Regular streaming, irregular data-dependent, and barrier-heavy
    // traffic shapes; each stresses a different bound-weave path.
    const Workload workloads[] = {
        {"vectoradd", 0.05}, {"bfs", 0.04}, {"needle", 0.04}};

    for (const Workload& w : workloads) {
        auto k = createBenchmark(w.name, w.scale);
        ChipConfig cfg;
        cfg.numSms = 8;
        cfg.sm = smConfigFor(*k);
        cfg.chipDramBytesPerCycle = 8 * cfg.sm.dramBytesPerCycle;

        cfg.workers = 1;
        ChipFingerprint reference = runChip(cfg, w.name, w.scale);
        for (u32 workers : {2u, 4u, 8u}) {
            cfg.workers = workers;
            EXPECT_TRUE(runChip(cfg, w.name, w.scale) == reference)
                << w.name << " diverges with " << workers << " workers";
        }
    }
}

// ---- Ownership audit: bound-phase isolation by construction -----------

std::mutex gViolationMu;
std::vector<ownership::Violation> gViolations;

void
collectViolation(const ownership::Violation& v)
{
    std::lock_guard<std::mutex> lk(gViolationMu);
    gViolations.push_back(v);
}

/** Report and clear the violations collected so far, naming @p run. */
void
expectNoViolations(const std::string& run)
{
    std::lock_guard<std::mutex> lk(gViolationMu);
    for (const ownership::Violation& v : gViolations)
        ADD_FAILURE() << run << ": " << v.str();
    gViolations.clear();
}

/**
 * Arms the ownership auditor with the collecting handler for one test
 * and restores the previous auditing state and handler on exit.
 */
class AuditScope
{
  public:
    AuditScope()
        : prevAuditing_(ownership::auditing()),
          prevHandler_(ownership::setViolationHandler(collectViolation)),
          checksBefore_(ownership::checksPerformed())
    {
        ownership::setAuditing(true);
        std::lock_guard<std::mutex> lk(gViolationMu);
        gViolations.clear();
    }

    ~AuditScope()
    {
        ownership::setAuditing(prevAuditing_);
        ownership::setViolationHandler(prevHandler_);
    }

    u64 checksMade() const
    {
        return ownership::checksPerformed() - checksBefore_;
    }

  private:
    bool prevAuditing_;
    ownership::Handler prevHandler_;
    u64 checksBefore_;
};

TEST(ChipDeterminism, OwnershipAuditCleanAcrossWorkerCounts)
{
    // Bit-identical fingerprints prove the weave *result* is invariant;
    // the ownership auditor proves the *process* is data-isolated: no
    // SM touches another SM's DRAM queue or a weave-only entry point
    // during the bound phase, at any worker count.
    AuditScope audit;

    auto k = createBenchmark("vectoradd", 0.05);
    ChipConfig cfg;
    cfg.numSms = 8;
    cfg.sm = smConfigFor(*k);
    cfg.chipDramBytesPerCycle = 8 * cfg.sm.dramBytesPerCycle;
    for (u32 workers : {1u, 2u, 4u, 8u}) {
        cfg.workers = workers;
        runChip(cfg, "vectoradd", 0.05);
        expectNoViolations("vectoradd, " + std::to_string(workers) +
                           " workers");
    }

    EXPECT_GT(audit.checksMade(), 0u)
        << "the audited run must actually exercise ownership checks";
}

TEST(PassOwnership, BoundPhaseIsOwnershipCleanOnShippedKernel)
{
    // Every shipped kernel's own traffic shape once, on a 4-SM chip
    // with 2 bound-phase workers and the auditor armed.
    AuditScope audit;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto kernel = createBenchmark(info.name, 0.05);
        ChipConfig small;
        small.numSms = 4;
        small.workers = 2;
        small.quantum = 64;
        small.sm = smConfigFor(*kernel);
        ChipModel chip(small, *kernel);
        chip.run();
        expectNoViolations(info.name);
    }

    EXPECT_GT(audit.checksMade(), 0u)
        << "the audited runs must actually exercise ownership checks";
}

TEST(ChipDeterminism, WorkerCountResolution)
{
    EXPECT_EQ(ChipModel::resolveWorkerCount(3, 8), 3u);
    EXPECT_EQ(ChipModel::resolveWorkerCount(16, 4), 4u)
        << "workers are capped to the SM count";
    u32 resolved = ChipModel::resolveWorkerCount(0, 8);
    EXPECT_GE(resolved, 1u);
    EXPECT_LE(resolved, 8u);

    // 0 resolves through the UNIMEM_CHIP_JOBS environment variable.
    const char* saved = std::getenv("UNIMEM_CHIP_JOBS");
    std::string savedCopy = saved ? saved : "";
    setenv("UNIMEM_CHIP_JOBS", "6", 1);
    EXPECT_EQ(ChipModel::resolveWorkerCount(0, 16), 6u);
    EXPECT_EQ(ChipModel::resolveWorkerCount(0, 4), 4u);
    if (saved)
        setenv("UNIMEM_CHIP_JOBS", savedCopy.c_str(), 1);
    else
        unsetenv("UNIMEM_CHIP_JOBS");
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

// ---- Randomized configuration stress ----------------------------------

TEST(ChipDeterminism, RandomConfigsAgreeAcrossWorkerCounts)
{
    // Fixed seed: the "random" configurations are the same every run,
    // so a failure here is reproducible. Each configuration runs twice
    // with independently drawn worker counts; the fingerprints must
    // match exactly. scripts/check.sh --tsan-only replays this whole
    // binary under ThreadSanitizer to catch races the equality check
    // cannot see.
    std::mt19937 rng(12345);
    const char* kernels[] = {"vectoradd", "bfs"};
    const Cycle quanta[] = {16, 64, 256, 1024};

    for (int iter = 0; iter < 8; ++iter) {
        ChipConfig cfg;
        cfg.numSms = 1 + static_cast<u32>(rng() % 32);
        cfg.chipDramBytesPerCycle = 8u << (rng() % 6);
        cfg.quantum = quanta[rng() % 4];
        const char* kernel = kernels[iter % 2];
        auto k = createBenchmark(kernel, 0.02);
        cfg.sm = smConfigFor(*k);

        cfg.workers = 1 + static_cast<u32>(rng() % 8);
        ChipFingerprint a = runChip(cfg, kernel, 0.02);
        u32 workersA = cfg.workers;
        cfg.workers = 1 + static_cast<u32>(rng() % 8);
        ChipFingerprint b = runChip(cfg, kernel, 0.02);

        EXPECT_TRUE(a == b)
            << "iter " << iter << " (" << kernel << ", " << cfg.numSms
            << " SMs, " << cfg.chipDramBytesPerCycle << " B/cyc, "
            << "quantum " << cfg.quantum << "): " << workersA << " vs "
            << cfg.workers << " workers diverge";

        // Structural invariants of any chip run.
        EXPECT_EQ(a.perSmSectors.size(), cfg.numSms);
        EXPECT_EQ(a.smStats.size(), cfg.numSms);
        u64 sectorSum = 0;
        for (u64 s : a.perSmSectors)
            sectorSum += s;
        EXPECT_EQ(sectorSum, a.dramSectors + a.texDramSectors)
            << "per-SM DRAM shares must add up to the chip traffic";
        EXPECT_GE(a.cycles, 1u);
        // Every window except the final all-finished one runs >= 1 SM.
        EXPECT_GE(a.smQuantaRun + 1, a.windows);
    }
}

} // namespace
} // namespace unimem
