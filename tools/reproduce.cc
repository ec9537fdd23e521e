#include "reproduce.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"
#include "common/table.hh"
#include "common/worker_pool.hh"
#include "core/partition.hh"
#include "energy/energy_model.hh"
#include "kernels/registry.hh"
#include "kernels/workloads.hh"
#include "mem/bank_conflicts.hh"
#include "sim/experiments.hh"
#include "sim/multi_kernel.hh"
#include "sim/sweep.hh"
#include "sm/chip.hh"

namespace unimem {

namespace {

/** Figure 11's needle blocking factors. */
constexpr u32 kNeedleFactors[] = {16, 32, 64};

/** dgemm needs a larger grid than the others to reach steady state. */
double
benefitScale(const std::string& name, double scale)
{
    return name == "dgemm" ? std::max(scale, 0.75) : scale;
}

/**
 * Run every spec in @p specs for each workload in @p names on the sweep
 * pool; results come back name-major: [n0s0, n0s1, ..., n1s0, ...].
 * With @p benefitScaled, dgemm runs at benefitScale().
 */
std::vector<SimResult>
sweepSpecs(const std::vector<std::string>& names,
           const std::vector<RunSpec>& specs, const ExhibitConfig& cfg,
           SweepStats* stats = nullptr, bool benefitScaled = false)
{
    std::vector<SweepJob> sweep;
    for (const std::string& name : names) {
        double s = benefitScaled ? benefitScale(name, cfg.scale) : cfg.scale;
        for (size_t i = 0; i < specs.size(); ++i)
            sweep.push_back(makeSweepJob(
                name + "/spec" + std::to_string(i), name, s, specs[i]));
    }
    return runSweep(sweep, cfg.jobs, stats);
}

/**
 * Table 1: registers per thread without spills, normalized dynamic
 * instruction counts at 18/24/32/40/64 registers per thread (the spill
 * injector at each allocation), register file size for full occupancy,
 * scratchpad bytes per thread, and normalized DRAM accesses with 0 / 64
 * KB / 256 KB of primary cache (full timing runs).
 */
void
table1Characterization(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Table 1: workload characteristics ===\n"
       << "(normalized dynamic instructions at 18/24/32/40/64 "
          "regs/thread; normalized DRAM accesses at 0/64KB/256KB "
          "cache)\n\n";

    // Eight points per workload: five register allocations on generous
    // capacities, so only the register count varies, then three cache
    // sizes.
    std::vector<RunSpec> specs;
    for (u32 regs : {18u, 24u, 32u, 40u, 64u}) {
        RunSpec spec;
        spec.partition = MemoryPartition{1_MB, 1_MB, 64_KB};
        spec.regsOverride = regs;
        specs.push_back(spec);
    }
    for (u64 cache : {0_KB, 64_KB, 256_KB}) {
        RunSpec spec;
        spec.partition = MemoryPartition{256_KB, 1_MB, cache};
        specs.push_back(spec);
    }
    std::vector<std::string> names;
    for (const BenchmarkInfo& info : allBenchmarks())
        names.push_back(info.name);
    SweepStats stats;
    std::vector<SimResult> results = sweepSpecs(names, specs, cfg, &stats);

    Table t({"workload", "category", "regs", "i18", "i24", "i32", "i40",
             "i64", "RF KB full occ", "sh B/thr", "d0", "d64K", "d256K"});
    const SimResult* r = results.data();
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto k = createBenchmark(info.name, cfg.scale);
        const KernelParams& kp = k->params();

        std::vector<std::string> row{info.name,
                                     categoryName(info.category),
                                     std::to_string(kp.regsPerThread)};
        double full = static_cast<double>(r[4].sm.warpInstrs);
        for (size_t i = 0; i < 5; ++i)
            row.push_back(Table::num(
                static_cast<double>(r[i].sm.warpInstrs) / full, 2));
        row.push_back(std::to_string(kMaxThreadsPerSm * kp.regsPerThread *
                                     kRegBytes / 1024));
        row.push_back(Table::num(kp.sharedBytesPerThread(), 1));
        double d256 = static_cast<double>(r[7].dramSectors());
        for (size_t i = 5; i < 8; ++i)
            row.push_back(Table::num(
                static_cast<double>(r[i].dramSectors()) / d256, 2));
        t.addRow(row);
        r += 8;
    }
    t.print(os);

    os << "\nPaper reference (Table 1) for the same columns:\n";
    Table ref({"workload", "regs", "sh B/thr", "d0", "d64K", "d256K"});
    for (const BenchmarkInfo& info : allBenchmarks())
        ref.addRow({info.name, std::to_string(info.paperRegs),
                    Table::num(info.paperSharedPerThread, 1),
                    Table::num(info.paperDramNone, 2),
                    Table::num(info.paperDram64k, 2),
                    Table::num(info.paperDram256k, 2)});
    ref.print(os);
    os << "sweep: " << stats.summary() << "\n";
}

/**
 * Figure 2: performance versus register file capacity (64 KB cache,
 * unbounded scratchpad). Each line of the paper's plot is a register
 * allocation per thread, each point a thread count; performance is
 * normalized to 64 registers per thread at 1024 threads.
 */
void
fig2RegfileSensitivity(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 2: performance vs register file capacity ===\n"
       << "(64KB cache, unbounded scratchpad; normalized to 64 "
          "regs/thread @ 1024 threads)\n";

    const std::vector<std::string> names{"dgemm", "pcr", "needle", "bfs"};
    const u32 regPoints[] = {18, 24, 32, 64};
    const u32 threadPoints[] = {256, 512, 768, 1024};

    // Per workload: the normalization point, then regs x threads.
    RunSpec ref;
    ref.partition = MemoryPartition{1_MB, 1_MB, 64_KB};
    ref.regsOverride = 64;
    std::vector<RunSpec> specs{ref};
    for (u32 regs : regPoints) {
        for (u32 threads : threadPoints) {
            specs.push_back(ref);
            specs.back().regsOverride = regs;
            specs.back().threadLimit = threads;
        }
    }
    SweepStats stats;
    std::vector<SimResult> results = sweepSpecs(names, specs, cfg, &stats);

    const SimResult* r = results.data();
    for (const std::string& name : names) {
        os << "\n--- " << name << " ---\n";
        double refCycles = static_cast<double>((r++)->cycles());
        Table t({"regs/thread", "threads", "RF KB", "norm perf"});
        for (u32 regs : regPoints) {
            for (size_t i = 0; i < std::size(threadPoints); ++i, ++r)
                t.addRow({std::to_string(regs),
                          std::to_string(r->alloc.launch.threads),
                          std::to_string(r->alloc.launch.rfBytes / 1024),
                          Table::num(refCycles /
                                         static_cast<double>(r->cycles()),
                                     3)});
        }
        t.print(os);
    }

    os << "\nExpected shape (paper): dgemm needs both many registers and "
          "many threads; pcr spills heavily below 32 regs; needle "
          "saturates by 512 threads; bfs is insensitive to registers but "
          "needs threads.\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Figure 3: performance versus scratchpad capacity with 64 registers
 * per thread and a 64 KB cache. Each point raises the thread count; the
 * x-value is the scratchpad the launch consumes. Normalized to 1024
 * threads (or the maximum the kernel reaches).
 */
void
fig3SharedSensitivity(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 3: performance vs scratchpad capacity ===\n"
       << "(64 regs/thread, 64KB cache; normalized to the 1024-thread "
          "point)\n";

    const char* names[] = {"needle", "pcr", "lu", "sto"};

    // Per workload: the normalization point, then one point per thread
    // limit that changes the launch (the allocation is known without
    // simulating, so repeated launches are never submitted).
    std::vector<SweepJob> sweep;
    std::vector<size_t> firstPoint;
    for (const char* name : names) {
        firstPoint.push_back(sweep.size());
        RunSpec ref;
        ref.partition = MemoryPartition{1_MB, 1_MB, 64_KB};
        ref.regsOverride = 64;
        sweep.push_back(
            makeSweepJob(std::string(name) + "/ref", name, cfg.scale, ref));

        auto k = createBenchmark(name, cfg.scale);
        u32 step = std::string(name) == "needle" ? 128 : 256;
        u32 lastThreads = 0;
        for (u32 limit = step; limit <= kMaxThreadsPerSm; limit += step) {
            RunSpec spec = ref;
            spec.threadLimit = limit;
            u32 threads = resolveAllocation(k->params(), spec).launch.threads;
            if (threads == lastThreads)
                continue;
            lastThreads = threads;
            sweep.push_back(makeSweepJob(
                std::string(name) + "/" + std::to_string(limit) + "t", name,
                cfg.scale, spec));
        }
    }
    firstPoint.push_back(sweep.size());
    SweepStats stats;
    std::vector<SimResult> results = runSweep(sweep, cfg.jobs, &stats);

    for (size_t n = 0; n < std::size(names); ++n) {
        os << "\n--- " << names[n] << " ---\n";
        double refCycles =
            static_cast<double>(results[firstPoint[n]].cycles());
        Table t({"threads", "shared KB", "norm perf"});
        for (size_t i = firstPoint[n] + 1; i < firstPoint[n + 1]; ++i) {
            const SimResult& r = results[i];
            t.addRow({std::to_string(r.alloc.launch.threads),
                      Table::num(static_cast<double>(
                                     r.alloc.launch.sharedBytes) /
                                     1024.0,
                                 1),
                      Table::num(refCycles / static_cast<double>(r.cycles()),
                                 3)});
        }
        t.print(os);
    }

    os << "\nExpected shape (paper): needle needs >200KB for full "
          "occupancy; pcr peaks with only ~20KB; lu wants more scratchpad "
          "than today's 64KB; sto performs well with few threads.\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Figure 4: performance versus primary cache capacity (registers sized
 * to eliminate spills, unbounded scratchpad). Rows are thread counts,
 * columns cache capacities; normalized to 512 KB at 1024 threads.
 */
void
fig4CacheSensitivity(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 4: performance vs cache capacity ===\n"
       << "(no spills, unbounded scratchpad; normalized to 512KB cache @ "
          "1024 threads)\n";

    const std::vector<std::string> names{"bfs", "pcr", "gpu-mummer",
                                         "needle"};
    const u64 cachePoints[] = {0_KB,   32_KB,  64_KB,
                               128_KB, 256_KB, 512_KB};

    // Per workload: the normalization point, then threads x cache.
    RunSpec ref;
    ref.partition = MemoryPartition{256_KB, 1_MB, 512_KB};
    std::vector<RunSpec> specs{ref};
    for (u32 limit = 256; limit <= kMaxThreadsPerSm; limit += 256) {
        for (u64 cache : cachePoints) {
            specs.push_back(ref);
            specs.back().partition.cacheBytes = cache;
            specs.back().threadLimit = limit;
        }
    }
    SweepStats stats;
    std::vector<SimResult> results = sweepSpecs(names, specs, cfg, &stats);

    const SimResult* r = results.data();
    for (const std::string& name : names) {
        os << "\n--- " << name << " ---\n";
        double refCycles = static_cast<double>((r++)->cycles());
        Table t({"threads", "0", "32K", "64K", "128K", "256K", "512K"});
        for (u32 limit = 256; limit <= kMaxThreadsPerSm; limit += 256) {
            std::vector<std::string> row{std::to_string(limit)};
            for (size_t i = 0; i < std::size(cachePoints); ++i, ++r)
                row.push_back(Table::num(
                    refCycles / static_cast<double>(r->cycles()), 3));
            t.addRow(row);
        }
        t.print(os);
    }

    os << "\nExpected shape (paper): bfs and pcr gain strongly with cache "
          "(pcr has a 256KB->512KB knee); gpu-mummer saturates around its "
          "~72KB working set; needle is nearly flat.\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Table 4: per-16-byte-access SRAM bank energy for the partitioned
 * design's 8 KB MRF banks and 2 KB shared/cache banks versus the 384 KB
 * unified design's 12 KB banks.
 */
void
table4BankEnergy(const ExhibitConfig&, std::ostream& os)
{
    os << "=== Table 4: energy for 16-byte SRAM bank access (32nm) ===\n"
       << "(paper reference: 8KB 9.8/11.8 pJ, 2KB 3.9/5.1 pJ, 12KB "
          "12.1/14.9 pJ)\n\n";

    Table t({"structure", "bank size", "read (pJ)", "write (pJ)"});
    auto row = [&](const char* name, u64 bank) {
        t.addRow({name,
                  Table::num(static_cast<double>(bank) / 1024.0, 0) + " KB",
                  Table::num(bankReadEnergy(bank) * 1e12, 1),
                  Table::num(bankWriteEnergy(bank) * 1e12, 1)});
    };
    MemoryPartition base = baselinePartition();
    row("256KB RF (partitioned)", base.rfBytes / kBanksPerSm);
    row("64KB shared (partitioned)", base.sharedBytes / kBanksPerSm);
    row("64KB cache (partitioned)", base.cacheBytes / kBanksPerSm);
    row("384KB unified", unifiedBankBytes(384_KB));
    row("256KB unified", unifiedBankBytes(256_KB));
    row("128KB unified", unifiedBankBytes(128_KB));
    t.print(os);

    os << "\nTag storage: 64KB cache = " << tagStorageBytes(64_KB)
       << " B, 384KB max unified cache = " << tagStorageBytes(384_KB)
       << " B (paper: ~1.125KB / ~7.125KB)\n";
}

/**
 * Table 5: warp instructions by the maximum number of accesses any one
 * memory bank receives, partitioned versus unified, over the Figure 7
 * (no-benefit) benchmarks. Also reports, as an ablation, total runtime
 * with and without conflict penalties (DESIGN.md Section 5, item 1).
 */
void
table5BankConflicts(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Table 5: warp instructions by max accesses to a single "
          "bank ===\n"
       << "(averaged across the Figure 7 no-benefit benchmarks)\n\n";

    // Four points per workload: partitioned and unified, each with and
    // without conflict penalties.
    RunSpec p, u;
    u.design = DesignKind::Unified;
    RunSpec pNoPenalty = p, uNoPenalty = u;
    pNoPenalty.conflictPenalties = uNoPenalty.conflictPenalties = false;
    std::vector<std::string> names = noBenefitBenchmarkNames();
    SweepStats stats;
    std::vector<SimResult> results =
        sweepSpecs(names, {p, u, pNoPenalty, uNoPenalty}, cfg, &stats);

    ConflictHistogram part, uni;
    u64 partCycles = 0, partCyclesNp = 0;
    u64 uniCycles = 0, uniCyclesNp = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        part.merge(results[4 * i].sm.conflictHist);
        partCycles += results[4 * i].cycles();
        uni.merge(results[4 * i + 1].sm.conflictHist);
        uniCycles += results[4 * i + 1].cycles();
        partCyclesNp += results[4 * i + 2].cycles();
        uniCyclesNp += results[4 * i + 3].cycles();
    }

    Table t({"design", "<=1", "2", "3", "4", ">4"});
    auto row = [&](const char* label, const ConflictHistogram& h) {
        std::vector<std::string> r{label};
        for (u32 b = 0; b < ConflictHistogram::kNumBuckets; ++b)
            r.push_back(Table::num(h.fraction(b) * 100.0, 2) + "%");
        t.addRow(r);
    };
    row("partitioned", part);
    row("unified", uni);
    t.print(os);

    auto overhead = [](u64 with, u64 without) {
        return Table::num(
            (static_cast<double>(with) / without - 1.0) * 100.0, 2);
    };
    os << "\nPaper reference: partitioned 97.0/2.7/0.09/0.14/0.03%; "
          "unified 96.4/3.4/0.01/0.02/0.21%\n"
       << "\nAblation: conflict penalties on/off (aggregate cycles)\n"
       << "  partitioned: " << partCycles << " / " << partCyclesNp
       << " (overhead " << overhead(partCycles, partCyclesNp) << "%)\n"
       << "  unified:     " << uniCycles << " / " << uniCyclesNp
       << " (overhead " << overhead(uniCycles, uniCyclesNp) << "%)\n"
       << "\nsweep: " << stats.summary() << "\n";
}

/** The pair Figures 7-9 compare: partitioned vs 384 KB unified. */
std::vector<RunSpec>
baselineVsUnified(bool rfHierarchy)
{
    RunSpec base, uni;
    uni.design = DesignKind::Unified;
    uni.unifiedCapacity = 384_KB;
    base.rfHierarchy = uni.rfHierarchy = rfHierarchy;
    return {base, uni};
}

/** "[ABLATION ...]" header tag for runs without the ORF/LRF. */
const char*
ablationTag(const ExhibitConfig& cfg)
{
    return cfg.rfHierarchy ? "" : "  [ABLATION: RF hierarchy disabled]";
}

/**
 * Figure 7: performance and energy of the 384 KB unified design
 * normalized to the equal-capacity partitioned baseline for the 18
 * applications that do not benefit (paper: every delta within ~1%).
 * --no-rf-hierarchy runs both designs without the ORF/LRF (DESIGN.md
 * Section 5, item 2).
 */
void
fig7NoBenefit(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 7: unified (384KB) vs partitioned, no-benefit "
          "applications ===\n"
       << "(perf > 1 is better, energy < 1 is better; paper: all within "
          "~1%)"
       << ablationTag(cfg) << "\n\n";

    std::vector<std::string> names = noBenefitBenchmarkNames();
    SweepStats stats;
    std::vector<SimResult> results =
        sweepSpecs(names, baselineVsUnified(cfg.rfHierarchy), cfg, &stats);

    Table t({"workload", "norm perf", "norm energy", "perf delta"});
    double worstPerf = 1.0, worstEnergy = 1.0;
    double sumPerf = 0.0, sumEnergy = 0.0;
    for (size_t i = 0; i < names.size(); ++i) {
        Comparison c = compare(results[2 * i + 1], results[2 * i]);
        t.addRow({names[i], Table::num(c.speedup, 3),
                  Table::num(c.energyRatio, 3),
                  Table::num((c.speedup - 1.0) * 100.0, 2) + "%"});
        worstPerf = std::min(worstPerf, c.speedup);
        worstEnergy = std::max(worstEnergy, c.energyRatio);
        sumPerf += c.speedup;
        sumEnergy += c.energyRatio;
    }
    t.print(os);

    int n = static_cast<int>(names.size());
    os << "\nsummary: mean perf " << Table::num(sumPerf / n, 3)
       << ", mean energy " << Table::num(sumEnergy / n, 3)
       << ", worst perf " << Table::num(worstPerf, 3) << ", worst energy "
       << Table::num(worstEnergy, 3) << "\n"
       << "paper: largest perf/energy change < 1% (worst energy +0.9% on "
          "nn); mean energy -0.06%\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Figure 8: how the Section 4.5 allocation algorithm splits 384 KB of
 * unified memory for each benefit application (register file /
 * scratchpad / cache, plus threads), and what that configuration buys
 * over the partitioned baseline.
 */
void
fig8Configurations(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 8: 384KB unified memory configuration per "
          "benchmark (Section 4.5 allocation) ===\n\n";

    std::vector<std::string> names = benefitBenchmarkNames();
    SweepStats stats;
    std::vector<SimResult> results =
        sweepSpecs(names, baselineVsUnified(true), cfg, &stats);

    auto kb = [](u64 bytes) {
        return Table::num(static_cast<double>(bytes) / 1024.0, 0);
    };
    Table t({"workload", "RF KB", "shared KB", "cache KB", "threads",
             "regs/thread", "perf", "energy", "dram"});
    for (size_t i = 0; i < names.size(); ++i) {
        const SimResult& uni = results[2 * i + 1];
        const AllocationDecision& d = uni.alloc;
        Comparison c = compare(uni, results[2 * i]);
        t.addRow({names[i], kb(d.partition.rfBytes),
                  kb(d.partition.sharedBytes), kb(d.partition.cacheBytes),
                  std::to_string(d.launch.threads),
                  std::to_string(d.launch.regsPerThread),
                  Table::num(c.speedup, 3), Table::num(c.energyRatio, 3),
                  Table::num(c.dramRatio, 3)});
    }
    t.print(os);

    os << "\nPaper reference: RF ranges from 36KB (bfs) to 228KB (dgemm); "
          "needle devotes 264KB to scratchpad; leftovers become cache.\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Figure 9: performance, energy and DRAM traffic of the 384 KB unified
 * design normalized to the equal-capacity partitioned baseline for the
 * eight applications that benefit (paper: +4.2%..+70.8%, avg +16.2%).
 * --no-rf-hierarchy runs both designs without the ORF/LRF.
 */
void
fig9Benefit(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 9: unified (384KB) vs partitioned, benefit "
          "applications ===\n"
       << "(perf > 1 better; energy, dram < 1 better)" << ablationTag(cfg)
       << "\n\n";

    std::vector<std::string> names = benefitBenchmarkNames();
    SweepStats stats;
    std::vector<SimResult> results = sweepSpecs(
        names, baselineVsUnified(cfg.rfHierarchy), cfg, &stats, true);

    Table t({"workload", "norm perf", "norm energy", "norm dram",
             "threads part->uni"});
    double sum = 0.0;
    for (size_t i = 0; i < names.size(); ++i) {
        const SimResult& base = results[2 * i];
        const SimResult& uni = results[2 * i + 1];
        Comparison c = compare(uni, base);
        t.addRow({names[i], Table::num(c.speedup, 3),
                  Table::num(c.energyRatio, 3), Table::num(c.dramRatio, 3),
                  std::to_string(base.alloc.launch.threads) + " -> " +
                      std::to_string(uni.alloc.launch.threads)});
        sum += c.speedup;
    }
    t.print(os);
    os << "\naverage speedup: "
       << Table::num(sum / static_cast<int>(names.size()), 3)
       << "  (paper: 1.162; range 1.042..1.708)\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Figure 10: the Fermi-like limited-flexibility design (fixed 256 KB
 * register file; 96/32 or 32/96 KB scratchpad/cache, best option per
 * application) normalized to the partitioned baseline, for the benefit
 * applications (paper: 1%-20% gains, below fully unified for all but
 * gpu-mummer).
 */
void
fig10FermiLike(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 10: Fermi-like limited design (384KB) vs "
          "partitioned ===\n"
       << "(best of 96KB shared + 32KB cache / 32KB shared + 96KB cache; "
          "unified shown for comparison)\n\n";

    // Three points per workload; the Fermi-like point is a composite
    // best-of-two that nests its own (serialized) sweep.
    std::vector<std::string> names = benefitBenchmarkNames();
    std::vector<SweepJob> sweep;
    for (const std::string& name : names) {
        double s = benefitScale(name, cfg.scale);
        SweepJob base, fermi, uni;
        base.label = name + "/baseline";
        base.run = [name, s] { return runBaseline(name, s); };
        fermi.label = name + "/fermi-best";
        fermi.run = [name, s] { return runFermiBest(name, s, 384_KB); };
        uni.label = name + "/unified";
        uni.run = [name, s] { return runUnified(name, s, 384_KB); };
        sweep.insert(sweep.end(), {base, fermi, uni});
    }
    SweepStats stats;
    std::vector<SimResult> results = runSweep(sweep, cfg.jobs, &stats);

    Table t({"workload", "fermi perf", "fermi energy", "fermi dram",
             "unified perf", "fermi shared/cache"});
    for (size_t i = 0; i < names.size(); ++i) {
        const SimResult& base = results[3 * i];
        const SimResult& fermi = results[3 * i + 1];
        Comparison cf = compare(fermi, base);
        Comparison cu = compare(results[3 * i + 2], base);
        t.addRow({names[i], Table::num(cf.speedup, 3),
                  Table::num(cf.energyRatio, 3), Table::num(cf.dramRatio, 3),
                  Table::num(cu.speedup, 3),
                  std::to_string(fermi.alloc.partition.sharedBytes / 1024) +
                      "/" +
                      std::to_string(fermi.alloc.partition.cacheBytes /
                                     1024) +
                      " KB"});
    }
    t.print(os);

    os << "\nExpected shape (paper): Fermi-like gains 1-20%, generally "
          "below the fully unified design.\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Table 6: performance and energy of the unified design at 128 / 256 /
 * 384 KB, normalized to the 256/64/64 partitioned baseline, for the
 * benefit applications plus the average over the Figure 7 set.
 */
void
table6CapacitySensitivity(const ExhibitConfig& cfg, std::ostream& os)
{
    const u64 caps[] = {128_KB, 256_KB, 384_KB};
    os << "=== Table 6: unified capacity sensitivity ===\n"
       << "(normalized to the partitioned 256/64/64 baseline; perf "
          "higher better, energy lower better)\n\n";

    /** Sweep indices of one workload's row (-1: does not fit). */
    struct RowPlan
    {
        std::string name;
        int baseIdx = -1;
        std::array<int, 3> uniIdx{-1, -1, -1};
    };

    // One sweep for the whole table: a baseline point per workload plus
    // one unified point per feasible capacity.
    std::vector<SweepJob> sweep;
    std::vector<RowPlan> plans;
    auto plan = [&](const std::string& name, double s) {
        RowPlan row;
        row.name = name;
        row.baseIdx = static_cast<int>(sweep.size());
        sweep.push_back(makeSweepJob(name + "/baseline", name, s, RunSpec{}));
        for (int i = 0; i < 3; ++i) {
            auto k = createBenchmark(name, s);
            if (!allocateUnified(k->params(), caps[i]).launch.feasible)
                continue;
            row.uniIdx[i] = static_cast<int>(sweep.size());
            RunSpec spec;
            spec.design = DesignKind::Unified;
            spec.unifiedCapacity = caps[i];
            sweep.push_back(makeSweepJob(
                name + "/" + std::to_string(caps[i] / 1024) + "K", name, s,
                spec));
        }
        plans.push_back(row);
    };
    for (const std::string& name : benefitBenchmarkNames())
        plan(name, benefitScale(name, cfg.scale));
    size_t benefitRows = plans.size();
    for (const std::string& name : noBenefitBenchmarkNames())
        plan(name, cfg.scale);

    SweepStats stats;
    std::vector<SimResult> results = runSweep(sweep, cfg.jobs, &stats);

    // perf and energy per capacity; 0 where the kernel does not fit.
    auto metrics = [&](const RowPlan& row, std::array<double, 3>& perf,
                       std::array<double, 3>& energy) {
        for (int i = 0; i < 3; ++i) {
            perf[i] = energy[i] = 0.0;
            if (row.uniIdx[i] < 0)
                continue;
            Comparison c =
                compare(results[row.uniIdx[i]], results[row.baseIdx]);
            perf[i] = c.speedup;
            energy[i] = c.energyRatio;
        }
    };

    Table t({"workload", "perf 128K", "perf 256K", "perf 384K",
             "energy 128K", "energy 256K", "energy 384K"});
    for (size_t r = 0; r < benefitRows; ++r) {
        std::array<double, 3> perf{}, energy{};
        metrics(plans[r], perf, energy);
        t.addRow({plans[r].name, Table::num(perf[0], 2),
                  Table::num(perf[1], 2), Table::num(perf[2], 2),
                  Table::num(energy[0], 2), Table::num(energy[1], 2),
                  Table::num(energy[2], 2)});
    }

    // Average over the Figure 7 set (the paper's last row).
    std::array<double, 3> perfSum{}, energySum{};
    std::array<int, 3> counts{};
    for (size_t r = benefitRows; r < plans.size(); ++r) {
        std::array<double, 3> perf{}, energy{};
        metrics(plans[r], perf, energy);
        for (int i = 0; i < 3; ++i) {
            if (perf[i] > 0.0) {
                perfSum[i] += perf[i];
                energySum[i] += energy[i];
                ++counts[i];
            }
        }
    }
    std::vector<std::string> avg{"fig7 benchmarks (avg)"};
    for (int i = 0; i < 3; ++i)
        avg.push_back(Table::num(perfSum[i] / counts[i], 2));
    for (int i = 0; i < 3; ++i)
        avg.push_back(Table::num(energySum[i] / counts[i], 2));
    t.addRow(avg);
    t.print(os);

    os << "\n(0.00 = kernel does not fit at that capacity; paper Table 6 "
          "reference: average benefit-set perf 0.97/1.14/1.16, energy "
          "0.98/0.87/0.87; fig7 set perf 0.99/1.00/1.00, energy "
          "0.93/0.96/1.00)\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Figure 11: needle performance versus scratchpad capacity for blocking
 * factors 16 / 32 / 64, normalized to the fastest point. Larger blocking
 * factors need quadratically more scratchpad per thread but fewer
 * barriers and less redundant border traffic (paper Section 6.5).
 */
void
fig11NeedleBlocking(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== Figure 11: needle blocking factor vs scratchpad capacity "
          "===\n"
       << "(64KB cache; performance normalized to the fastest point; x = "
          "scratchpad consumed)\n";

    double scale = cfg.scale;

    // One point per thread limit that changes the launch. Needle at a
    // non-default blocking factor is not a registry benchmark, so the
    // points simulate their own kernel instances.
    std::vector<u32> pointFactor;
    std::vector<SweepJob> sweep;
    for (u32 bf : kNeedleFactors) {
        auto kernel = makeNeedle(bf, scale);
        u32 step = std::max(128u, kernel->params().ctaThreads);
        u32 lastThreads = 0;
        for (u32 limit = step; limit <= kMaxThreadsPerSm; limit += step) {
            RunSpec spec;
            spec.partition = MemoryPartition{1_MB, 1_MB, 64_KB};
            spec.threadLimit = limit;
            AllocationDecision d = resolveAllocation(kernel->params(), spec);
            if (!d.launch.feasible || d.launch.threads == lastThreads)
                continue;
            lastThreads = d.launch.threads;
            pointFactor.push_back(bf);
            SweepJob job;
            job.label = "needle-bf" + std::to_string(bf) + "/" +
                        std::to_string(limit) + "t";
            job.run = [bf, scale, spec] {
                return simulate(*makeNeedle(bf, scale), spec);
            };
            sweep.push_back(job);
        }
    }
    SweepStats stats;
    std::vector<SimResult> results = runSweep(sweep, cfg.jobs, &stats);

    Cycle best = kCycleNever;
    for (const SimResult& r : results)
        best = std::min(best, r.cycles());

    for (u32 bf : kNeedleFactors) {
        os << "\n--- blocking factor " << bf << " ---\n";
        Table t({"threads", "shared KB", "norm perf"});
        for (size_t i = 0; i < results.size(); ++i) {
            if (pointFactor[i] != bf)
                continue;
            const LaunchConfig& launch = results[i].alloc.launch;
            t.addRow({std::to_string(launch.threads),
                      Table::num(static_cast<double>(launch.sharedBytes) /
                                     1024.0,
                                 1),
                      Table::num(static_cast<double>(best) /
                                     static_cast<double>(results[i].cycles()),
                                 3)});
        }
        t.print(os);
    }

    os << "\nExpected shape (paper): BF=16 tops out lowest; BF=32 is the "
          "best point when ~64KB of scratchpad is available; BF=64 wins "
          "once >300KB is available and needs fewer threads.\n"
       << "sweep: " << stats.summary() << "\n";
}

/**
 * Extension (paper Section 4.4): per-kernel repartitioning for
 * multi-kernel applications. Three-kernel sequences run under the
 * partitioned baseline, one static unified split sized for the whole
 * application, and Section 4.5 repartitioning before every kernel —
 * with the paper's write-through cache (free drain) and the write-back
 * alternative whose dirty lines must drain at every repartition. The
 * stages of a sequence depend on each other, so nothing here runs on
 * the sweep pool.
 */
void
extMultiKernel(const ExhibitConfig& cfg, std::ostream& os)
{
    double s = cfg.scale;
    struct App
    {
        const char* name;
        std::vector<KernelStage> stages;
    };
    const App apps[] = {
        {"image-pipeline",
         {{"srad", s}, {"hotspot", s}, {"recursivegaussian", s}}},
        {"graph-analytics", {{"bfs", s}, {"gpu-mummer", s}, {"nn", s}}},
        {"linear-algebra", {{"dgemm", s}, {"sgemv", s}, {"pcr", s}}},
        {"mixed-demands", {{"needle", s}, {"bfs", s}, {"dgemm", s}}},
    };

    os << "=== EXTENSION: multi-kernel applications and per-kernel "
          "repartitioning (Section 4.4) ===\n\n";

    for (const App& app : apps) {
        os << "--- " << app.name << " (";
        for (size_t i = 0; i < app.stages.size(); ++i)
            os << (i ? " -> " : "") << app.stages[i].benchmark;
        os << ") ---\n";

        SequenceResult base =
            runSequence(app.stages, ReconfigPolicy::PartitionedBaseline);
        SequenceResult stat =
            runSequence(app.stages, ReconfigPolicy::UnifiedStatic);
        SequenceResult per =
            runSequence(app.stages, ReconfigPolicy::UnifiedPerKernel);
        SequenceResult perWb =
            runSequence(app.stages, ReconfigPolicy::UnifiedPerKernel,
                        384_KB, WritePolicy::WriteBack);

        Table t({"policy", "total cycles", "speedup", "reconfigs",
                 "drain cycles"});
        auto row = [&](const char* label, const SequenceResult& r) {
            Cycle drain = 0;
            for (const StageResult& st : r.stages)
                drain += st.reconfigCycles;
            t.addRow({label, std::to_string(r.totalCycles),
                      Table::num(static_cast<double>(base.totalCycles) /
                                     static_cast<double>(r.totalCycles),
                                 3),
                      std::to_string(r.reconfigs), std::to_string(drain)});
        };
        row("partitioned baseline", base);
        row("unified, static split", stat);
        row("unified, per-kernel (write-through)", per);
        row("unified, per-kernel (write-back)", perWb);
        t.print(os);

        os << "per-kernel splits chosen:";
        for (const StageResult& st : per.stages)
            os << "  [" << st.benchmark << ": " << st.partition.str() << "]";
        os << "\n\n";
    }

    os << "Expected shape: per-kernel repartitioning beats the static "
          "compromise whenever stages want different splits; the "
          "write-through drain cost is zero (the paper's design choice), "
          "the write-back drain is nonzero but small.\n";
}

/** Ablation 1: write-through versus write-back on single kernels. */
void
writePolicyAblation(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "--- 1. cache write policy (unified 384KB) ---\n";
    Table t({"workload", "WT cycles", "WB cycles", "WB/WT perf", "WT dram",
             "WB dram", "WB dirty lines at end"});
    std::vector<std::string> names{"vectoradd", "srad", "bfs", "lps", "nn"};
    RunSpec wt;
    wt.design = DesignKind::Unified;
    RunSpec wb = wt;
    wb.cachePolicy = WritePolicy::WriteBack;
    std::vector<SimResult> results = sweepSpecs(names, {wt, wb}, cfg);
    for (size_t i = 0; i < names.size(); ++i) {
        const SimResult& rt = results[2 * i];
        const SimResult& rb = results[2 * i + 1];
        t.addRow({names[i], std::to_string(rt.cycles()),
                  std::to_string(rb.cycles()),
                  Table::num(static_cast<double>(rt.cycles()) /
                                 static_cast<double>(rb.cycles()),
                             3),
                  std::to_string(rt.dramSectors()),
                  std::to_string(rb.dramSectors()),
                  std::to_string(rb.sm.dirtyLinesAtEnd)});
    }
    t.print(os);
    os << "(write-back can reduce DRAM writes for streaming stores but "
          "leaves dirty state that repartitioning must drain - see "
          "ext_multi_kernel)\n\n";
}

/** Ablation 2: MRF access reduction and its effect on unified. */
void
rfHierarchyAblation(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "--- 2. register file hierarchy (unified 384KB) ---\n";
    Table t({"workload", "MRF reduction", "perf with/without",
             "conflict cycles with/without"});
    std::vector<std::string> names{"dgemm", "pcr", "aes", "needle"};
    RunSpec with;
    with.design = DesignKind::Unified;
    RunSpec without = with;
    without.rfHierarchy = false;
    std::vector<SimResult> results = sweepSpecs(names, {with, without}, cfg);
    for (size_t i = 0; i < names.size(); ++i) {
        const SimResult& rw = results[2 * i];
        const SimResult& rwo = results[2 * i + 1];
        t.addRow({names[i],
                  Table::num(rw.sm.rf.reduction() * 100.0, 1) + "%",
                  Table::num(static_cast<double>(rwo.cycles()) /
                                 static_cast<double>(rw.cycles()),
                             3),
                  std::to_string(rw.sm.conflictPenaltyCycles) + " / " +
                      std::to_string(rwo.sm.conflictPenaltyCycles)});
    }
    t.print(os);
    os << "(prior work [9] reports ~60% MRF access reduction)\n\n";
}

/** Ablation 3: two-level scheduler active set size. */
void
activeSetAblation(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "--- 3. two-level scheduler active set size ---\n";
    Table t({"workload", "4", "8 (paper)", "16", "32 (flat)"});
    std::vector<std::string> names{"bfs", "dgemm", "vectoradd"};
    std::vector<RunSpec> specs(4);
    for (size_t i = 0; i < specs.size(); ++i)
        specs[i].activeSetSize = 4u << i; // 4, 8, 16, 32
    std::vector<SimResult> results = sweepSpecs(names, specs, cfg);
    for (size_t i = 0; i < names.size(); ++i) {
        // The size-8 point doubles as the normalization reference.
        double base = static_cast<double>(results[4 * i + 1].cycles());
        std::vector<std::string> row{names[i]};
        for (size_t j = 0; j < 4; ++j)
            row.push_back(Table::num(
                base / static_cast<double>(results[4 * i + j].cycles()), 3));
        t.addRow(row);
    }
    t.print(os);
    os << "(normalized to the 8-warp active set; larger sets schedule "
          "more warps but let fewer values live in the ORF/LRF in a real "
          "machine)\n\n";
}

/** Ablation 4: Section 4.5 maximum threads versus autotuning. */
void
autotuneAblation(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "--- 4. Section 4.5 max-threads vs autotuned thread count "
          "(unified 384KB) ---\n";
    Table t({"workload", "max threads", "autotuned threads",
             "autotune gain"});
    std::vector<std::string> names = benefitBenchmarkNames();
    double scale = cfg.scale;
    std::vector<SweepJob> sweep;
    for (const std::string& name : names) {
        SweepJob maxed, tuned;
        maxed.label = name + "/max-threads";
        maxed.run = [name, scale] { return runUnified(name, scale, 384_KB); };
        tuned.label = name + "/autotuned";
        tuned.run = [name, scale] {
            return runUnifiedAutotuned(name, scale, 384_KB);
        };
        sweep.insert(sweep.end(), {maxed, tuned});
    }
    std::vector<SimResult> results = runSweep(sweep, cfg.jobs);
    for (size_t i = 0; i < names.size(); ++i) {
        const SimResult& maxed = results[2 * i];
        const SimResult& tuned = results[2 * i + 1];
        t.addRow({names[i], std::to_string(maxed.alloc.launch.threads),
                  std::to_string(tuned.alloc.launch.threads),
                  Table::num(static_cast<double>(maxed.cycles()) /
                                 static_cast<double>(tuned.cycles()),
                             3)});
    }
    t.print(os);
    os << "(the paper notes some applications run best below maximum "
          "occupancy and suggests autotuning)\n\n";
}

/**
 * Ablation 5: power gating unneeded capacity (the conclusion's future
 * work). Each capacity step depends on the previous one's runtime
 * (early exit), so this search stays serial.
 */
void
powerGatingAblation(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "--- 5. power gating unneeded capacity (conclusion's future "
          "work) ---\n";
    Table t({"workload", "384KB perf", "smallest cap within 2%",
             "gated energy ratio"});
    double scale = cfg.scale;
    for (const char* name :
         {"vectoradd", "aes", "sto", "hotspot", "dct8x8"}) {
        SimResult base = runBaseline(name, scale);
        SimResult full = runUnified(name, scale, 384_KB);
        // Find the smallest capacity whose runtime is within 2%.
        u64 bestCap = 384_KB;
        SimResult best = full;
        for (u64 cap = 352_KB;; cap -= 32_KB) {
            auto k = createBenchmark(name, scale);
            if (!allocateUnified(k->params(), cap).launch.feasible)
                break;
            SimResult r = runUnified(name, scale, cap);
            if (static_cast<double>(r.cycles()) >
                static_cast<double>(full.cycles()) * 1.02)
                break;
            bestCap = cap;
            best = r;
            if (cap == 32_KB)
                break;
        }
        t.addRow({name,
                  Table::num(static_cast<double>(base.cycles()) /
                                 static_cast<double>(full.cycles()),
                             3),
                  std::to_string(bestCap / 1024) + " KB",
                  Table::num(energyOf(best, base) / energyOf(full, base),
                             3)});
    }
    t.print(os);
    os << "(disabling SRAM a workload cannot use saves leakage at no "
          "performance cost)\n";
}

/**
 * Extension: ablations of the design choices DESIGN.md Section 5 calls
 * out beyond the ones embedded in the figures.
 */
void
extAblations(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== EXTENSION: design-choice ablations ===\n\n";
    writePolicyAblation(cfg, os);
    rfHierarchyAblation(cfg, os);
    activeSetAblation(cfg, os);
    autotuneAblation(cfg, os);
    powerGatingAblation(cfg, os);
}

/**
 * Extension: validates paper Section 5.1's simplification — one SM with
 * 8 bytes per cycle of DRAM bandwidth stands in for a chip whose SMs
 * share DRAM evenly — against a chip-level co-simulation of --sms SMs
 * sharing one N x 8 B/cycle channel, and shows the contention when chip
 * bandwidth does not scale with SM count. Each workload's three runs
 * (single SM, fair chip, half-bandwidth chip) are independent, so all
 * of them go on one --jobs pool.
 */
void
extChipValidation(const ExhibitConfig& cfg, std::ostream& os)
{
    os << "=== EXTENSION: single-SM methodology vs chip-level "
          "co-simulation ("
       << cfg.sms << " SMs, quantum " << cfg.quantum << ") ===\n\n";

    const char* const names[] = {"vectoradd", "sgemv", "bfs", "hotspot",
                                 "needle"};
    constexpr u32 kNames = std::size(names);
    std::vector<SmStats> single(kNames);
    std::vector<ChipStats> fair(kNames);
    std::vector<Cycle> halfCycles(kNames);
    // Jobs [0, 2 kNames) are the chips, fair and half per workload, so
    // the long runs start first; the single SMs fill in behind them.
    WorkerPool(cfg.jobs).dispatch(3 * kNames, [&](u32 job) {
        const u32 w = job < 2 * kNames ? job / 2 : job - 2 * kNames;
        auto k = createBenchmark(names[w], cfg.scale);
        SmRunConfig smCfg;
        smCfg.partition = baselinePartition();
        smCfg.launch =
            occupancyPartitioned(k->params(), smCfg.partition.rfBytes,
                                 smCfg.partition.sharedBytes);
        if (job >= 2 * kNames) {
            single[w] = runKernel(smCfg, *k);
            return;
        }
        ChipConfig chip;
        chip.numSms = cfg.sms;
        // reproduce() bounds cfg.sms, so the product cannot wrap.
        chip.chipDramBytesPerCycle = cfg.sms * smCfg.dramBytesPerCycle;
        chip.quantum = cfg.quantum;
        chip.sm = smCfg;
        if (job % 2 == 0) {
            fair[w] = ChipModel(chip, *k).run();
        } else {
            chip.chipDramBytesPerCycle /= 2;
            halfCycles[w] = ChipModel(chip, *k).run().cycles;
        }
    });

    Table t({"workload", "single-SM cycles", "chip max-SM cycles", "error",
             "imbalance", "chip @ half bandwidth", "weave reqs",
             "windows"});
    for (u32 w = 0; w < kNames; ++w) {
        const ChipStats& cs = fair[w];
        double err = static_cast<double>(cs.maxSmCycles()) /
                         static_cast<double>(single[w].cycles) -
                     1.0;
        double imb = static_cast<double>(cs.maxSmCycles()) /
                         static_cast<double>(cs.minSmCycles()) -
                     1.0;
        t.addRow({names[w], std::to_string(single[w].cycles),
                  std::to_string(cs.maxSmCycles()),
                  Table::num(err * 100.0, 1) + "%",
                  Table::num(imb * 100.0, 1) + "%",
                  Table::num(static_cast<double>(halfCycles[w]) /
                                 static_cast<double>(cs.cycles),
                             2) +
                      "x",
                  std::to_string(cs.weaveRequests),
                  std::to_string(cs.windows)});
    }
    t.print(os);

    os << "\nExpected: small single-SM methodology error (validating the "
          "paper's simplification) and clear slowdown when chip bandwidth "
          "does not scale with SM count.\n";
}

} // namespace

const std::vector<Exhibit>&
allExhibits()
{
    static const std::vector<Exhibit> exhibits = {
        {"table1_characterization", 0.35,
         "Table 1: workload characteristics", table1Characterization},
        {"fig2_regfile_sensitivity", 0.5,
         "Figure 2: performance vs register file capacity",
         fig2RegfileSensitivity},
        {"fig3_shared_sensitivity", 0.5,
         "Figure 3: performance vs scratchpad capacity",
         fig3SharedSensitivity},
        {"fig4_cache_sensitivity", 0.5,
         "Figure 4: performance vs cache capacity", fig4CacheSensitivity},
        {"table4_bank_energy", 0.0, "Table 4: SRAM bank access energy",
         table4BankEnergy},
        {"table5_bank_conflicts", 0.35,
         "Table 5: warp instructions by max accesses to one bank",
         table5BankConflicts},
        {"fig7_no_benefit", 0.35,
         "Figure 7: unified vs partitioned, no-benefit applications",
         fig7NoBenefit},
        {"fig8_configurations", 0.1,
         "Figure 8: unified memory split per benefit application",
         fig8Configurations},
        {"fig9_benefit", 0.5,
         "Figure 9: unified vs partitioned, benefit applications",
         fig9Benefit},
        {"fig10_fermi_like", 0.5,
         "Figure 10: Fermi-like limited design vs partitioned",
         fig10FermiLike},
        {"table6_capacity_sensitivity", 0.35,
         "Table 6: unified capacity sensitivity",
         table6CapacitySensitivity},
        {"fig11_needle_blocking", 0.5,
         "Figure 11: needle blocking factor vs scratchpad capacity",
         fig11NeedleBlocking},
        {"ext_multi_kernel", 0.35,
         "Extension: per-kernel repartitioning (Section 4.4)",
         extMultiKernel},
        {"ext_ablations", 0.35, "Extension: design-choice ablations",
         extAblations},
        {"ext_chip_validation", 0.2,
         "Extension: single-SM methodology vs chip co-simulation "
         "(Section 5.1)",
         extChipValidation},
    };
    return exhibits;
}

void
listExhibits(std::ostream& os)
{
    Table t({"exhibit", "default scale", "reproduces"});
    for (const Exhibit& e : allExhibits())
        t.addRow({e.name,
                  e.defaultScale > 0.0 ? Table::num(e.defaultScale, 2) : "-",
                  e.title});
    t.print(os);
}

void
reproduce(const std::string& name, const ExhibitConfig& cfg,
          std::ostream& os)
{
    std::vector<const Exhibit*> selected;
    for (const Exhibit& e : allExhibits())
        if (name == "all" || name == e.name)
            selected.push_back(&e);
    if (selected.empty())
        fatal("unknown exhibit '%s' (try 'unimem_cli reproduce --list')",
              name.c_str());
    if (cfg.sms == 0 || cfg.sms > ChipConfig::kMaxSms)
        fatal("flag --sms expects 1 to %u SMs, got %u", ChipConfig::kMaxSms,
              cfg.sms);

    // Build every kernel grid the run can reach here, before any output:
    // an oversized --scale must fail in scaledCtas() on this thread, not
    // in a sweep worker whose fatal() exits under the running others.
    // The check covers every registry kernel (at dgemm's benefit scale
    // too) and fig11's needle blocking factors, a superset of what any
    // one exhibit builds.
    auto resolvedScale = [&](const Exhibit& e) {
        return cfg.scale == 0.0 ? e.defaultScale : cfg.scale;
    };
    for (const Exhibit* e : selected) {
        if (e->defaultScale == 0.0)
            continue; // simulates nothing
        double s = resolvedScale(*e);
        for (const BenchmarkInfo& info : allBenchmarks())
            createBenchmark(info.name, benefitScale(info.name, s));
        for (u32 bf : kNeedleFactors)
            makeNeedle(bf, s);
    }

    for (const Exhibit* e : selected) {
        ExhibitConfig resolved = cfg;
        resolved.scale = resolvedScale(*e);
        e->run(resolved, os);
    }
}

} // namespace unimem
