/**
 * @file
 * Command-line driver for the unimem simulator.
 *
 * Subcommands (`unimem_cli <cmd> --help` lists each one's flags):
 *   list                        all registered benchmarks with metadata
 *   allocate <bench>            Section 4.5 allocation decision at a
 *                               given capacity (no simulation)
 *   run <bench>                 simulate one configuration
 *   sweep <bench>               capacity/cache/thread sweeps
 *   chip <bench>                chip-level co-simulation (--sms=N)
 *   trace <bench>               dump the warp trace to a file
 *   reproduce <exhibit|all>     regenerate paper tables and figures
 *                               (--list names them)
 *
 * Examples:
 *   unimem_cli run needle --design=unified
 *   unimem_cli sweep pcr --what=cache
 *   unimem_cli trace sgemv --out=/tmp/sgemv.trace
 *   unimem_cli reproduce fig9_benefit --jobs=4
 */

#include <cmath>
#include <fstream>
#include <iostream>

#include "arch/trace_io.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "kernels/registry.hh"
#include "sim/experiments.hh"
#include "sim/sweep.hh"
#include "sm/chip.hh"

#include "reproduce.hh"

using namespace unimem;

namespace {

/** Anything from 1 up: --chip-bw and --quantum. */
constexpr u32 kNoUpperBound = ~u32(0);

int
cmdList(const CliArgs&)
{
    Table t({"name", "category", "benefits", "regs/thread",
             "shared B/thread", "paper dram 0/64K/256K"});
    for (const BenchmarkInfo& info : allBenchmarks()) {
        t.addRow({info.name, categoryName(info.category),
                  info.benefits ? "yes" : "no",
                  std::to_string(info.paperRegs),
                  Table::num(info.paperSharedPerThread, 1),
                  Table::num(info.paperDramNone, 2) + " / " +
                      Table::num(info.paperDram64k, 2) + " / " +
                      Table::num(info.paperDram256k, 2)});
    }
    t.print(std::cout);
    return 0;
}

RunSpec
specFromArgs(const CliArgs& args)
{
    RunSpec spec;
    const u64 capacity =
        u64{args.getCountIn("capacity-kb", 384, 1, kMaxCapacityKb)} * 1024;
    std::string design = args.getString("design", "partitioned");
    if (design == "partitioned") {
        spec.design = DesignKind::Partitioned;
    } else if (design == "unified") {
        spec.design = DesignKind::Unified;
    } else if (design == "fermi") {
        spec.design = DesignKind::FermiLike;
        spec.partition = fermiLikeOptions(
            capacity)[args.getInt("fermi-option", 0) != 0 ? 1 : 0];
    } else {
        fatal("unknown design '%s'", design.c_str());
    }
    spec.unifiedCapacity = capacity;
    spec.threadLimit =
        args.getCountIn("threads", kMaxThreadsPerSm, 1, kMaxThreadsPerSm);
    spec.regsOverride = args.getCountIn("regs", 0, 1, kMaxArchRegs);
    spec.rfHierarchy = !args.getBool("no-rf-hierarchy", false);
    spec.conflictPenalties = !args.getBool("no-conflicts", false);
    spec.aggressiveUnified = args.getBool("aggressive-unified", false);
    if (args.getBool("write-back", false))
        spec.cachePolicy = WritePolicy::WriteBack;
    return spec;
}

std::string
requireBenchmark(const CliArgs& args)
{
    if (args.positional().size() < 2)
        fatal("missing benchmark name (try 'unimem_cli list')");
    std::string name = args.positional()[1];
    if (findBenchmark(name) == nullptr)
        fatal("unknown benchmark '%s' (try 'unimem_cli list')",
              name.c_str());
    return name;
}

int
cmdAllocate(const CliArgs& args)
{
    std::string name = requireBenchmark(args);
    double scale = args.getDouble("scale", 0.5);
    auto k = createBenchmark(name, scale);

    Table t({"capacity", "RF KB", "shared KB", "cache KB", "threads",
             "regs", "spill x"});
    for (u64 kb : {128ull, 192ull, 256ull, 320ull, 384ull, 512ull}) {
        AllocationDecision d = allocateUnified(k->params(), kb * 1024);
        if (!d.launch.feasible) {
            t.addRow({std::to_string(kb) + " KB", "-", "-", "-",
                      "does not fit", "-", "-"});
            continue;
        }
        t.addRow({std::to_string(kb) + " KB",
                  std::to_string(d.partition.rfBytes / 1024),
                  std::to_string(d.partition.sharedBytes / 1024),
                  std::to_string(d.partition.cacheBytes / 1024),
                  std::to_string(d.launch.threads),
                  std::to_string(d.launch.regsPerThread),
                  Table::num(d.launch.spillMultiplier, 2)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdRun(const CliArgs& args)
{
    std::string name = requireBenchmark(args);
    double scale = args.getDouble("scale", 0.5);
    RunSpec spec = specFromArgs(args);

    SimResult r = simulateBenchmark(name, scale, spec);
    std::cout << name << " on " << designName(spec.design) << " ("
              << r.alloc.partition.str() << ")\n"
              << "  threads " << r.alloc.launch.threads << ", regs "
              << r.alloc.launch.regsPerThread << ", spill x"
              << Table::num(r.alloc.launch.spillMultiplier, 2) << "\n"
              << "  cycles " << r.cycles() << ", ipc "
              << Table::num(r.sm.ipc(), 2) << ", dram sectors "
              << r.dramSectors() << "\n";

    if (spec.design != DesignKind::Partitioned ||
        args.getBool("compare", false)) {
        SimResult base = runBaseline(name, scale);
        Comparison c = compare(r, base);
        std::cout << "  vs partitioned baseline: speedup "
                  << Table::num(c.speedup, 3) << ", energy "
                  << Table::num(c.energyRatio, 3) << ", dram "
                  << Table::num(c.dramRatio, 3) << "\n";
    }
    if (args.getBool("dump-stats", false)) {
        std::cout << "\n";
        r.sm.toStatSet().dump(std::cout);
    }
    return 0;
}

int
cmdSweep(const CliArgs& args)
{
    std::string name = requireBenchmark(args);
    double scale = args.getDouble("scale", 0.5);
    std::string what = args.getString("what", "capacity");
    u32 jobs = args.getCount("jobs", 0);

    // Collect the sweep points (infeasible ones keep a table row but
    // are not submitted), then run them all through the pool.
    Table t({"point", "cycles", "dram sectors", "threads"});
    std::vector<SweepJob> sweep;
    std::vector<std::pair<std::string, bool>> points; // label, feasible
    auto add = [&](const std::string& label, const RunSpec& spec) {
        auto k = createBenchmark(name, scale);
        bool feasible =
            resolveAllocation(k->params(), spec).launch.feasible;
        points.emplace_back(label, feasible);
        if (feasible)
            sweep.push_back(makeSweepJob(label, name, scale, spec));
    };

    if (what == "capacity") {
        for (u64 kb : {128ull, 192ull, 256ull, 320ull, 384ull, 512ull}) {
            RunSpec spec = specFromArgs(args);
            spec.design = DesignKind::Unified;
            spec.unifiedCapacity = kb * 1024;
            add(std::to_string(kb) + " KB unified", spec);
        }
    } else if (what == "cache") {
        for (u64 kb : {0ull, 32ull, 64ull, 128ull, 256ull, 512ull}) {
            RunSpec spec = specFromArgs(args);
            spec.design = DesignKind::Partitioned;
            spec.partition = MemoryPartition{256_KB, 1_MB, kb * 1024};
            add(std::to_string(kb) + " KB cache", spec);
        }
    } else if (what == "threads") {
        for (u32 threads = 256; threads <= 1024; threads += 256) {
            RunSpec spec = specFromArgs(args);
            spec.threadLimit = threads;
            add(std::to_string(threads) + " threads", spec);
        }
    } else {
        fatal("unknown sweep '%s' (capacity|cache|threads)",
              what.c_str());
    }

    SweepStats stats;
    std::vector<SimResult> results = runSweep(sweep, jobs, &stats);
    size_t next = 0;
    for (const auto& [label, feasible] : points) {
        if (!feasible) {
            t.addRow({label, "does not fit", "-", "-"});
            continue;
        }
        const SimResult& r = results[next++];
        t.addRow({label, std::to_string(r.cycles()),
                  std::to_string(r.dramSectors()),
                  std::to_string(r.alloc.launch.threads)});
    }
    t.print(std::cout);
    std::cout << "sweep: " << stats.summary() << "\n";
    return 0;
}

int
cmdChip(const CliArgs& args)
{
    std::string name = requireBenchmark(args);
    double scale = args.getDouble("scale", 0.35);
    u32 sms = args.getCountIn("sms", 8, 1, ChipConfig::kMaxSms);

    auto k = createBenchmark(name, scale);
    RunSpec spec = specFromArgs(args);
    AllocationDecision d = resolveAllocation(k->params(), spec);
    if (!d.launch.feasible)
        fatal("kernel does not fit under the given design");

    ChipConfig cc;
    cc.numSms = sms;
    // sms <= kMaxSms, so the default cannot wrap.
    cc.chipDramBytesPerCycle =
        args.getCountIn("chip-bw", sms * kDramBytesPerCycle, 1, kNoUpperBound);
    cc.quantum = args.getCountIn("quantum", 64, 1, kNoUpperBound);
    cc.sm = smRunConfigFor(spec, d);

    ChipModel chip(cc, *k);
    const ChipStats& cs = chip.run();
    std::cout << name << " on " << sms << " SMs, "
              << cc.chipDramBytesPerCycle << " B/cycle chip DRAM ("
              << d.partition.str() << " per SM)\n"
              << "  chip cycles " << cs.cycles << " (slowest SM "
              << cs.maxSmCycles() << ", fastest " << cs.minSmCycles()
              << ")\n"
              << "  total warp instrs " << cs.warpInstrs()
              << ", chip dram sectors "
              << cs.dram.sectors() + cs.texDram.sectors() << "\n"
              << "  bound-weave: " << cs.windows << " windows, "
              << cs.boundPasses << " bound passes, " << cs.weaveRequests
              << " replayed requests, quantum util "
              << Table::num(cs.quantumUtilization() * 100.0, 1)
              << "%\n"
              << "  finish skew " << cs.finishSkew()
              << " cycles (imbalance "
              << Table::num(cs.loadImbalance() * 100.0, 1) << "%)\n";

    SimResult single = simulateBenchmark(name, scale, spec);
    std::cout << "  single-SM methodology: " << single.cycles()
              << " cycles (error "
              << Table::num((static_cast<double>(cs.maxSmCycles()) /
                                 static_cast<double>(single.cycles()) -
                             1.0) *
                                100.0,
                            1)
              << "%)\n";
    return 0;
}

int
cmdTrace(const CliArgs& args)
{
    std::string name = requireBenchmark(args);
    double scale = args.getDouble("scale", 0.5);
    std::string out = args.getString("out", name + ".trace");

    auto k = createBenchmark(name, scale);
    std::ofstream os(out);
    if (!os)
        fatal("cannot open '%s' for writing", out.c_str());
    writeTrace(*k, os);
    std::cout << "wrote " << out << " (" << k->params().gridCtas
              << " CTAs x " << k->params().warpsPerCta() << " warps)\n";
    return 0;
}

int
cmdReproduce(const CliArgs& args)
{
    if (args.getBool("list", false)) {
        listExhibits(std::cout);
        return 0;
    }
    if (args.positional().size() < 2)
        fatal("missing exhibit name (try 'unimem_cli reproduce --list')");
    ExhibitConfig cfg;
    cfg.scale = args.getDouble("scale", 0.0);
    // Checked here, not only in scaledCtas: the sweeps build kernels on
    // worker threads, where fatal() would exit under running workers.
    if (args.has("scale") &&
        (!(cfg.scale > 0.0) || !std::isfinite(cfg.scale)))
        fatal("flag --scale expects a positive finite number, got '%s'",
              args.getString("scale", "").c_str());
    cfg.jobs = args.getCount("jobs", cfg.jobs);
    cfg.rfHierarchy = !args.getBool("no-rf-hierarchy", false);
    cfg.sms = args.getCount("sms", cfg.sms);
    cfg.quantum = args.getCountIn("quantum", static_cast<u32>(cfg.quantum),
                                  1, kNoUpperBound);
    reproduce(args.positional()[1], cfg, std::cout);
    return 0;
}

/** RunSpec flags (specFromArgs) shared by run, sweep and chip. */
std::vector<CliFlag>
withSpecFlags(std::vector<CliFlag> flags)
{
    flags.insert(
        flags.end(),
        {{"design", "partitioned|unified|fermi",
          "memory design (default partitioned)"},
         {"capacity-kb", "N",
          "unified / Fermi-like capacity, 1 to 8192 (default 384)"},
         {"fermi-option", "0|1", "Fermi-like split: 0 = 96/32, 1 = 32/96 KB"},
         {"threads", "N", "thread limit, 1 to 1024 (default 1024)"},
         {"regs", "N",
          "registers/thread override, 1 to 256 (default: the kernel's)"},
         {"no-rf-hierarchy", "", "disable the ORF/LRF"},
         {"no-conflicts", "", "disable bank-conflict penalties"},
         {"aggressive-unified", "",
          "unified multi-bank-per-cluster scatter/gather"},
         {"write-back", "", "write-back cache ablation"}});
    return flags;
}

/** One subcommand: its usage line, declared flags and handler. */
struct Command
{
    const char* name;
    const char* usage;
    std::vector<CliFlag> flags;
    int (*run)(const CliArgs&);
};

const std::vector<Command>&
commands()
{
    static const CliFlag scale{"scale", "F", "workload scale (default 0.5)"};
    static const std::vector<Command> cmds = {
        {"list", "usage: unimem_cli list", {}, cmdList},
        {"allocate", "usage: unimem_cli allocate <benchmark> [flags]",
         {scale}, cmdAllocate},
        {"run", "usage: unimem_cli run <benchmark> [flags]",
         withSpecFlags(
             {scale,
              {"compare", "", "also compare against the partitioned baseline"},
              {"dump-stats", "", "print the full StatSet after the run"}}),
         cmdRun},
        {"sweep", "usage: unimem_cli sweep <benchmark> [flags]",
         withSpecFlags(
             {scale,
              {"what", "capacity|cache|threads",
               "swept axis (default capacity)"},
              {"jobs", "N", "sweep workers (default: all cores)"}}),
         cmdSweep},
        {"chip", "usage: unimem_cli chip <benchmark> [flags]",
         withSpecFlags(
             {{"scale", "F", "workload scale (default 0.35)"},
              {"sms", "N", "SMs on the chip, 1 to 256 (default 8)"},
              {"chip-bw", "N",
               "chip DRAM bytes/cycle, at least 1 (default 8 per SM)"},
              {"quantum", "N",
               "co-simulation quantum in cycles, at least 1 (default 64)"}}),
         cmdChip},
        {"trace", "usage: unimem_cli trace <benchmark> [flags]",
         {scale, {"out", "FILE", "output path (default <benchmark>.trace)"}},
         cmdTrace},
        {"reproduce",
         "usage: unimem_cli reproduce <exhibit|all> [flags]\n"
         "       unimem_cli reproduce --list",
         {{"list", "", "list the exhibits with their default scales"},
          {"scale", "F", "workload scale (default: each exhibit's own)"},
          {"jobs", "N",
           "sweep workers, which also run ext_chip_validation's chips "
           "(default: all cores)"},
          {"no-rf-hierarchy", "",
           "fig7/fig9 ablation: both designs without the ORF/LRF"},
          {"sms", "N", "ext_chip_validation: SMs on the chip (default 8)"},
          {"quantum", "N",
           "ext_chip_validation: quantum in cycles, at least 1 (default "
           "64)"}},
         cmdReproduce},
    };
    return cmds;
}

} // namespace

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv);
    if (args.positional().empty()) {
        const char* usage =
            "usage: unimem_cli "
            "<list|allocate|run|sweep|chip|trace|reproduce> [name] "
            "[flags]\n(unimem_cli <command> --help lists its flags)";
        args.accept(usage, {});
        std::cerr << usage << "\n";
        return 1;
    }
    const std::string& name = args.positional()[0];
    for (const Command& cmd : commands()) {
        if (name == cmd.name) {
            args.accept(cmd.usage, cmd.flags);
            return cmd.run(args);
        }
    }
    fatal("unknown command '%s'", name.c_str());
}
