/**
 * @file
 * Quickstart: run one benchmark on the hard-partitioned baseline and on
 * the unified design, and print the headline comparison the paper makes
 * (performance, chip energy, DRAM traffic).
 *
 * Usage:
 *   quickstart [--benchmark=needle] [--capacity-kb=384] [--scale=1.0]
 *              [--dump-stats]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "kernels/registry.hh"
#include "sim/experiments.hh"

using namespace unimem;

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv, "usage: quickstart [flags]",
                 {{"benchmark", "NAME", "registry benchmark (default needle)"},
                  {"capacity-kb", "N",
                   "unified capacity, 1 to 8192 (default 384)"},
                  {"scale", "F", "workload scale (default 1.0)"},
                  {"dump-stats", "", "print every unified-run statistic"}});
    std::string name = args.getString("benchmark", "needle");
    u64 capacity =
        u64{args.getCountIn("capacity-kb", 384, 1, kMaxCapacityKb)} * 1024;
    double scale = args.getDouble("scale", 1.0);

    if (findBenchmark(name) == nullptr) {
        std::cerr << "unknown benchmark '" << name << "'; available:\n";
        for (const BenchmarkInfo& info : allBenchmarks())
            std::cerr << "  " << info.name << " ("
                      << categoryName(info.category) << ")\n";
        return 1;
    }

    std::cout << "benchmark: " << name << ", unified capacity: "
              << capacity / 1024 << " KB\n\n";

    SimResult base = runBaseline(name, scale);
    SimResult uni = runUnified(name, scale, capacity);
    Comparison cmp = compare(uni, base);

    auto describe = [](const char* label, const SimResult& r) {
        std::cout << label << ": " << r.alloc.partition.str() << "\n"
                  << "  threads=" << r.alloc.launch.threads
                  << " regs/thread=" << r.alloc.launch.regsPerThread
                  << " ctas=" << r.alloc.launch.ctas << "\n"
                  << "  cycles=" << r.cycles()
                  << " ipc=" << Table::num(r.sm.ipc(), 2)
                  << " dram-sectors=" << r.dramSectors() << "\n";
    };
    describe("partitioned baseline", base);
    describe("unified design     ", uni);

    std::cout << "\nunified vs partitioned:\n"
              << "  speedup      " << Table::num(cmp.speedup, 3) << "x\n"
              << "  energy ratio " << Table::num(cmp.energyRatio, 3)
              << " (lower is better)\n"
              << "  dram ratio   " << Table::num(cmp.dramRatio, 3)
              << " (lower is better)\n";

    if (args.getBool("dump-stats", false)) {
        std::cout << "\n--- full statistics (unified run) ---\n";
        uni.sm.toStatSet().dump(std::cout);
    }
    return 0;
}
