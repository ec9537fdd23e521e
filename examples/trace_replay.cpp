/**
 * @file
 * Trace-driven workflow (the paper's Ocelot methodology, Section 5.1):
 * dump a workload's execution/address trace to a file, reload it as a
 * kernel, and verify the replay simulates identically. External traces
 * in the same format (see arch/trace_io.hh) can drive every experiment
 * in this repository.
 *
 * Usage:
 *   trace_replay [--benchmark=sgemv] [--scale=0.25]
 *                [--file=/tmp/unimem.trace]
 */

#include <fstream>
#include <iostream>

#include "arch/trace_io.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "kernels/registry.hh"
#include "sim/simulator.hh"

using namespace unimem;

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv, "usage: trace_replay [flags]",
                 {{"benchmark", "NAME", "registry benchmark (default sgemv)"},
                  {"scale", "F", "workload scale (default 0.25)"},
                  {"file", "PATH", "trace file (default /tmp/unimem.trace)"}});
    std::string name = args.getString("benchmark", "sgemv");
    double scale = args.getDouble("scale", 0.25);
    std::string path = args.getString("file", "/tmp/unimem.trace");

    if (findBenchmark(name) == nullptr) {
        std::cerr << "unknown benchmark '" << name << "'\n";
        return 1;
    }

    auto original = createBenchmark(name, scale);

    std::cout << "dumping " << name << " trace to " << path << " ...\n";
    {
        std::ofstream os(path);
        if (!os)
            fatal("cannot open %s for writing", path.c_str());
        writeTrace(*original, os);
    }

    std::ifstream is(path);
    if (!is)
        fatal("cannot reopen %s", path.c_str());
    TraceFileKernel replay(is);
    std::cout << "reloaded " << replay.numWarps() << " warp streams ("
              << replay.params().gridCtas << " CTAs x "
              << replay.params().warpsPerCta() << " warps)\n\n";

    RunSpec spec;
    SimResult a = simulate(*original, spec);
    SimResult b = simulate(replay, spec);

    Table t({"source", "cycles", "warp instrs", "dram sectors", "ipc"});
    t.addRow({"generator", std::to_string(a.cycles()),
              std::to_string(a.sm.warpInstrs),
              std::to_string(a.dramSectors()), Table::num(a.sm.ipc(), 2)});
    t.addRow({"trace file", std::to_string(b.cycles()),
              std::to_string(b.sm.warpInstrs),
              std::to_string(b.dramSectors()), Table::num(b.sm.ipc(), 2)});
    t.print(std::cout);

    bool identical = a.cycles() == b.cycles() &&
                     a.sm.warpInstrs == b.sm.warpInstrs &&
                     a.dramSectors() == b.dramSectors();
    std::cout << "\nreplay " << (identical ? "IDENTICAL" : "DIVERGED")
              << "\n";
    return identical ? 0 : 1;
}
