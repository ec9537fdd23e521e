/**
 * @file
 * Application tuning case study (paper Section 6.5 / Figure 11): on a
 * unified-memory GPU, the needle programmer can pick a larger blocking
 * factor because the scratchpad is no longer capped at 64 KB. This
 * example compares needle BF=16/32/64 on the partitioned baseline and
 * on unified designs of several capacities, printing the best
 * configuration for each machine.
 *
 * Usage:
 *   needle_tuning [--scale=0.5]
 */

#include <iostream>
#include <optional>

#include "common/cli.hh"
#include "common/table.hh"
#include "kernels/workloads.hh"
#include "sim/experiments.hh"

using namespace unimem;

namespace {

struct Outcome
{
    bool fits = false;
    Cycle cycles = 0;
    u32 threads = 0;
    u64 sharedKb = 0;
};

Outcome
runNeedle(u32 bf, double scale, std::optional<u64> unifiedCapacity)
{
    auto k = makeNeedle(bf, scale);
    RunSpec spec;
    if (unifiedCapacity) {
        spec.design = DesignKind::Unified;
        spec.unifiedCapacity = *unifiedCapacity;
    }
    AllocationDecision d = resolveAllocation(k->params(), spec);
    Outcome o;
    if (!d.launch.feasible)
        return o;
    SimResult r = simulate(*k, spec);
    o.fits = true;
    o.cycles = r.cycles();
    o.threads = d.launch.threads;
    o.sharedKb = d.launch.sharedBytes / 1024;
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv, "usage: needle_tuning [flags]",
                 {{"scale", "F", "workload scale (default 0.5)"}});
    double scale = args.getDouble("scale", 0.5);

    std::cout << "needle blocking-factor tuning (paper Section 6.5)\n\n";

    struct Machine
    {
        const char* label;
        std::optional<u64> unified;
    };
    const Machine machines[] = {
        {"partitioned 256/64/64", std::nullopt},
        {"unified 256KB", 256_KB},
        {"unified 384KB", 384_KB},
        {"unified 512KB", 512_KB},
    };

    for (const Machine& m : machines) {
        std::cout << "--- " << m.label << " ---\n";
        Table t({"BF", "threads", "shared KB", "cycles", "norm perf"});
        std::optional<double> best;
        Outcome results[3];
        const u32 bfs[] = {16, 32, 64};
        for (int i = 0; i < 3; ++i) {
            results[i] = runNeedle(bfs[i], scale, m.unified);
            if (results[i].fits) {
                double c = static_cast<double>(results[i].cycles);
                best = best ? std::min(*best, c) : c;
            }
        }
        u32 best_bf = 0;
        for (int i = 0; i < 3; ++i) {
            const Outcome& o = results[i];
            if (!o.fits) {
                t.addRow({std::to_string(bfs[i]), "-", "-",
                          "does not fit", "-"});
                continue;
            }
            double norm = *best / static_cast<double>(o.cycles);
            if (norm >= 0.9999)
                best_bf = bfs[i];
            t.addRow({std::to_string(bfs[i]), std::to_string(o.threads),
                      std::to_string(o.sharedKb),
                      std::to_string(o.cycles), Table::num(norm, 3)});
        }
        t.print(std::cout);
        std::cout << "best blocking factor: " << best_bf << "\n\n";
    }

    std::cout << "Expected shape (paper Figure 11): small scratchpads "
                 "force BF=16/32; with >300KB available, BF=64 wins "
                 "while needing fewer concurrent threads.\n";
    return 0;
}
