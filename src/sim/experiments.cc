#include "sim/experiments.hh"

#include "common/log.hh"
#include "kernels/registry.hh"

namespace unimem {

SimResult
runBaseline(const std::string& name, double scale)
{
    RunSpec spec;
    spec.design = DesignKind::Partitioned;
    spec.partition = baselinePartition();
    return simulateBenchmark(name, scale, spec);
}

SimResult
runUnified(const std::string& name, double scale, u64 capacity)
{
    RunSpec spec;
    spec.design = DesignKind::Unified;
    spec.unifiedCapacity = capacity;
    return simulateBenchmark(name, scale, spec);
}

namespace {

/**
 * Simulate the candidate configurations in order and keep the fastest
 * (the earliest wins ties). The exhibits call runFermiBest and
 * runUnifiedAutotuned inside sweep jobs, so the candidates run serially
 * on the job's thread.
 */
SimResult
bestOf(const std::string& name, double scale,
       const std::vector<RunSpec>& specs)
{
    SimResult best = simulateBenchmark(name, scale, specs.front());
    for (size_t i = 1; i < specs.size(); ++i) {
        SimResult r = simulateBenchmark(name, scale, specs[i]);
        if (r.cycles() < best.cycles())
            best = std::move(r);
    }
    return best;
}

} // namespace

SimResult
runFermiBest(const std::string& name, double scale, u64 totalBytes)
{
    std::vector<RunSpec> specs;
    for (const MemoryPartition& part : fermiLikeOptions(totalBytes)) {
        RunSpec spec;
        spec.design = DesignKind::FermiLike;
        spec.partition = part;
        std::unique_ptr<KernelModel> kernel = createBenchmark(name, scale);
        if (resolveAllocation(kernel->params(), spec).launch.feasible)
            specs.push_back(spec);
    }
    if (specs.empty())
        fatal("runFermiBest: no feasible Fermi-like option for %s",
              name.c_str());
    return bestOf(name, scale, specs);
}

SimResult
runUnifiedAutotuned(const std::string& name, double scale, u64 capacity)
{
    // Resolve allocations first (cheap) and keep the first thread limit
    // reaching each distinct occupancy; duplicate occupancies simulate
    // identically, so dropping them preserves the best-of result.
    std::vector<RunSpec> specs;
    u32 lastThreads = 0;
    for (u32 limit = 256; limit <= kMaxThreadsPerSm; limit += 256) {
        RunSpec spec;
        spec.design = DesignKind::Unified;
        spec.unifiedCapacity = capacity;
        spec.threadLimit = limit;
        std::unique_ptr<KernelModel> kernel = createBenchmark(name, scale);
        AllocationDecision d = resolveAllocation(kernel->params(), spec);
        if (!d.launch.feasible)
            continue;
        if (!specs.empty() && d.launch.threads == lastThreads)
            continue;
        lastThreads = d.launch.threads;
        specs.push_back(spec);
    }
    if (specs.empty())
        fatal("runUnifiedAutotuned: %s infeasible at %llu bytes",
              name.c_str(), static_cast<unsigned long long>(capacity));
    return bestOf(name, scale, specs);
}

double
energyOf(const SimResult& run, const SimResult& baseline)
{
    return energyBreakdownOf(run, baseline).total();
}

EnergyBreakdown
energyBreakdownOf(const SimResult& run, const SimResult& baseline)
{
    EnergyParams params;
    double other = calibrateOtherDynamicPower(baseline.energy, params);
    return computeEnergy(run.energy, params, other);
}

Comparison
compare(const SimResult& run, const SimResult& baseline)
{
    Comparison c;
    c.speedup = static_cast<double>(baseline.cycles()) /
                static_cast<double>(run.cycles());
    double base_j = energyOf(baseline, baseline);
    double run_j = energyOf(run, baseline);
    c.energyRatio = run_j / base_j;
    u64 base_dram = baseline.dramSectors();
    c.dramRatio = base_dram == 0
                      ? 1.0
                      : static_cast<double>(run.dramSectors()) /
                            static_cast<double>(base_dram);
    return c;
}

} // namespace unimem
