/**
 * @file
 * Public simulation facade: describe a run (benchmark, design, capacity,
 * optional overrides), get back timing, traffic, and energy-accounting
 * inputs. This is the API the examples and benchmark harnesses use.
 */

#ifndef UNIMEM_SIM_SIMULATOR_HH
#define UNIMEM_SIM_SIMULATOR_HH

#include <string>

#include "core/allocation.hh"
#include "energy/energy_model.hh"
#include "sm/sm.hh"

namespace unimem {

/**
 * Largest unified / Fermi-like capacity a flag may ask for, in KB: 8 MB,
 * over 20x the paper's largest pool (384 KB). The cache's tag array
 * grows with the capacity, so an unbounded value ends in std::bad_alloc
 * instead of a result.
 */
constexpr u32 kMaxCapacityKb = 8192;

/** Full description of one simulation run. */
struct RunSpec
{
    DesignKind design = DesignKind::Partitioned;

    /** Capacities for Partitioned / FermiLike designs. */
    MemoryPartition partition = baselinePartition();

    /** Total capacity for the Unified design. */
    u64 unifiedCapacity = 384_KB;

    /**
     * Unified design only: instead of the Section 4.5 split, use
     * `partition` verbatim (unified bank structure, fixed split). Used
     * for no-reconfiguration comparisons across kernel sequences.
     */
    bool unifiedUseFixedPartition = false;

    /** Cap on resident threads (sensitivity sweeps); 0 = maximum. */
    u32 threadLimit = kMaxThreadsPerSm;

    /** Registers per thread override; 0 = the kernel's no-spill count. */
    u32 regsOverride = 0;

    /** Model options / ablations. */
    bool rfHierarchy = true;
    bool conflictPenalties = true;
    bool aggressiveUnified = false;
    WritePolicy cachePolicy = WritePolicy::WriteThrough;
    u32 activeSetSize = 8;

    u64 seed = 1;
};

/** Everything one run produces. */
struct SimResult
{
    SmStats sm;
    AllocationDecision alloc;
    EnergyInputs energy;

    Cycle cycles() const { return sm.cycles; }
    u64 dramSectors() const { return sm.dramSectors(); }
};

/** Map SM statistics to energy-model inputs. */
EnergyInputs energyInputsOf(const SmStats& sm,
                            const AllocationDecision& alloc);

/** Resolve the allocation a RunSpec implies for @p kp. */
AllocationDecision resolveAllocation(const KernelParams& kp,
                                     const RunSpec& spec);

/**
 * The SM configuration simulate() runs @p spec under, given its
 * resolved allocation. Tests that drive SmModel directly (issue-trace
 * sinks, sliced advance) use it so they run exactly what simulate()
 * runs.
 */
SmRunConfig smRunConfigFor(const RunSpec& spec,
                           const AllocationDecision& alloc);

/**
 * Field-by-field equality of two results: allocation, launch, every
 * exported SM statistic, and the derived energy inputs. This is the
 * determinism predicate the sweep engine relies on: two simulations of
 * the same RunSpec must satisfy it.
 */
bool identicalResults(const SimResult& a, const SimResult& b);

/**
 * Run one kernel under one spec. Fatal if the launch is infeasible.
 *
 * When the UNIMEM_CHECK_DETERMINISM environment variable is set, every
 * simulation runs twice and panics unless both runs produce identical
 * results (the seed-plumbing audit backing the parallel sweep engine).
 */
SimResult simulate(const KernelModel& kernel, const RunSpec& spec);

/**
 * Convenience: instantiate a registry benchmark and run it.
 *
 * Fronted by the process-wide result cache (sim/result_cache.hh):
 * a (name, scale, spec) point that has already been simulated returns
 * its memoized SimResult instead of re-simulating. Disable with
 * UNIMEM_RESULT_CACHE=0 or a ScopedResultCacheDisable guard.
 */
SimResult simulateBenchmark(const std::string& name, double scale,
                            const RunSpec& spec);

} // namespace unimem

#endif // UNIMEM_SIM_SIMULATOR_HH
