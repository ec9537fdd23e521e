/**
 * @file
 * Parallel sweep engine: run many independent simulations side by side
 * on a WorkerPool and return the results in submission order.
 *
 * Every figure/table harness replays dozens of (benchmark, RunSpec)
 * points; each point is pure (seeded RNG in, SimResult out), so the
 * sweep parallelizes trivially. The engine guarantees determinism: each
 * job runs an isolated simulator with its own seeded RNG and writes its
 * result into a slot addressed by submission index, so output is
 * byte-identical to the serial path regardless of worker count or
 * completion order.
 */

#ifndef UNIMEM_SIM_SWEEP_HH
#define UNIMEM_SIM_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace unimem {

/** One sweep point: a labeled simulation to run. */
struct SweepJob
{
    /** Identifies the point in stats, errors, and reports. */
    std::string label;

    /** Registry benchmark to instantiate (ignored when `run` is set). */
    std::string benchmark;

    /** Workload scale (ignored when `run` is set). */
    double scale = 0.5;

    /** Configuration to simulate (ignored when `run` is set). */
    RunSpec spec;

    /**
     * Optional custom thunk replacing the (benchmark, scale, spec)
     * simulation - for composite points such as best-of-N selections.
     * Must be safe to call from a worker thread.
     */
    std::function<SimResult()> run;
};

/** Convenience constructor for the common (label, RunSpec) job. */
SweepJob makeSweepJob(std::string label, std::string benchmark,
                      double scale, const RunSpec& spec);

/** Observability record of one sweep execution. */
struct SweepStats
{
    /** Workers the sweep actually used. */
    u32 workers = 0;

    /** Jobs submitted. */
    u64 jobCount = 0;

    /** Wall time of the whole sweep (seconds). */
    double wallSeconds = 0.0;

    /** Per-job wall time (seconds), in submission order. */
    std::vector<double> jobSeconds;

    /** Result-cache hits during this run (duplicate points memoized). */
    u64 memoHits = 0;

    /** Result-cache misses during this run (points actually simulated). */
    u64 memoMisses = 0;

    /** Summed job time / (workers * wall); 0 when empty. */
    double utilization() const;

    /** One-line human-readable summary. */
    std::string summary() const;
};

/**
 * Execute @p jobs on a WorkerPool of @p workers (0: every hardware
 * thread) and return their results in submission order. If any job
 * throws, the first failing job in submission order is rethrown, named
 * by its label, once every other job ran. @p stats, when given, is
 * filled only on success.
 */
std::vector<SimResult> runSweep(const std::vector<SweepJob>& jobs,
                                u32 workers = 0,
                                SweepStats* stats = nullptr);

} // namespace unimem

#endif // UNIMEM_SIM_SWEEP_HH
