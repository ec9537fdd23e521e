/**
 * @file
 * The benchmark's three workloads as executable plans.
 *
 * Building a plan is the set-up cost a user pays before the first
 * simulation: kernel construction, allocation resolution and the job
 * list. Running a plan is one closed batch: every point back to back
 * with a bounded worker count. A traced run executes the same points
 * through the same public functions with spans around each call.
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiments.hh"
#include "sim/sweep.hh"
#include "sm/chip.hh"

namespace perfbench {

using namespace unimem;

enum class Workload
{
    PaperSweep,
    IrregularSm,
    ChipDram,
};

/** Parse a workload name; false if unknown. */
bool parseWorkload(const std::string& name, Workload& out);
const char* workloadName(Workload w);

/** Workload sizes: "full" is measured, "tiny" is for the self-test. */
struct Profile
{
    std::string name;
    double sweepScale = 0.0;
    double irregularScale = 0.0;
    double chipScale = 0.0;
    u32 chipSms = 8;
    /** Instructions per kernel fed through the layer replays. */
    u64 replayInstrCap = 0;
};

bool parseProfile(const std::string& name, Profile& out);

/** One simulated point: its label and the result digest. */
struct PointDigest
{
    std::string label;
    u64 digest = 0;
};

/** Aggregates over the modelled statistics of a batch. */
struct ModelledCounts
{
    u64 warpInstrs = 0;
    RfAccessCounts rf;
    u64 deschedules = 0;
    u64 conflictPenaltyCycles = 0;
    u64 cacheHits = 0;
    u64 cacheAccesses = 0;
    u64 dramRequests = 0;
};

/** Everything one batch produced. */
struct BatchResult
{
    std::vector<PointDigest> points;
    ModelledCounts modelled;

    /** Normalized-DRAM error against Table 1 (paper_sweep only). */
    double paperErrPct = 0.0;
    bool hasPaperErr = false;

    bool hasSweep = false;
    SweepStats sweep;
    u64 simulateCalls = 0;

    std::vector<ChipStats> chips;
};

class Plan
{
  public:
    /**
     * Set-up: construct kernels, resolve allocations, list the points.
     * @param workers sweep / chip worker count
     */
    Plan(Workload w, const Profile& p, u64 seed, u32 workers);
    ~Plan();

    Plan(const Plan&) = delete;
    Plan& operator=(const Plan&) = delete;

    /** One closed batch. With tracing on, spans wrap every layer call. */
    BatchResult run(bool traced) const;

    /** Registry names of the kernels this workload simulates. */
    std::vector<std::string> kernelNames() const;

    /** Scale the workload runs its kernels at. */
    double scale() const;

    /** The constructed kernel model of @p name (layer replays). */
    const KernelModel& kernel(const std::string& name) const;

    /** Points in one batch. */
    size_t pointCount() const;

  private:
    struct SweepPlan;
    struct SingleSmPlan;
    struct ChipPlan;

    BatchResult runSweep(bool traced) const;
    BatchResult runSingleSm(bool traced) const;
    BatchResult runChip(bool traced) const;

    Workload workload_;
    Profile profile_;
    u32 workers_;
    std::map<std::string, std::unique_ptr<KernelModel>> kernels_;
    std::unique_ptr<SweepPlan> sweep_;
    std::unique_ptr<SingleSmPlan> single_;
    std::unique_ptr<ChipPlan> chip_;
};

/**
 * Mean absolute relative error (%) of normalized DRAM accesses at 0 KB
 * and 64 KB of cache against Table 1, over @p kernels at @p scale.
 * Simulates the three Table 1 DRAM points per kernel.
 */
double paperDramErrorPct(const std::vector<std::string>& kernels,
                         double scale, u64 seed);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
