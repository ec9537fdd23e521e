/**
 * @file
 * Chip-level co-simulation (validation of paper Section 5.1) with a
 * two-phase bound-weave engine (DESIGN.md Section 10).
 *
 * The paper simulates a single SM and gives it 1/32 of the chip's DRAM
 * bandwidth, arguing that with many symmetric SMs this "simplifies
 * simulation without sacrificing accuracy". This module checks that
 * claim: it runs N SmModels against shared memory controllers with the
 * full chip bandwidth (paper Section 2: 6 channels, 256 bytes/cycle for
 * 32 SMs).
 *
 * Execution alternates two phases per conservative time quantum:
 *  - bound: every runnable SM advances privately to the window end, in
 *    smId order on the calling thread, recording its DRAM traffic into
 *    a per-SM DramRequestQueue instead of timing it. SMs that already
 *    overshot the window (idle-jump memoization) are skipped entirely.
 *  - weave: all queues are merged in the canonical (cycle, smId) order,
 *    replayed against the shared DramModels, and the resolved load
 *    completions are delivered back to each SM.
 *
 * A window gives each SM only a few warp instructions, too little to
 * pay for a thread hand-off, so the bound phase is serial; independent
 * chips run in parallel instead (reproduce ext_chip_validation).
 *
 * Each SM executes its own 1/N grid share of the kernel with a
 * per-SM-distinct trace seed.
 */

#ifndef UNIMEM_SM_CHIP_HH
#define UNIMEM_SM_CHIP_HH

#include <memory>
#include <vector>

#include "sm/sm.hh"

namespace unimem {

/** Chip-level run configuration. */
struct ChipConfig
{
    /** Most SMs a chip may have (the largest GPUs have ~150). */
    static constexpr u32 kMaxSms = 256;

    /** Number of SMs (paper: 32), 1 to kMaxSms. */
    u32 numSms = 32;

    /** Chip-wide DRAM bandwidth in bytes/cycle (paper: 256). */
    u32 chipDramBytesPerCycle = 256;

    /**
     * Conservative co-simulation quantum in cycles: all SMs reach the
     * window end (bound) before the window's DRAM traffic is replayed
     * (weave). Smaller values interleave multi-SM traffic at a finer
     * grain; larger values batch more work per dispatch. Single-SM
     * results are quantum-invariant; multi-SM contention timing is not
     * (the weave replays whole windows).
     */
    Cycle quantum = 64;

    /** Ignored: the bound phase runs on the calling thread. */
    u32 workers = 0;

    /** Per-SM configuration (design, partition, launch, options). */
    SmRunConfig sm;
};

/** Chip-level results. */
struct ChipStats
{
    /** Chip runtime: the slowest SM's clock plus the DRAM drain. */
    Cycle cycles = 0;

    /** Shared-DRAM traffic of all SMs together. */
    DramStats dram;
    DramStats texDram;

    /** Per-SM statistics (dram fields empty: traffic is chip-level). */
    std::vector<SmStats> sms;

    /** Per-SM share of replayed chip-DRAM sectors (both channels). */
    std::vector<u64> perSmDramSectors;

    /** Always 1: the bound phase runs on the calling thread. */
    u32 workersUsed = 1;

    /** Quanta processed (empty windows are fast-forwarded, not run). */
    u64 windows = 0;

    /** Bound dispatches (> windows when in-window sub-rounds occur). */
    u64 boundPasses = 0;

    /** DRAM transactions replayed by the weave phase. */
    u64 weaveRequests = 0;

    /**
     * Cycles SMs spent fenced before a window boundary waiting for the
     * weave to resolve a deferred completion (quantum > DRAM latency).
     */
    u64 weaveStallCycles = 0;

    /** (SM, window) slots that ran vs. were skipped as quiescent. */
    u64 smQuantaRun = 0;
    u64 smQuantaSkipped = 0;

    u64
    warpInstrs() const
    {
        u64 n = 0;
        for (const SmStats& s : sms)
            n += s.warpInstrs;
        return n;
    }

    /** Slowest / fastest SM finish times (load-imbalance measure). */
    Cycle maxSmCycles() const;
    Cycle minSmCycles() const;

    /** Finish-time spread between the slowest and fastest SM. */
    Cycle finishSkew() const { return maxSmCycles() - minSmCycles(); }

    /** Slowest SM finish over the mean finish, minus 1 (0 = balanced). */
    double loadImbalance() const;

    /** Fraction of (SM, window) slots that did bound-phase work. */
    double quantumUtilization() const;
};

/** Co-simulates N identical SMs sharing the chip's DRAM bandwidth. */
class ChipModel
{
  public:
    ChipModel(const ChipConfig& cfg, const KernelModel& kernel);
    ~ChipModel();

    /** Run every SM's grid share to completion. */
    const ChipStats& run();

  private:
    void weave();

    /** Sort key for the canonical weave replay order. */
    struct MergeRef
    {
        Cycle at;
        u32 sm;
        u32 idx;
    };

    ChipConfig cfg_;
    DramModel dram_;
    DramModel texDram_;
    std::vector<std::unique_ptr<DramRequestQueue>> queues_;
    std::vector<std::unique_ptr<SmModel>> sms_;
    std::vector<MergeRef> merge_; // reused weave scratch
    ChipStats stats_;
    bool ran_ = false;
};

} // namespace unimem

#endif // UNIMEM_SM_CHIP_HH
