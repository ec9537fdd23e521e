/**
 * @file
 * Def-use and liveness analysis over one warp's linear trace.
 *
 * Warp traces are straight-line (branch divergence is folded into active
 * masks), so liveness reduces to interval analysis: a value defined at
 * position p is live until its last use before the register's next
 * definition. From the intervals we derive the two static metrics the
 * paper's register-hierarchy argument rests on (Section 2.1):
 *
 *  - register pressure: the maximum number of simultaneously live
 *    values, which the Section 4.5 allocator's regsPerThread declaration
 *    must cover;
 *  - ORF-reachable reads: the fraction of register reads whose producing
 *    definition is still within the 1-entry LRF + 4-entry ORF recency
 *    window, i.e. reads the hierarchy filters away from the MRF (the
 *    paper's ~60% claim, checked per kernel model).
 */

#ifndef UNIMEM_ANALYSIS_LIVENESS_HH
#define UNIMEM_ANALYSIS_LIVENESS_HH

#include <functional>
#include <vector>

#include "arch/warp_instr.hh"

namespace unimem {

/** Results of one warp-trace liveness pass. */
struct LivenessSummary
{
    /** Maximum simultaneously live register values over the prefix. */
    u32 maxLive = 0;

    /** Register source operands read. */
    u64 regReads = 0;

    /** Reads whose def is inside the LRF+ORF recency window. */
    u64 orfCaptured = 0;

    double
    orfFraction() const
    {
        return regReads == 0
                   ? 0.0
                   : static_cast<double>(orfCaptured) /
                         static_cast<double>(regReads);
    }
};

/**
 * One register hazard the analyzer observed: a definition overwritten
 * before any read. Which kind depends on the overwritten producer —
 * a long-latency load result thrown away is wasted DRAM traffic, a
 * zero-read redefinition inside the LRF+ORF recency window is a WAW
 * the capture hierarchy silently absorbs (lint's register-hazard check
 * turns these into diagnostics).
 */
struct HazardEvent
{
    enum class Kind : u8
    {
        DeadLoadOverwrite, ///< overwritten def was a memory load
        WindowWaw,         ///< redefined while still in the ORF window
    };

    Kind kind;
    RegId reg;

    /** Trace position of the overwritten definition. */
    u64 defPos;

    /** Trace position of the overwriting definition. */
    u64 redefPos;
};

/**
 * Streaming liveness/def-use analyzer. Feed instructions in trace order
 * with step(); call finish() once for the summary.
 *
 * Out-of-footprint register ids are ignored here — the bounds check in
 * lint.cc owns them — so pressure reflects the declared footprint only.
 */
class TraceLiveness
{
  public:
    /**
     * @param numRegs the kernel's declared register footprint
     * @param liveInRegs registers [0, liveInRegs) are live at entry
     * @param orfEntries ORF capacity behind the single-entry LRF
     */
    TraceLiveness(u32 numRegs, u32 liveInRegs, u32 orfEntries = 4);

    void step(const WarpInstr& in);

    LivenessSummary finish();

    /** Receive hazard events as they are discovered (empty disables). */
    void
    setHazardSink(std::function<void(const HazardEvent&)> sink)
    {
        hazardSink_ = std::move(sink);
    }

  private:
    void use(RegId r);
    void def(RegId r, bool isLoad);

    struct RegState
    {
        /** Position of the live definition, or kNoDef. */
        u64 defPos = kNoDef;
        u64 lastUse = 0;

        /** The live definition came from a memory load. */
        bool defIsLoad = false;

        /** The live definition is a kernel live-in, not a trace def. */
        bool liveIn = false;

        static constexpr u64 kNoDef = ~u64(0);
    };

    /** Close the open interval of @p r, recording +1/-1 events. */
    void closeInterval(const RegState& st);

    std::vector<RegState> regs_;
    u32 orfCapacity_;

    /** Recency list of distinct defined registers, most recent first;
     *  index 0 models the LRF, 1..orfCapacity_ the ORF. */
    std::vector<RegId> recency_;

    u64 pos_ = 0;
    LivenessSummary summary_;
    std::function<void(const HazardEvent&)> hazardSink_;

    /** (position, +1 at start / -1 past end) liveness events. */
    std::vector<std::pair<u64, i32>> events_;
};

} // namespace unimem

#endif // UNIMEM_ANALYSIS_LIVENESS_HH
