/**
 * @file
 * Per-warp register scoreboard for the in-order SM pipeline.
 *
 * Tracks when each architectural register's pending value becomes
 * available and whether the producer is a long-latency (descheduling)
 * operation, which is what the two-level scheduler keys on.
 */

#ifndef UNIMEM_SCHED_SCOREBOARD_HH
#define UNIMEM_SCHED_SCOREBOARD_HH

#include <algorithm>
#include <array>

#include "arch/warp_instr.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace unimem {

/** Register dependence tracking for one warp. */
class Scoreboard
{
  public:
    /** Maximum architectural registers per thread the model supports. */
    static constexpr u32 kMaxRegs = kMaxArchRegs;

    /**
     * Mark @p r as produced at @p readyAt by a (long-latency?) op.
     * In the header (like readyInfo) because it runs once per issued
     * instruction with a destination.
     */
    void
    setPending(RegId r, Cycle readyAt, bool longLatency)
    {
        if (r == kInvalidReg)
            return;
        if (r >= kMaxRegs)
            panic("Scoreboard: register %u out of range", r);
        Entry& e = regs_[r];
        if (e.longLatency)
            --longLatencyCount_; // WAW over a pending long op
        e.readyAt = readyAt;
        e.longLatency = longLatency;
        if (longLatency)
            ++longLatencyCount_;
    }

    /** Producer of @p r completed (clears long-latency flag). */
    void
    clearPending(RegId r)
    {
        if (r == kInvalidReg || r >= kMaxRegs)
            return;
        Entry& e = regs_[r];
        if (e.longLatency) {
            e.longLatency = false;
            --longLatencyCount_;
        }
    }

    /** Cycle at which instruction @p in could issue given dependences. */
    Cycle readyCycle(const WarpInstr& in) const;

    /** True if @p in depends (RAW or WAW) on a pending long-latency op. */
    bool dependsOnLongLatency(const WarpInstr& in) const;

    /** readyCycle + dependsOnLongLatency of @p in, one register pass. */
    struct ReadyInfo
    {
        Cycle readyAt;
        bool longLatency;
    };

    /**
     * In the header so the per-issue readiness refresh inlines it:
     * the whole body is a handful of array reads and the call ran
     * out-of-line once per issued instruction plus once per load
     * wakeup.
     */
    ReadyInfo
    readyInfo(const WarpInstr& in) const
    {
        ReadyInfo info{0, false};
        for (u8 s = 0; s < in.numSrc; ++s) {
            RegId r = in.src[s];
            if (r == kInvalidReg || r >= kMaxRegs)
                continue;
            const Entry& e = regs_[r];
            info.readyAt = std::max(info.readyAt, e.readyAt);
            info.longLatency |= e.longLatency;
        }
        if (in.hasDst() && in.dst < kMaxRegs) {
            const Entry& e = regs_[in.dst];
            info.readyAt = std::max(info.readyAt, e.readyAt);
            info.longLatency |= e.longLatency;
        }
        return info;
    }

    /** True if any long-latency producer is outstanding for this warp. */
    bool anyLongLatencyPending() const { return longLatencyCount_ > 0; }

    /**
     * Raw pending-ready cycle of @p r. Used by the deferred-DRAM
     * delivery path to verify that the entry still holds the sentinel
     * this load planted (and was not overwritten by a younger writer).
     */
    Cycle
    pendingAt(RegId r) const
    {
        return r < kMaxRegs ? regs_[r].readyAt : 0;
    }

    void reset();

  private:
    struct Entry
    {
        Cycle readyAt = 0;
        bool longLatency = false;
    };

    std::array<Entry, kMaxRegs> regs_{};
    u32 longLatencyCount_ = 0;
};

} // namespace unimem

#endif // UNIMEM_SCHED_SCOREBOARD_HH
