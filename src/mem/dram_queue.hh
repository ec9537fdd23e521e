/**
 * @file
 * Record/replay DRAM request queue for bound-weave chip co-simulation.
 *
 * In the bound phase each SM advances privately and, instead of calling
 * the shared DramModel directly, records its global/texture traffic
 * here. In the weave phase the chip merges all SMs' queues in a
 * canonical (cycle, smId) order and replays them against the shared
 * memory controllers, so the contention outcome is independent of the
 * order in which SMs ran (DESIGN.md Section 10).
 *
 * Two record granularities:
 *  - ungrouped requests (kNoGroup): posted stores, victim write-backs,
 *    loads nobody waits on. Optionally tracked so their drain cycle can
 *    be folded into the SM's last-completion bookkeeping on replay.
 *  - grouped reads: the cache-line fills of one load (or texture fetch)
 *    instruction. The group carries the destination register and the
 *    completion contributions already known at record time (cache hits,
 *    pipeline latency); replay computes the final completion as
 *    max(known, max over member fills of (fill + extra)) and delivers
 *    it back to the SM's scoreboard.
 *
 * Open groups also export a conservative *stall bound*: a lower bound
 * on the earliest cycle any unresolved completion could land. The SM
 * must not make scheduling decisions at or beyond the minimum bound
 * until the next weave resolves the group, which is what makes the
 * deferred engine decision-for-decision identical to the immediate one.
 */

#ifndef UNIMEM_MEM_DRAM_QUEUE_HH
#define UNIMEM_MEM_DRAM_QUEUE_HH

#include <vector>

#include "common/types.hh"

namespace unimem {

/** Group id for traffic no instruction waits on. */
constexpr u32 kNoGroup = ~u32(0);

/** Replay channel selectors (separate DramModels at chip level). */
constexpr u8 kDataDramChannel = 0;
constexpr u8 kTexDramChannel = 1;

/** One recorded DRAM transaction awaiting replay. */
struct DramRequest
{
    Cycle at = 0;   //!< issue cycle on the SM's clock
    u32 sectors = 0;
    u32 group = kNoGroup;
    u8 channel = kDataDramChannel;
    bool isRead = true;
    /** Fold the replayed drain cycle into the SM's lastCompletion. */
    bool trackDrain = false;
};

/** One deferred load/texture completion awaiting replay. */
struct DeferredGroup
{
    Cycle known = 0;       //!< completion known at record time
    Cycle extra = 0;       //!< post-fill addend (texture pipeline tail)
    Cycle bound = 0;       //!< lower bound on the final completion
    Cycle placeholder = 0; //!< scoreboard sentinel (delivery check)
    Cycle result = 0;      //!< final completion (filled by the weave)
    u32 warp = 0;
    u32 gen = 0;
    RegId reg = kInvalidReg;
    u32 members = 0;       //!< recorded fill reads in this group
    bool wake = false;     //!< deliver to scoreboard + load event
    bool trackCompletion = false;
};

/** Per-SM record buffer, drained by the chip's weave phase. */
class DramRequestQueue
{
  public:
    explicit DramRequestQueue(u32 dramLatency)
        : dramLatency_(dramLatency)
    {
    }

    /**
     * Open a completion group for one load/texture instruction. Member
     * fills are added with recordRead(); close with endGroup().
     */
    u32
    beginGroup(u32 warp, u32 gen, RegId reg, Cycle extra)
    {
        DeferredGroup g;
        g.warp = warp;
        g.gen = gen;
        g.reg = reg;
        g.extra = extra;
        groups_.push_back(g);
        return static_cast<u32>(groups_.size() - 1);
    }

    /**
     * Close group @p g. Returns true if the group stays deferred (it
     * recorded at least one DRAM fill); when it does and @p wake is
     * set, a fresh scoreboard placeholder is available from
     * lastPlaceholder(). Returns false and drops the group when it has
     * no members: the completion equals @p known exactly and the
     * caller should handle it on the immediate (single-SM) path.
     */
    bool
    endGroup(u32 g, Cycle known, bool wake, bool trackCompletion)
    {
        DeferredGroup& grp = groups_[g];
        if (grp.members == 0) {
            groups_.pop_back(); // groups are opened/closed LIFO
            return false;
        }
        grp.known = known;
        grp.wake = wake;
        grp.trackCompletion = trackCompletion;
        grp.bound = grp.bound > known ? grp.bound : known;
        if (wake)
            grp.placeholder = lastPlaceholder_ =
                kCycleNever - (++placeholderSeq_);
        if (grp.bound < minBound_)
            minBound_ = grp.bound;
        return true;
    }

    Cycle lastPlaceholder() const { return lastPlaceholder_; }

    void
    recordRead(u8 channel, Cycle at, u32 sectors, u32 group,
               bool trackDrain)
    {
        requests_.push_back(
            {at, sectors, group, channel, true, trackDrain});
        ++totalRequests_;
        if (group != kNoGroup) {
            DeferredGroup& grp = groups_[group];
            ++grp.members;
            // Earliest this fill can complete: one transfer cycle plus
            // the fixed DRAM latency plus the group's pipeline tail.
            Cycle b = at + 1 + dramLatency_ + grp.extra;
            if (b > grp.bound)
                grp.bound = b;
        }
    }

    void
    recordWrite(u8 channel, Cycle at, u32 sectors, bool trackDrain)
    {
        requests_.push_back(
            {at, sectors, kNoGroup, channel, false, trackDrain});
        ++totalRequests_;
    }

    /**
     * Earliest cycle at which an unresolved group completion could
     * land; the SM stalls there until the next weave. kCycleNever when
     * nothing is pending.
     */
    Cycle stallBound() const { return minBound_; }

    bool hasPendingGroups() const { return !groups_.empty(); }

    bool empty() const { return requests_.empty() && groups_.empty(); }

    std::vector<DramRequest>& requests() { return requests_; }
    std::vector<DeferredGroup>& groups() { return groups_; }

    /** Lifetime count of recorded requests (contention accounting). */
    u64 totalRequests() const { return totalRequests_; }

    /** Drop replayed state; called by the weave after delivery. */
    void
    clearReplayed()
    {
        requests_.clear();
        groups_.clear();
        minBound_ = kCycleNever;
    }

  private:
    u32 dramLatency_;
    u64 placeholderSeq_ = 0;
    Cycle lastPlaceholder_ = 0;
    Cycle minBound_ = kCycleNever;
    u64 totalRequests_ = 0;
    std::vector<DramRequest> requests_;
    std::vector<DeferredGroup> groups_;
};

} // namespace unimem

#endif // UNIMEM_MEM_DRAM_QUEUE_HH
