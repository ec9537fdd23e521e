/**
 * @file
 * Cycle-level model of one streaming multiprocessor (paper Section 5.1).
 *
 * The model is trace driven: each resident warp owns an InstrStream
 * produced by the kernel model (wrapped in a SpillInjector when the
 * launch allocates fewer registers than the kernel needs). Each cycle the
 * two-level scheduler picks one ready active warp and issues its next
 * instruction; bank and arbitration conflicts delay the issue port by the
 * Section 6.1 penalty model; global accesses probe the single-ported tag
 * array and either hit in the cache or queue on the SM's DRAM bandwidth
 * share. Warps that hit a dependence on a long-latency load are
 * descheduled (writing their LRF/ORF state back to the MRF) and
 * reactivated when the load returns. CTAs are launched in waves as slots
 * free up; barriers synchronize the warps of a CTA.
 *
 * Idle stretches are skipped by advancing the clock directly to the next
 * interesting event, so DRAM-bound phases simulate quickly. The loop's
 * spec is the per-cycle reference in tests/reference_sm.hh, which ticks
 * every cycle without any of these shortcuts; tests/test_reference_sm
 * requires identical statistics and issue traces from both.
 */

#ifndef UNIMEM_SM_SM_HH
#define UNIMEM_SM_SM_HH

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "arch/kernel_model.hh"
#include "core/conflict_model.hh"
#include "mem/coalescer.hh"
#include "mem/dram_queue.hh"
#include "sched/scoreboard.hh"
#include "sm/sm_config.hh"
#include "sm/tex_unit.hh"

namespace unimem {

/**
 * Conflict-outcome table counters of one SmModel (diagnostics only;
 * never part of SmStats).
 */
struct FootprintStats
{
    /** Ops touching no data banks whose outcome came from the table. */
    u64 computeHits = 0;
    u64 computeMisses = 0;

    /**
     * Always 0: data-bank ops are evaluated, not memoized (DESIGN.md
     * §9.2). Kept for perfbench's mem.footprint.* counters.
     */
    u64 memHits = 0;
    u64 memMisses = 0;
};

/** One-shot simulator: construct, run(), read stats. */
class SmModel
{
  public:
    /**
     * @param cfg run configuration
     * @param kernel workload
     * @param chipQueue if non-null, global/texture DRAM traffic is
     *        recorded into this externally owned queue instead of
     *        being timed against a private DramModel; the chip-level
     *        weave phase replays it and delivers completions through
     *        deliverLoad()/noteDrain() (bound-weave co-simulation)
     */
    SmModel(const SmRunConfig& cfg, const KernelModel& kernel,
            DramRequestQueue* chipQueue = nullptr);

    /** Run the kernel's whole grid share to completion. */
    const SmStats& run();

    // -- Steppable interface for chip-level co-simulation ------------

    /** Launch the initial CTA wave (idempotent). */
    void start();

    /**
     * Advance simulation until the local clock reaches @p limit or the
     * SM finishes. May overshoot the limit by one scheduling decision.
     * @return the local clock after advancing.
     */
    Cycle advance(Cycle limit);

    /** All CTAs retired? */
    bool finished() const { return started_ && residentWarps_ == 0; }

    /** Local clock. */
    Cycle now() const { return now_; }

    /** Finalize statistics once finished (idempotent). */
    const SmStats& finalize();

    const SmStats& stats() const { return stats_; }

    // -- Weave-phase delivery (deferred-DRAM mode only) --------------

    /**
     * Deliver the replayed completion of a deferred load/texture group.
     * Pushes the wakeup event exactly as the immediate path would and,
     * when the scoreboard entry still holds @p placeholder (i.e. no
     * younger writer overtook the load), installs the real completion
     * cycle in place of the sentinel.
     */
    void deliverLoad(u32 warp, u32 gen, RegId reg, Cycle completion,
                     Cycle placeholder, bool trackCompletion);

    /** Fold a replayed drain/completion into the end-of-run clock. */
    void
    noteDrain(Cycle c)
    {
        if (c > lastCompletion_)
            lastCompletion_ = c;
    }

    /** One scheduler decision (order-trace tests and debugging). */
    struct IssueRecord
    {
        Cycle cycle;
        u32 warp;
        u64 warpGlobalId;
        Opcode op;
    };

    /**
     * Record every issue into @p sink (nullptr disables). The sequence
     * of records is part of the model's deterministic contract: the
     * scheduler-order golden test asserts it byte-for-byte.
     */
    void setIssueTrace(std::vector<IssueRecord>* sink)
    {
        issueTrace_ = sink;
    }

    /**
     * High-water mark of the livelock guard's no-progress counter
     * (advance-loop iterations without the clock moving). Regression
     * tests assert it stays O(1) regardless of kernel length or how
     * the run is sliced into bounded advance(limit) calls.
     */
    u64 guardPeak() const { return guardPeak_; }

    /** Conflict-outcome table counters (diagnostics only). */
    const FootprintStats& footprintStats() const { return footprintStats_; }

  private:
    /**
     * Per-warp *cold* state: everything the scheduler inner loop does
     * not touch while deciding who issues next. Held by value so the
     * stream's chunk buffer and the register-file bookkeeping are
     * pooled across CTA relaunches (reset, not reallocated, in
     * launchCta). The Scoreboard alone is ~4 KB, which is exactly why
     * the hot per-warp fields live in the parallel arrays below
     * instead of here (DESIGN.md Section 12): with them embedded, two
     * consecutive warps' ready cycles were ~5 KB apart and every
     * scheduler touch was a guaranteed L1 miss.
     */
    struct WarpCold
    {
        InstrStream stream;
        Scoreboard sb;
        WarpRegFile rf;
        u32 ctaSlot = 0;
        u64 warpGlobalId = 0;
    };

    /**
     * Bits of hotFlags_[w] — the warp's entire scheduler-visible
     * boolean state in one byte, so the whole SM's flag set (≤64
     * warps) fits in a single cache line.
     */
    enum : u8 {
        kWfResident = 1u << 0,
        kWfAtBarrier = 1u << 1,

        /**
         * Cached readiness of the stream head (DESIGN.md Section 9),
         * valid only while kWfCacheValid: the head and its scoreboard
         * entries can change only through this warp's own issue (pop +
         * setPending), a load completion (clearPending), or a CTA
         * relaunch, and each of those sites clears the flag. HeadNull
         * and DependsLL mirror the refresh outcome for housekeeping
         * (retire vs. deschedule) and wakeup-eligibility decisions.
         */
        kWfHeadNull = 1u << 2,
        kWfDependsLL = 1u << 3,
        kWfCacheValid = 1u << 4,

        /** Queued in checkList_ for the next housekeeping pass? */
        kWfDirty = 1u << 5,
    };

    /**
     * Fixed-capacity ring of warp indices awaiting housekeeping.
     * Capacity is the warp count rounded up to a power of two;
     * entries are deduplicated by kWfDirty before pushing, so the
     * ring can never overflow. A ring rather than a vector so the
     * housekeeping queue owns exactly one small allocation for the
     * whole run and drains without touching capacity bookkeeping.
     */
    class IndexRing
    {
      public:
        void
        reset(u32 minCapacity)
        {
            u32 cap = 1;
            while (cap < minCapacity)
                cap <<= 1;
            buf_.assign(cap, 0);
            mask_ = cap - 1;
            head_ = 0;
            size_ = 0;
        }

        void
        push(u32 v)
        {
            buf_[(head_ + size_) & mask_] = v;
            ++size_;
        }

        u32 size() const { return size_; }
        bool empty() const { return size_ == 0; }
        u32 at(u32 i) const { return buf_[(head_ + i) & mask_]; }

        void
        clear()
        {
            head_ = (head_ + size_) & mask_;
            size_ = 0;
        }

      private:
        std::vector<u32> buf_;
        u32 mask_ = 0;
        u32 head_ = 0;
        u32 size_ = 0;
    };

    struct CtaSlot
    {
        std::vector<u32> warps; // warp slot indices
        u32 warpsRemaining = 0;
        u32 barrierWaiting = 0;
        bool occupied = false;
    };

    struct LoadEvent
    {
        Cycle at;
        u32 warp;
        u32 gen;
        RegId reg;

        /**
         * Strict total order so the heap's pop order is a function of
         * the event multiset alone, never of insertion history. The
         * deferred-DRAM engine pushes the same events at a different
         * time than the immediate engine (at the weave instead of at
         * issue), so anything weaker would let same-cycle wakeups
         * drain in engine-dependent order.
         */
        bool
        operator>(const LoadEvent& o) const
        {
            if (at != o.at)
                return at > o.at;
            if (warp != o.warp)
                return warp > o.warp;
            if (gen != o.gen)
                return gen > o.gen;
            return reg > o.reg;
        }
    };

    void launchCta(u32 ctaSlot);

    /**
     * Wake warps whose loads completed. The empty/not-yet-due check is
     * inline so the per-cycle fast path costs two compares, not a call.
     */
    void
    processEvents()
    {
        if (!events_.empty() && events_.top().at <= now_)
            drainDueEvents();
    }

    void drainDueEvents();
    void housekeeping();
    bool warpReady(u32 w);
    void issue(u32 w);
    void retireWarp(u32 w);
    void releaseBarrier(CtaSlot& cta);
    Cycle nextInterestingCycle();

    /** Recompute warp @p w's hot readiness from its stream/scoreboard. */
    void refreshReadyCache(u32 w);

    /** Queue @p w for the next housekeeping pass (deduplicated). */
    void
    markDirty(u32 w)
    {
        if (!(hotFlags_[w] & kWfDirty)) {
            hotFlags_[w] |= kWfDirty;
            checkList_.push(w);
        }
    }

    void execCompute(u32 w, const WarpInstr& in, Cycle issueAt);
    void execShared(u32 w, const WarpInstr& in, Cycle issueAt,
                    const ConflictOutcome& co);
    /** Walks the lines issue() left in coalesceScratch_. */
    void execGlobal(u32 w, const WarpInstr& in, Cycle issueAt);
    void execTexture(u32 w, const WarpInstr& in, Cycle issueAt);
    void execBarrier(u32 w);

    SmRunConfig cfg_;
    const KernelModel& kernel_;

    /** Hoisted kernel_.params() — hot members read it every launch. */
    const KernelParams& kp_;

    ConflictModel conflicts_;

    /**
     * Conflict outcomes of ops that touch no data banks (ALU/SFU/
     * texture), indexed by mrfSignature: such an outcome depends on
     * nothing else, so each signature is evaluated once per run.
     */
    struct ComputeOutcome
    {
        ConflictOutcome outcome{};
        bool valid = false;
    };
    std::array<ComputeOutcome, 256> computeOutcomes_{};
    FootprintStats footprintStats_;
    TwoLevelScheduler sched_;
    DataCache cache_;
    DramModel ownDram_;
    DramModel ownTexDram_;
    /** Non-null in chip mode: record DRAM traffic instead of timing it. */
    DramRequestQueue* queue_;
    TexUnit tex_;

    /**
     * Struct-of-arrays hot state, indexed by warp slot (DESIGN.md
     * Section 12). hotReady_[w] is the *scan key*: the cached ready
     * cycle of the head, or kCycleNever when the head is null or
     * depends on a pending long-latency load. Both the issue-side
     * readiness test and the idle-jump scan reduce to comparing this
     * one contiguous Cycle array against now_; at the maximum 64
     * warps the keys span four cache lines and the flag bytes one.
     */
    std::vector<Cycle> hotReady_;
    std::vector<u8> hotFlags_;

    /** Warp instance generation — filters stale in-flight events. */
    std::vector<u32> hotGen_;

    std::vector<WarpCold> cold_;
    std::vector<CtaSlot> ctas_;

    std::priority_queue<LoadEvent, std::vector<LoadEvent>,
                        std::greater<LoadEvent>>
        events_;

    Cycle now_ = 0;
    Cycle issueFreeAt_ = 0;
    Cycle memPortFreeAt_ = 0;
    Cycle tagFreeAt_ = 0;
    Cycle lastCompletion_ = 0;

    u32 nextCta_ = 0;
    u32 residentWarps_ = 0;
    bool started_ = false;
    bool finalized_ = false;

    /**
     * Livelock guard: iterations of the advance loop since the local
     * clock last moved. Every legitimate path advances now_ within a
     * handful of iterations, so the counter resets constantly; unlike a
     * cumulative cycle budget it cannot trip on long kernels or on many
     * interleaved bounded advance(limit) calls (chip co-simulation).
     */
    u64 guardNoProgress_ = 0;
    u64 guardPeak_ = 0;
    Cycle guardLastNow_ = 0;

    /** Warps needing a housekeeping look (just issued or activated). */
    IndexRing checkList_;

    /** Activation sink the scheduler appends to (drained each pass). */
    std::vector<u32> activations_;

    /**
     * Per-cycle scratch buffers (reused, never reallocated when hot).
     * coalesceScratch_ holds the issuing data-bank op's lines.
     */
    std::vector<u32> activeScratch_;
    std::vector<CoalescedAccess> coalesceScratch_;

    std::vector<IssueRecord>* issueTrace_ = nullptr;

    SmStats stats_;
};

/** Convenience: build the config from an allocation and run. */
SmStats runKernel(const SmRunConfig& cfg, const KernelModel& kernel);

} // namespace unimem

#endif // UNIMEM_SM_SM_HH
