/**
 * @file
 * Per-cycle reference model of one SM: the executable spec SmModel must
 * equal.
 *
 * SmModel::advance is event driven. It caches each warp's readiness,
 * queues only the warps that can need housekeeping, jumps the clock
 * over idle stretches, fuses the port-busy cycle into issue, and
 * replays memoized conflict outcomes from the footprint cache. This
 * model has none of that. Every loop iteration
 *   1. drains the due load events in (at, warp, gen, reg) order;
 *   2. housekeeps a snapshot of the active list, recomputing each
 *      warp's readiness from Scoreboard::readyInfo: a null head
 *      retires, a head that depends on a long-latency value flushes
 *      its LRF/ORF and is descheduled;
 *   3. if the issue port is free and the round-robin pick finds a ready
 *      warp, issues it and repeats at the same cycle; otherwise it
 *      advances the clock by exactly one cycle.
 *
 * It drives the same component classes as SmModel (TwoLevelScheduler,
 * Scoreboard, WarpRegFile, ConflictModel, coalesce, DataCache,
 * DramModel, TexUnit, InstrStream with SpillInjector), so a difference
 * between the two can only come from the loop. Single SM with private
 * DRAM only: chip mode is tied to runKernel at one SM by test_chip.
 *
 * Test-only: tests/test_reference_sm is its one user.
 */

#ifndef UNIMEM_TESTS_REFERENCE_SM_HH
#define UNIMEM_TESTS_REFERENCE_SM_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "arch/kernel_model.hh"
#include "arch/spill_injector.hh"
#include "common/log.hh"
#include "core/conflict_model.hh"
#include "mem/coalescer.hh"
#include "sched/scoreboard.hh"
#include "sm/sm.hh"
#include "sm/tex_unit.hh"

namespace unimem {

class ReferenceSm
{
  public:
    ReferenceSm(const SmRunConfig& cfg, const KernelModel& kernel)
        : cfg_(cfg), kernel_(kernel), kp_(kernel.params()),
          conflicts_(cfg.design, cfg.aggressiveUnified),
          sched_(cfg.activeSetSize),
          cache_(cfg.partition.cacheBytes, 4, cfg.cachePolicy),
          dram_(cfg.dramBytesPerCycle, cfg.lat.dram),
          texDram_(cfg.dramBytesPerCycle, cfg.lat.dram),
          tex_(cfg.texCacheBytes, cfg.lat.texture, &texDram_),
          warps_(cfg.launch.ctas * kernel.params().warpsPerCta()),
          ctas_(cfg.launch.ctas)
    {
        if (!cfg_.launch.feasible)
            fatal("ReferenceSm: infeasible launch for kernel %s",
                  kp_.name.c_str());
    }

    /** Record every issue into @p sink, as SmModel::setIssueTrace. */
    void setIssueTrace(std::vector<SmModel::IssueRecord>* sink)
    {
        trace_ = sink;
    }

    /** Run the whole grid share; panics on a deadlock. */
    const SmStats&
    run()
    {
        for (u32 c = 0; c < ctas_.size() && nextCta_ < kp_.gridCtas; ++c)
            launchCta(c);
        while (resident_ > 0) {
            bool changed = drainEvents();
            changed |= housekeep();
            if (resident_ == 0)
                break;
            u32 w = TwoLevelScheduler::kNone;
            if (issueFreeAt_ <= now_)
                w = sched_.pickIssue([this](u32 c) { return ready(c); });
            if (w != TwoLevelScheduler::kNone) {
                issue(w);
                continue; // same cycle: the issued warp may need housekeeping
            }
            // Nothing changed and nothing can: no load in flight, the
            // port is free, and every active warp was just housekept (so
            // each one left active has a finite ready cycle).
            if (!changed && events_.empty() && issueFreeAt_ <= now_ &&
                sched_.activeWarps().empty())
                panic("ReferenceSm: deadlock with %u resident warps",
                      resident_);
            ++now_;
        }
        stats_.cycles = std::max({now_, lastCompletion_, dram_.nextFree(),
                                  texDram_.nextFree()});
        stats_.dirtyLinesAtEnd = cache_.dirtyLineCount();
        stats_.cache = cache_.stats();
        stats_.dram = dram_.stats();
        stats_.texDram = texDram_.stats();
        stats_.sched = sched_.stats();
        return stats_;
    }

  private:
    struct Warp
    {
        InstrStream stream;
        Scoreboard sb;
        WarpRegFile rf;
        u32 cta = 0;
        u64 gid = 0;
        u32 gen = 0;
        bool resident = false;
        bool atBarrier = false;
    };

    /** CTA slot c holds warp slots c * warpsPerCta() + i. */
    struct Cta
    {
        u32 remaining = 0;
        u32 atBarrier = 0;
    };

    void
    launchCta(u32 c)
    {
        Cta& cta = ctas_[c];
        const u32 wpc = kp_.warpsPerCta();
        const u32 cta_id = nextCta_++;
        cta.remaining = wpc;
        cta.atBarrier = 0;
        SpillConfig spill;
        spill.neededRegs = kp_.regsPerThread;
        spill.allocatedRegs = cfg_.launch.regsPerThread;
        spill.multiplier = cfg_.launch.spillMultiplier;
        RfHierarchyConfig rf;
        rf.enabled = cfg_.rfHierarchy;
        for (u32 i = 0; i < wpc; ++i) {
            const u32 w = c * wpc + i;
            Warp& wp = warps_[w];
            WarpCtx ctx;
            ctx.ctaId = cta_id;
            ctx.warpInCta = i;
            ctx.warpsPerCta = wpc;
            ctx.threadsPerCta = kp_.ctaThreads;
            ctx.seed = cfg_.seed;
            wp.gid = static_cast<u64>(cta_id) * wpc + i;
            // Always wrapped: with nothing to spill the injector must be
            // a pass-through, which SmModel relies on when it leaves it
            // out.
            wp.stream.reset(std::make_unique<SpillInjector>(
                kernel_.warpProgram(ctx), spill, wp.gid));
            wp.sb.reset();
            wp.rf.reset(rf, w);
            wp.cta = c;
            ++wp.gen;
            wp.resident = true;
            wp.atBarrier = false;
            sched_.addWarp(w);
            ++resident_;
        }
    }

    void
    retire(u32 w)
    {
        Warp& wp = warps_[w];
        stats_.rf.merge(wp.rf.counts());
        sched_.retire(w);
        wp.resident = false;
        wp.stream.release();
        ++wp.gen; // in-flight loads of this instance are now stale
        --resident_;
        if (--ctas_[wp.cta].remaining == 0) {
            ++stats_.ctasExecuted;
            if (nextCta_ < kp_.gridCtas)
                launchCta(wp.cta);
        }
    }

    bool
    drainEvents()
    {
        bool drained = false;
        while (!events_.empty() && std::get<0>(events_.top()) <= now_) {
            const auto [at, w, gen, reg] = events_.top();
            events_.pop();
            drained = true;
            Warp& wp = warps_[w];
            if (wp.gen != gen || !wp.resident)
                continue;
            wp.sb.clearPending(reg);
            if (wp.atBarrier || sched_.isActive(w))
                continue;
            const WarpInstr* head = wp.stream.peek();
            if (head == nullptr || !wp.sb.readyInfo(*head).longLatency)
                sched_.signalEligible(w);
        }
        return drained;
    }

    bool
    housekeep()
    {
        bool acted = false;
        const std::vector<u32> snapshot = sched_.activeWarps();
        for (u32 w : snapshot) {
            Warp& wp = warps_[w];
            const WarpInstr* head = wp.stream.peek();
            if (head == nullptr) {
                retire(w);
                acted = true;
            } else if (wp.sb.readyInfo(*head).longLatency) {
                // All live values must reside in the MRF while inactive.
                wp.rf.flushToMrf();
                sched_.deschedule(w);
                acted = true;
            }
        }
        return acted;
    }

    bool
    ready(u32 w)
    {
        Warp& wp = warps_[w];
        const WarpInstr* head = wp.stream.peek();
        if (head == nullptr)
            return false;
        const Scoreboard::ReadyInfo info = wp.sb.readyInfo(*head);
        return !info.longLatency && info.readyAt <= now_;
    }

    /** A long-latency producer also schedules its wakeup event. */
    void
    setPending(u32 w, RegId r, Cycle at, bool longLatency)
    {
        if (r == kInvalidReg)
            return;
        warps_[w].sb.setPending(r, at, longLatency);
        lastCompletion_ = std::max(lastCompletion_, at);
        if (longLatency)
            events_.push({at, w, warps_[w].gen, r});
    }

    void
    execBarrier(u32 w)
    {
        Warp& wp = warps_[w];
        Cta& cta = ctas_[wp.cta];
        ++stats_.barriers;
        wp.atBarrier = true;
        wp.rf.flushToMrf();
        sched_.deschedule(w);
        if (++cta.atBarrier != cta.remaining)
            return;
        cta.atBarrier = 0;
        const u32 wpc = kp_.warpsPerCta();
        for (u32 x = wp.cta * wpc; x < (wp.cta + 1) * wpc; ++x) {
            if (warps_[x].resident && warps_[x].atBarrier) {
                warps_[x].atBarrier = false;
                sched_.signalEligible(x);
            }
        }
    }

    void
    execGlobal(u32 w, const WarpInstr& in, Cycle at)
    {
        const std::vector<CoalescedAccess> lines = coalesce(in);
        if (lines.empty())
            return;
        const bool load = isLoad(in.op);
        constexpr u32 kLineSectors = kCacheLineBytes / kDramSectorBytes;
        constexpr u64 kChunk = kUnifiedBankWidth;
        Cycle tag = std::max(at, tagFreeAt_);
        Cycle completion = 0;
        for (const CoalescedAccess& acc : lines) {
            tag += 1; // single-ported tag array
            const u64 hit_bytes = cfg_.design == DesignKind::Unified
                                      ? (acc.bytesTouched + kChunk - 1) /
                                            kChunk * kChunk
                                      : kCacheLineBytes;
            if (load && cache_.enabled()) {
                if (cache_.read(acc.lineAddr)) {
                    completion =
                        std::max(completion, tag + cfg_.lat.cacheHit);
                    stats_.cacheReadBytes += hit_bytes;
                } else {
                    completion =
                        std::max(completion, dram_.read(tag, kLineSectors));
                    if (cache_.fill(acc.lineAddr)) // dirty victim drains
                        dram_.write(tag, kLineSectors);
                    stats_.cacheWriteBytes += kCacheLineBytes;
                }
            } else if (load) {
                completion =
                    std::max(completion, dram_.read(tag, acc.numSectors()));
            } else if (cfg_.cachePolicy == WritePolicy::WriteBack &&
                       cache_.enabled()) {
                if (cache_.write(acc.lineAddr)) {
                    stats_.cacheWriteBytes += hit_bytes;
                } else { // write-allocate
                    lastCompletion_ = std::max(
                        lastCompletion_, dram_.read(tag, kLineSectors));
                    if (cache_.fill(acc.lineAddr))
                        dram_.write(tag, kLineSectors);
                    cache_.markDirty(acc.lineAddr);
                    stats_.cacheWriteBytes += kCacheLineBytes + hit_bytes;
                }
            } else { // write-through, no write-allocate
                if (cache_.enabled() && cache_.write(acc.lineAddr))
                    stats_.cacheWriteBytes += hit_bytes;
                lastCompletion_ = std::max(
                    lastCompletion_, dram_.write(tag, acc.numSectors()));
            }
        }
        tagFreeAt_ = tag;
        stats_.tagSerializationCycles += lines.size() - 1;
        if (load)
            setPending(w, in.dst, completion, true);
    }

    void
    issue(u32 w)
    {
        Warp& wp = warps_[w];
        const WarpInstr in = *wp.stream.peek();
        wp.stream.pop();
        if (trace_ != nullptr)
            trace_->push_back({now_, w, wp.gid, in.op});
        ++stats_.warpInstrs;
        stats_.threadInstrs += in.numActive();
        ++stats_.issuedByOp[static_cast<size_t>(in.op)];
        if (in.op == Opcode::Bar) {
            stats_.conflictHist.record(0);
            issueFreeAt_ = now_ + 1;
            execBarrier(w);
            return;
        }

        // Long-latency load results bypass the LRF/ORF.
        u8 banks[3];
        const u32 num_mrf = wp.rf.accessOperands(
            in, isLoad(in.op) && isLongLatency(in.op), banks);
        const ConflictOutcome co = conflicts_.evaluate(in, banks, num_mrf);
        stats_.conflictHist.record(co.maxPerBank);
        const u32 reg_pen = cfg_.conflictPenalties ? co.regPenalty : 0;
        const u32 mem_pen =
            cfg_.conflictPenalties ? co.penalty - co.regPenalty : 0;
        stats_.conflictPenaltyCycles += reg_pen + mem_pen;

        // Operand bank conflicts stall issue; data bank conflicts occupy
        // the memory access port.
        issueFreeAt_ = now_ + 1 + reg_pen;
        Cycle exec_at = now_;
        if (isMemOp(in.op) && in.op != Opcode::Tex) {
            const Cycle start = std::max(now_, memPortFreeAt_);
            memPortFreeAt_ = start + 1 + mem_pen;
            exec_at = start + mem_pen;
        }

        switch (in.op) {
          case Opcode::IntAlu:
          case Opcode::FpAlu:
          case Opcode::Sfu:
            setPending(w, in.dst,
                       now_ + (in.op == Opcode::Sfu ? cfg_.lat.sfu
                                                    : cfg_.lat.alu),
                       false);
            break;
          case Opcode::LdShared:
          case Opcode::StShared: {
            const u64 bytes =
                cfg_.design == DesignKind::Unified
                    ? static_cast<u64>(co.distinctChunks) * kUnifiedBankWidth
                    : static_cast<u64>(co.distinctWords) *
                          kPartitionedBankWidth;
            if (in.op == Opcode::LdShared) {
                stats_.sharedReadBytes += bytes;
                setPending(w, in.dst, exec_at + cfg_.lat.sharedMem, false);
            } else {
                stats_.sharedWriteBytes += bytes;
            }
            break;
          }
          case Opcode::LdGlobal:
          case Opcode::StGlobal:
          case Opcode::LdLocal:
          case Opcode::StLocal:
            execGlobal(w, in, exec_at);
            break;
          case Opcode::Tex: {
            const Cycle done = tex_.access(now_, in);
            lastCompletion_ = std::max(lastCompletion_, done);
            setPending(w, in.dst, done, true);
            break;
          }
          case Opcode::Bar:
            break; // handled above
        }
        if (wp.stream.exhausted())
            retire(w);
    }

    SmRunConfig cfg_;
    const KernelModel& kernel_;
    const KernelParams& kp_;
    ConflictModel conflicts_;
    TwoLevelScheduler sched_;
    DataCache cache_;
    DramModel dram_;
    DramModel texDram_;
    TexUnit tex_;

    std::vector<Warp> warps_;
    std::vector<Cta> ctas_;

    /** (at, warp, gen, reg): the tuple order is the drain order. */
    std::priority_queue<std::tuple<Cycle, u32, u32, RegId>,
                        std::vector<std::tuple<Cycle, u32, u32, RegId>>,
                        std::greater<>>
        events_;

    Cycle now_ = 0;
    Cycle issueFreeAt_ = 0;
    Cycle memPortFreeAt_ = 0;
    Cycle tagFreeAt_ = 0;
    Cycle lastCompletion_ = 0;
    u32 nextCta_ = 0;
    u32 resident_ = 0;

    std::vector<SmModel::IssueRecord>* trace_ = nullptr;
    SmStats stats_;
};

} // namespace unimem

#endif // UNIMEM_TESTS_REFERENCE_SM_HH
