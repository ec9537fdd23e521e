#include "sm/sm.hh"

#include <algorithm>

#include "arch/spill_injector.hh"
#include "common/log.hh"
#include "mem/coalescer.hh"

namespace unimem {

SmModel::SmModel(const SmRunConfig& cfg, const KernelModel& kernel,
                 DramRequestQueue* chipQueue)
    : cfg_(cfg), kernel_(kernel), kp_(kernel.params()),
      conflicts_(cfg.design, cfg.aggressiveUnified),
      sched_(cfg.activeSetSize),
      cache_(cfg.partition.cacheBytes, 4, cfg.cachePolicy),
      ownDram_(cfg.dramBytesPerCycle, cfg.lat.dram),
      ownTexDram_(cfg.dramBytesPerCycle, cfg.lat.dram),
      queue_(chipQueue),
      tex_(cfg.texCacheBytes, cfg.lat.texture, &ownTexDram_)
{
    kp_.validate();
    if (!cfg_.launch.feasible)
        fatal("SmModel: infeasible launch for kernel %s",
              kp_.name.c_str());

    u32 warps_per_cta = kp_.warpsPerCta();
    u32 num_warps = cfg_.launch.ctas * warps_per_cta;
    if (num_warps == 0 || num_warps > kMaxWarpsPerSm)
        fatal("SmModel: %u resident warps out of range", num_warps);

    hotReady_.assign(num_warps, 0);
    hotFlags_.assign(num_warps, 0);
    hotGen_.assign(num_warps, 0);
    cold_.resize(num_warps);
    ctas_.resize(cfg_.launch.ctas);
    for (u32 c = 0; c < cfg_.launch.ctas; ++c) {
        ctas_[c].warps.reserve(warps_per_cta);
        for (u32 w = 0; w < warps_per_cta; ++w)
            ctas_[c].warps.push_back(c * warps_per_cta + w);
    }
    activeScratch_.reserve(cfg_.activeSetSize);
    coalesceScratch_.reserve(kWarpWidth);
    checkList_.reset(num_warps);
    activations_.reserve(num_warps);
    sched_.setActivationSink(&activations_);
}

void
SmModel::launchCta(u32 ctaSlot)
{
    CtaSlot& cta = ctas_[ctaSlot];
    const u32 warps_per_cta = kp_.warpsPerCta();

    u32 cta_id = nextCta_++;
    cta.occupied = true;
    cta.warpsRemaining = warps_per_cta;
    cta.barrierWaiting = 0;

    SpillConfig spill;
    spill.neededRegs = kp_.regsPerThread;
    spill.allocatedRegs = cfg_.launch.regsPerThread;
    spill.multiplier = cfg_.launch.spillMultiplier;

    // When the launch allocates the full register budget and the curve
    // injects nothing, the SpillInjector is a pure pass-through; skip
    // the wrapper (and its per-chunk copy) entirely.
    const bool needs_spill =
        spill.active() || spill.allocatedRegs < spill.neededRegs;

    RfHierarchyConfig rf_cfg;
    rf_cfg.enabled = cfg_.rfHierarchy;

    for (u32 i = 0; i < cta.warps.size(); ++i) {
        u32 slot = cta.warps[i];
        WarpCold& wc = cold_[slot];

        WarpCtx ctx;
        ctx.ctaId = cta_id;
        ctx.warpInCta = i;
        ctx.warpsPerCta = warps_per_cta;
        ctx.threadsPerCta = kp_.ctaThreads;
        ctx.seed = cfg_.seed;

        u64 warp_gid = static_cast<u64>(cta_id) * warps_per_cta + i;
        std::unique_ptr<WarpProgram> prog = kernel_.warpProgram(ctx);
        if (needs_spill)
            prog = std::make_unique<SpillInjector>(std::move(prog),
                                                   spill, warp_gid);

        wc.stream.reset(std::move(prog));
        wc.sb.reset();
        wc.rf.reset(rf_cfg, slot);
        wc.ctaSlot = ctaSlot;
        wc.warpGlobalId = warp_gid;
        ++hotGen_[slot];
        // Resident, not at a barrier, readiness cache invalid; a still
        // pending dirty mark survives the relaunch (the ring entry is
        // live, so the flag must stay in sync with it).
        hotFlags_[slot] = (hotFlags_[slot] & kWfDirty) | kWfResident;

        sched_.addWarp(slot);
        ++residentWarps_;
    }
}

void
SmModel::retireWarp(u32 w)
{
    WarpCold& wc = cold_[w];
    stats_.rf.merge(wc.rf.counts());
    sched_.retire(w);
    hotFlags_[w] &= ~kWfResident;
    wc.stream.release();
    ++hotGen_[w]; // invalidate in-flight load events
    --residentWarps_;

    CtaSlot& cta = ctas_[wc.ctaSlot];
    if (--cta.warpsRemaining == 0) {
        cta.occupied = false;
        ++stats_.ctasExecuted;
        if (nextCta_ < kp_.gridCtas)
            launchCta(wc.ctaSlot);
    }
}

void
SmModel::drainDueEvents()
{
    // Caller (the inline processEvents) has already established that
    // at least one event is due.
    do {
        LoadEvent ev = events_.top();
        events_.pop();
        if (hotGen_[ev.warp] != ev.gen ||
            !(hotFlags_[ev.warp] & kWfResident))
            continue;
        cold_[ev.warp].sb.clearPending(ev.reg);
        // clearPending can flip the head's long-latency dependence, so
        // recompute the cached readiness (eagerly: the eligibility test
        // below needs it anyway).
        refreshReadyCache(ev.warp);
        u8 f = hotFlags_[ev.warp];
        if ((f & kWfAtBarrier) || sched_.isActive(ev.warp))
            continue;
        if ((f & kWfHeadNull) || !(f & kWfDependsLL))
            sched_.signalEligible(ev.warp);
    } while (!events_.empty() && events_.top().at <= now_);
}

void
SmModel::refreshReadyCache(u32 w)
{
    WarpCold& wc = cold_[w];
    u8 f = hotFlags_[w] & ~(kWfHeadNull | kWfDependsLL);
    // Scan-key encoding: a null head and a long-latency dependence both
    // map to kCycleNever. The head contributes to the idle-jump min
    // only when neither holds (exactly the cases the old scan skipped),
    // and the issue-side test `key <= now_` matches the old
    // `!headNull && readyAt <= now_` because a long-latency dependence
    // always has readyAt > now_ wherever readiness is consulted: due
    // load events are drained (clearPending + refresh) at the top of
    // every advance iteration, before any pickIssue.
    Cycle key = kCycleNever;
    const WarpInstr* in = wc.stream.peek();
    if (in == nullptr) {
        f |= kWfHeadNull;
    } else {
        Scoreboard::ReadyInfo info = wc.sb.readyInfo(*in);
        if (info.longLatency)
            f |= kWfDependsLL;
        else
            key = info.readyAt;
    }
    hotReady_[w] = key;
    hotFlags_[w] = f | kWfCacheValid;
}

void
SmModel::housekeeping()
{
    // A warp can need attention here (exhausted stream -> retire, head
    // blocked on a long-latency load -> deschedule) only after one of
    // two events: it issued, or it entered the active set. Both sites
    // queue the warp, so instead of rescanning the whole active set
    // every iteration we examine only the queued warps — the common
    // case is an empty list and an immediate return.
    for (u32 w : activations_)
        markDirty(w);
    activations_.clear();
    if (checkList_.empty())
        return;

    // Select queued ∩ active in current active-list order — the order
    // the snapshot-based scan processed them in — into a reused scratch
    // buffer: retire and deschedule mutate the active list. Warps
    // activated during processing are queued for the next pass, exactly
    // when the snapshot-based scan would first have seen them.
    //
    // Single queued warp (the just-issued one — the common case by far)
    // needs no ordering, so skip the active-list walk.
    activeScratch_.clear();
    if (checkList_.size() == 1) {
        u32 w = checkList_.at(0);
        hotFlags_[w] &= ~kWfDirty;
        checkList_.clear();
        if (sched_.isActive(w))
            activeScratch_.push_back(w);
    } else {
        for (u32 w : sched_.activeWarps())
            if (hotFlags_[w] & kWfDirty)
                activeScratch_.push_back(w);
        for (u32 i = 0; i < checkList_.size(); ++i)
            hotFlags_[checkList_.at(i)] &= ~kWfDirty;
        checkList_.clear();
    }

    for (u32 w : activeScratch_) {
        u8 f = hotFlags_[w];
        if (!(f & kWfCacheValid)) {
            refreshReadyCache(w);
            f = hotFlags_[w];
        }
        if (f & kWfHeadNull) {
            retireWarp(w);
        } else if (f & kWfDependsLL) {
            // All live values must reside in the MRF while inactive.
            cold_[w].rf.flushToMrf();
            sched_.deschedule(w);
        }
    }
}

bool
SmModel::warpReady(u32 w)
{
    u8 f = hotFlags_[w];
    if ((f & (kWfResident | kWfAtBarrier)) != kWfResident)
        return false;
    if (!(f & kWfCacheValid))
        refreshReadyCache(w);
    return hotReady_[w] <= now_;
}

void
SmModel::releaseBarrier(CtaSlot& cta)
{
    cta.barrierWaiting = 0;
    for (u32 w : cta.warps) {
        u8& f = hotFlags_[w];
        if ((f & (kWfResident | kWfAtBarrier)) ==
            (kWfResident | kWfAtBarrier)) {
            f &= ~kWfAtBarrier;
            sched_.signalEligible(w);
        }
    }
}

void
SmModel::execBarrier(u32 w)
{
    WarpCold& wc = cold_[w];
    CtaSlot& cta = ctas_[wc.ctaSlot];
    ++stats_.barriers;

    hotFlags_[w] |= kWfAtBarrier;
    wc.rf.flushToMrf();
    sched_.deschedule(w);
    if (++cta.barrierWaiting == cta.warpsRemaining)
        releaseBarrier(cta);
}

void
SmModel::execCompute(u32 w, const WarpInstr& in, Cycle issueAt)
{
    WarpCold& wc = cold_[w];
    u32 latency = in.op == Opcode::Sfu ? cfg_.lat.sfu : cfg_.lat.alu;
    if (in.hasDst()) {
        Cycle done = issueAt + latency;
        wc.sb.setPending(in.dst, done, false);
        lastCompletion_ = std::max(lastCompletion_, done);
    }
}

void
SmModel::execShared(u32 w, const WarpInstr& in, Cycle issueAt,
                    const ConflictOutcome& co)
{
    WarpCold& wc = cold_[w];
    u64 bytes = cfg_.design == DesignKind::Unified
                    ? static_cast<u64>(co.distinctChunks) * kUnifiedBankWidth
                    : static_cast<u64>(co.distinctWords) *
                          kPartitionedBankWidth;
    if (in.op == Opcode::LdShared) {
        stats_.sharedReadBytes += bytes;
        Cycle done = issueAt + cfg_.lat.sharedMem;
        if (in.hasDst()) {
            wc.sb.setPending(in.dst, done, false);
            lastCompletion_ = std::max(lastCompletion_, done);
        }
    } else {
        stats_.sharedWriteBytes += bytes;
    }
}

void
SmModel::execGlobal(u32 w, const WarpInstr& in, Cycle issueAt)
{
    WarpCold& wc = cold_[w];
    const std::vector<CoalescedAccess>& lines = coalesceScratch_;
    if (lines.empty())
        return;

    const bool unified = cfg_.design == DesignKind::Unified;
    const bool is_load = isLoad(in.op);

    Cycle tag_time = std::max(issueAt, tagFreeAt_);
    Cycle completion = 0;

    // Deferred-DRAM mode: misses of a load some register waits on form
    // a completion group; everything else records as fire-and-forget
    // traffic. Cache state (tags, LRU, dirty bits) evolves here exactly
    // as on the immediate path — only DRAM *timing* is deferred.
    u32 group = kNoGroup;
    if (queue_ != nullptr && is_load && in.hasDst())
        group = queue_->beginGroup(w, hotGen_[w], in.dst, 0);

    for (const CoalescedAccess& acc : lines) {
        tag_time += 1; // single-ported tag array
        u64 hit_bytes =
            unified ? static_cast<u64>(
                          (acc.bytesTouched + kUnifiedBankWidth - 1) /
                          kUnifiedBankWidth) *
                          kUnifiedBankWidth
                    : kCacheLineBytes;
        constexpr u32 line_sectors = kCacheLineBytes / kDramSectorBytes;
        if (is_load) {
            if (cache_.enabled()) {
                if (cache_.read(acc.lineAddr)) {
                    completion = std::max(
                        completion, tag_time + cfg_.lat.cacheHit);
                    stats_.cacheReadBytes += hit_bytes;
                } else {
                    if (queue_ != nullptr) {
                        queue_->recordRead(kDataDramChannel, tag_time,
                                           line_sectors, group, false);
                        if (cache_.fill(acc.lineAddr)) {
                            // Dirty victim (write-back mode) drains
                            // first.
                            queue_->recordWrite(kDataDramChannel,
                                                tag_time, line_sectors,
                                                false);
                        }
                    } else {
                        Cycle ready =
                            ownDram_.read(tag_time, line_sectors);
                        if (cache_.fill(acc.lineAddr))
                            ownDram_.write(tag_time, line_sectors);
                        completion = std::max(completion, ready);
                    }
                    stats_.cacheWriteBytes += kCacheLineBytes;
                }
            } else if (queue_ != nullptr) {
                queue_->recordRead(kDataDramChannel, tag_time,
                                   acc.numSectors(), group, false);
            } else {
                Cycle ready = ownDram_.read(tag_time, acc.numSectors());
                completion = std::max(completion, ready);
            }
        } else if (cfg_.cachePolicy == WritePolicy::WriteBack &&
                   cache_.enabled()) {
            // Ablation mode: write-back with write-allocate.
            if (cache_.write(acc.lineAddr)) {
                stats_.cacheWriteBytes += hit_bytes;
            } else {
                if (queue_ != nullptr) {
                    // The fill's completion feeds only the end-of-run
                    // clock; the weave folds it in via noteDrain().
                    queue_->recordRead(kDataDramChannel, tag_time,
                                       line_sectors, kNoGroup, true);
                    if (cache_.fill(acc.lineAddr))
                        queue_->recordWrite(kDataDramChannel, tag_time,
                                            line_sectors, false);
                } else {
                    Cycle ready = ownDram_.read(tag_time, line_sectors);
                    if (cache_.fill(acc.lineAddr))
                        ownDram_.write(tag_time, line_sectors);
                    lastCompletion_ = std::max(lastCompletion_, ready);
                }
                cache_.markDirty(acc.lineAddr);
                stats_.cacheWriteBytes += kCacheLineBytes + hit_bytes;
            }
        } else {
            // Paper design: write-through, no write-allocate.
            if (cache_.enabled() && cache_.write(acc.lineAddr))
                stats_.cacheWriteBytes += hit_bytes;
            if (queue_ != nullptr) {
                queue_->recordWrite(kDataDramChannel, tag_time,
                                    acc.numSectors(), true);
            } else {
                Cycle drained =
                    ownDram_.write(tag_time, acc.numSectors());
                lastCompletion_ = std::max(lastCompletion_, drained);
            }
        }
    }
    tagFreeAt_ = tag_time;
    stats_.tagSerializationCycles += lines.size() - 1;

    if (is_load && in.hasDst()) {
        if (group != kNoGroup &&
            queue_->endGroup(group, completion, true, true)) {
            // Completion unresolved until the weave: plant the sentinel
            // (descheduling sees the same long-latency dependence the
            // real value would create) and let deliverLoad() install
            // the replayed completion plus the wakeup event.
            wc.sb.setPending(in.dst, queue_->lastPlaceholder(), true);
        } else {
            wc.sb.setPending(in.dst, completion, true);
            lastCompletion_ = std::max(lastCompletion_, completion);
            events_.push(LoadEvent{completion, w, hotGen_[w], in.dst});
        }
    }
}

void
SmModel::execTexture(u32 w, const WarpInstr& in, Cycle issueAt)
{
    WarpCold& wc = cold_[w];
    if (queue_ != nullptr) {
        u32 group = queue_->beginGroup(w, hotGen_[w], in.dst,
                                       cfg_.lat.texture / 4);
        Cycle base = tex_.accessDeferred(issueAt, in, *queue_, group);
        if (queue_->endGroup(group, base, in.hasDst(), true)) {
            if (in.hasDst())
                wc.sb.setPending(in.dst, queue_->lastPlaceholder(),
                                 true);
            return;
        }
        // Every line hit the texture cache: the pipeline latency is the
        // exact completion, no weave needed.
        lastCompletion_ = std::max(lastCompletion_, base);
        if (in.hasDst()) {
            wc.sb.setPending(in.dst, base, true);
            events_.push(LoadEvent{base, w, hotGen_[w], in.dst});
        }
        return;
    }
    Cycle done = tex_.access(issueAt, in);
    lastCompletion_ = std::max(lastCompletion_, done);
    if (in.hasDst()) {
        wc.sb.setPending(in.dst, done, true);
        events_.push(LoadEvent{done, w, hotGen_[w], in.dst});
    }
}

void
SmModel::deliverLoad(u32 warp, u32 gen, RegId reg, Cycle completion,
                     Cycle placeholder, bool trackCompletion)
{
    if (trackCompletion)
        lastCompletion_ = std::max(lastCompletion_, completion);
    // Push the wakeup even when the warp instance is gone: the
    // immediate engine's event (pushed at issue time) also outlives a
    // retired warp — it is gen-filtered at drain time but participates
    // in idle-jump targeting until then.
    events_.push(LoadEvent{completion, warp, gen, reg});
    WarpCold& wc = cold_[warp];
    if (hotGen_[warp] == gen && (hotFlags_[warp] & kWfResident) &&
        wc.sb.pendingAt(reg) == placeholder) {
        wc.sb.setPending(reg, completion, true);
        hotFlags_[warp] &= ~kWfCacheValid;
    }
}

void
SmModel::issue(u32 w)
{
    WarpCold& wc = cold_[w];
    // Reference, not a copy: pop() only bumps the chunk cursor, and the
    // buffer cannot refill before the exhausted() check at the bottom
    // (nothing below peeks this warp's stream), so `in` stays valid for
    // the whole function.
    const WarpInstr& in = *wc.stream.peek();
    wc.stream.pop();
    // New head, and the exec handlers below touch the scoreboard.
    hotFlags_[w] &= ~kWfCacheValid;

    if (issueTrace_ != nullptr)
        issueTrace_->push_back({now_, w, wc.warpGlobalId, in.op});

    ++stats_.warpInstrs;
    stats_.threadInstrs += in.numActive();
    ++stats_.issuedByOp[static_cast<size_t>(in.op)];

    if (in.op == Opcode::Bar) {
        stats_.conflictHist.record(0);
        issueFreeAt_ = now_ + 1;
        execBarrier(w);
        return;
    }

    // Operand fetch through the RF hierarchy; long-latency load results
    // bypass the LRF/ORF and land in the MRF (the warp will usually be
    // descheduled before consuming them).
    u8 mrf_banks[3];
    bool ll_load = isLoad(in.op) && isLongLatency(in.op);
    u32 num_mrf = wc.rf.accessOperands(in, ll_load, mrf_banks);

    // A data-bank op's one footprint pass serves both the conflict
    // model and, for global/local ops, execGlobal's line walk. Any other
    // op's outcome depends only on its operand-bank signature.
    ConflictOutcome co;
    const bool data_banks = isMemOp(in.op) && in.op != Opcode::Tex;
    if (data_banks) {
        coalesce(in, coalesceScratch_);
        co = conflicts_.evaluate(in, coalesceScratch_, mrf_banks, num_mrf);
    } else {
        ComputeOutcome& e =
            computeOutcomes_[mrfSignature(mrf_banks, num_mrf)];
        if (e.valid) {
            ++footprintStats_.computeHits;
        } else {
            ++footprintStats_.computeMisses;
            e.outcome = conflicts_.evaluate(in, mrf_banks, num_mrf);
            e.valid = true;
        }
        co = e.outcome;
    }
    stats_.conflictHist.record(co.maxPerBank);
    u32 reg_pen = cfg_.conflictPenalties ? co.regPenalty : 0;
    u32 mem_pen =
        cfg_.conflictPenalties ? co.penalty - co.regPenalty : 0;
    stats_.conflictPenaltyCycles += reg_pen + mem_pen;

    // Operand bank conflicts stall the issue stage; data bank conflicts
    // serialize in the memory access port (instructions from other
    // warps keep issuing behind them).
    issueFreeAt_ = now_ + 1 + reg_pen;
    Cycle exec_at = now_;
    if (data_banks) {
        Cycle start = std::max(now_, memPortFreeAt_);
        memPortFreeAt_ = start + 1 + mem_pen;
        exec_at = start + mem_pen;
    }

    switch (in.op) {
      case Opcode::IntAlu:
      case Opcode::FpAlu:
      case Opcode::Sfu:
        execCompute(w, in, now_);
        break;
      case Opcode::LdShared:
      case Opcode::StShared:
        execShared(w, in, exec_at, co);
        break;
      case Opcode::LdGlobal:
      case Opcode::StGlobal:
      case Opcode::LdLocal:
      case Opcode::StLocal:
        execGlobal(w, in, exec_at);
        break;
      case Opcode::Tex:
        execTexture(w, in, now_);
        break;
      case Opcode::Bar:
        break; // handled above
    }

    if (wc.stream.exhausted()) {
        retireWarp(w);
    } else {
        // Refresh eagerly instead of queueing for housekeeping
        // unconditionally: every event pushed above completes strictly
        // after now_, and drainDueEvents only touches its own event's
        // warp, so the scoreboard state housekeeping would have seen
        // next iteration is exactly the state right here. Housekeeping
        // acts only on a null or long-latency-blocked head (retire /
        // deschedule), so only those need the ring trip; the refreshed
        // cache is reused as-is by the next pickIssue either way.
        refreshReadyCache(w);
        if (hotFlags_[w] & (kWfHeadNull | kWfDependsLL))
            markDirty(w);
    }
}

Cycle
SmModel::nextInterestingCycle()
{
    // A warp promoted during the housekeeping pass that just ran (which
    // also drained checkList_) is housekept next iteration. If its head
    // is null or blocked on a long-latency value it will retire or
    // deschedule, which can promote another such warp: the reference SM
    // housekeeps every cycle, so that chain advances one link per cycle.
    // Its scan key is kCycleNever, so the jump below would skip the
    // chain, or report a deadlock when nothing else is pending. Any
    // other promoted warp needs no action and its key is in the scan.
    for (u32 w : activations_) {
        if (!(hotFlags_[w] & kWfCacheValid))
            refreshReadyCache(w);
        if (hotFlags_[w] & (kWfHeadNull | kWfDependsLL))
            return now_ + 1;
    }

    Cycle t = kCycleNever;
    if (!events_.empty())
        t = events_.top().at;
    if (issueFreeAt_ > now_)
        t = std::min(t, issueFreeAt_);

    // The scan reads only the flat hotReady_/hotFlags_ arrays: a null
    // head or long-latency dependence is encoded as kCycleNever, which
    // can never win the min, so no per-warp branch on those states is
    // needed.
    for (u32 w : sched_.activeWarps()) {
        u8 f = hotFlags_[w];
        if ((f & (kWfResident | kWfAtBarrier)) != kWfResident)
            continue;
        if (!(f & kWfCacheValid))
            refreshReadyCache(w);
        Cycle key = hotReady_[w];
        if (key > now_)
            t = std::min(t, key);
    }
    return t;
}

void
SmModel::start()
{
    if (started_)
        return;
    started_ = true;
    const u32 total_ctas = kp_.gridCtas;
    for (u32 c = 0; c < ctas_.size() && nextCta_ < total_ctas; ++c)
        launchCta(c);
}

Cycle
SmModel::advance(Cycle limit)
{
    if (!started_)
        panic("SmModel::advance before start");

    // Livelock guard scaled to progress, not to total loop iterations:
    // a cumulative budget accumulates across bounded advance(limit)
    // calls (chip stepping, multi-kernel apps) and would eventually
    // trip on a legitimately long run. Every well-formed path advances
    // now_ within a few iterations (issue -> issueFreeAt_ jump, or a
    // strictly increasing idle skip), so a large iteration count at one
    // clock value can only be a livelock.
    const u64 guard_limit = 1000 * 1000;

    while (residentWarps_ > 0 && now_ < limit) {
        // Deferred-DRAM fence: an unresolved load completion could land
        // as early as stallBound(), so no scheduling decision may be
        // made at or beyond it — return and let the chip weave.
        const Cycle fence =
            queue_ != nullptr ? queue_->stallBound() : kCycleNever;
        if (now_ >= fence)
            break;

        if (now_ != guardLastNow_) {
            guardLastNow_ = now_;
            guardNoProgress_ = 0;
        } else {
            // Count only repeat iterations at one clock value, and
            // track the peak on that slow path alone — the common
            // advancing iteration pays a single compare.
            if (++guardNoProgress_ > guard_limit)
                panic("SmModel: no forward progress at cycle %llu "
                      "(livelock?)",
                      static_cast<unsigned long long>(now_));
            if (guardNoProgress_ > guardPeak_)
                guardPeak_ = guardNoProgress_;
        }

        processEvents();
        if (!activations_.empty() || !checkList_.empty())
            housekeeping();
        if (residentWarps_ == 0)
            break;

        if (issueFreeAt_ > now_) {
            // nextInterestingCycle() is always > now_ (due events were
            // just drained, cached ready cycles at or before now_ are
            // excluded from the scan), so when the port frees on the
            // very next cycle the min is now_ + 1 no matter what the
            // scan would return — skip it. This removes the O(active)
            // rescan after every penalty-free issue; the clock stops at
            // exactly the same cycles either way.
            Cycle target =
                issueFreeAt_ == now_ + 1
                    ? now_ + 1
                    : std::min(issueFreeAt_, nextInterestingCycle());
            now_ = std::min(target, fence);
            continue;
        }

        u32 w = sched_.pickIssue([this](u32 cand) {
            return warpReady(cand);
        });
        if (w == TwoLevelScheduler::kNone) {
            Cycle t = nextInterestingCycle();
            if (t == kCycleNever) {
                if (fence != kCycleNever)
                    break; // everyone waits on the weave, not deadlock
                if (residentWarps_ > 0)
                    panic("SmModel: deadlock with %u resident warps "
                          "(unbalanced barriers?)",
                          residentWarps_);
                break;
            }
            now_ = std::min(std::max(t, now_ + 1), fence);
            continue;
        }
        issue(w);

        // Fused port-busy skip: after a penalty-free issue that queued
        // no warp for housekeeping, the next iteration could only
        // advance the clock one cycle — every event issue() pushed
        // completes strictly after now_, so processEvents would be a
        // no-op at this clock value. Replicating that iteration's
        // fence arithmetic here (stallBound may have moved if issue()
        // enqueued DRAM work) saves a full round of loop checks per
        // issued instruction.
        if (residentWarps_ > 0 && issueFreeAt_ == now_ + 1 &&
            activations_.empty() && checkList_.empty()) {
            const Cycle f =
                queue_ != nullptr ? queue_->stallBound() : kCycleNever;
            if (now_ >= f)
                break;
            now_ = std::min(now_ + 1, f);
        }
    }
    return now_;
}

const SmStats&
SmModel::finalize()
{
    if (!finished())
        panic("SmModel::finalize before the SM finished");
    if (finalized_)
        return stats_;
    finalized_ = true;

    // With a private DRAM its drain time belongs to this SM; in chip
    // mode the residual drain (and all DRAM statistics) live at the
    // chip's shared memory controllers.
    Cycle drain = queue_ == nullptr ? ownDram_.nextFree() : 0;
    Cycle tex_drain = queue_ == nullptr ? ownTexDram_.nextFree() : 0;
    stats_.cycles =
        std::max({now_, lastCompletion_, drain, tex_drain});
    stats_.dirtyLinesAtEnd = cache_.dirtyLineCount();
    stats_.cache = cache_.stats();
    if (queue_ == nullptr) {
        stats_.dram = ownDram_.stats();
        stats_.texDram = ownTexDram_.stats();
    }
    stats_.sched = sched_.stats();
    return stats_;
}

const SmStats&
SmModel::run()
{
    if (started_)
        panic("SmModel::run on an already started model");
    start();
    advance(kCycleNever);
    return finalize();
}

SmStats
runKernel(const SmRunConfig& cfg, const KernelModel& kernel)
{
    SmModel sm(cfg, kernel);
    return sm.run();
}

} // namespace unimem
