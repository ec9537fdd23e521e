#include "sm/chip.hh"

#include <algorithm>

#include "common/log.hh"

namespace unimem {

Cycle
ChipStats::maxSmCycles() const
{
    Cycle m = 0;
    for (const SmStats& s : sms)
        m = std::max(m, s.cycles);
    return m;
}

Cycle
ChipStats::minSmCycles() const
{
    Cycle m = kCycleNever;
    for (const SmStats& s : sms)
        m = std::min(m, s.cycles);
    return m;
}

double
ChipStats::loadImbalance() const
{
    if (sms.empty())
        return 0.0;
    double sum = 0.0;
    for (const SmStats& s : sms)
        sum += static_cast<double>(s.cycles);
    double mean = sum / static_cast<double>(sms.size());
    if (mean <= 0.0)
        return 0.0;
    return static_cast<double>(maxSmCycles()) / mean - 1.0;
}

double
ChipStats::quantumUtilization() const
{
    u64 total = smQuantaRun + smQuantaSkipped;
    return total == 0
               ? 0.0
               : static_cast<double>(smQuantaRun) /
                     static_cast<double>(total);
}

namespace {

/** Runs before the DRAM members, which --sms=0 would give 0 B/cycle. */
const ChipConfig&
checkedConfig(const ChipConfig& cfg)
{
    if (cfg.numSms == 0)
        fatal("ChipModel: zero SMs");
    if (cfg.numSms > ChipConfig::kMaxSms)
        fatal("ChipModel: %u SMs, at most %u", cfg.numSms,
              ChipConfig::kMaxSms);
    if (cfg.quantum == 0)
        fatal("ChipModel: zero quantum");
    return cfg;
}

} // namespace

ChipModel::ChipModel(const ChipConfig& cfg, const KernelModel& kernel)
    : cfg_(checkedConfig(cfg)),
      dram_(cfg.chipDramBytesPerCycle, cfg.sm.lat.dram),
      texDram_(cfg.chipDramBytesPerCycle, cfg.sm.lat.dram)
{
    for (u32 i = 0; i < cfg_.numSms; ++i) {
        queues_.push_back(
            std::make_unique<DramRequestQueue>(cfg_.sm.lat.dram));
        SmRunConfig sm_cfg = cfg_.sm;
        sm_cfg.seed = cfg_.sm.seed + i; // per-SM-distinct traces
        sms_.push_back(std::make_unique<SmModel>(sm_cfg, kernel,
                                                 queues_.back().get()));
    }
}

ChipModel::~ChipModel() = default;

void
ChipModel::weave()
{
    // Canonical replay order: by issue cycle, ties by smId, ties within
    // one SM in record order (the merge array is built in smId order
    // and the sort is stable). Per-SM record order is nondecreasing in
    // cycle per channel, so for a single SM the replay is exactly the
    // immediate engine's call sequence — the basis of the 1-SM
    // exactness invariant. The two channels share one sorted pass but
    // hit independent DramModels.
    merge_.clear();
    for (u32 i = 0; i < cfg_.numSms; ++i) {
        const std::vector<DramRequest>& reqs = queues_[i]->requests();
        for (u32 r = 0; r < reqs.size(); ++r)
            merge_.push_back(MergeRef{reqs[r].at, i, r});
    }
    if (!merge_.empty()) {
        std::stable_sort(merge_.begin(), merge_.end(),
                         [](const MergeRef& a, const MergeRef& b) {
                             if (a.at != b.at)
                                 return a.at < b.at;
                             return a.sm < b.sm;
                         });
        for (const MergeRef& m : merge_) {
            const DramRequest& rq = queues_[m.sm]->requests()[m.idx];
            DramModel& ch =
                rq.channel == kTexDramChannel ? texDram_ : dram_;
            Cycle done = rq.isRead ? ch.read(rq.at, rq.sectors)
                                   : ch.write(rq.at, rq.sectors);
            stats_.perSmDramSectors[m.sm] += rq.sectors;
            if (rq.group != kNoGroup) {
                DeferredGroup& g = queues_[m.sm]->groups()[rq.group];
                Cycle c = done + g.extra;
                if (c > g.result)
                    g.result = c;
            } else if (rq.trackDrain) {
                sms_[m.sm]->noteDrain(done);
            }
        }
        stats_.weaveRequests += merge_.size();
    }

    // Deliver resolved completions per SM in record (program) order —
    // the order the immediate engine would have pushed the events in.
    for (u32 i = 0; i < cfg_.numSms; ++i) {
        for (DeferredGroup& g : queues_[i]->groups()) {
            Cycle result = std::max(g.known, g.result);
            if (g.wake)
                sms_[i]->deliverLoad(g.warp, g.gen, g.reg, result,
                                     g.placeholder, g.trackCompletion);
            else if (g.trackCompletion)
                sms_[i]->noteDrain(result);
        }
        queues_[i]->clearReplayed();
    }
}

const ChipStats&
ChipModel::run()
{
    if (ran_)
        panic("ChipModel::run called twice");
    ran_ = true;

    for (auto& sm : sms_)
        sm->start();

    stats_.perSmDramSectors.assign(cfg_.numSms, 0);

    Cycle window_end = cfg_.quantum;
    const u64 guard_limit = 2ull * 1000 * 1000 * 1000;
    u64 guard = 0;

    for (;;) {
        // ---- one window: bound sub-rounds + weave to a fixpoint ----
        // An SM stops short of the window end when an unresolved
        // deferred completion fences it: either the fence itself lies
        // inside the window (quantum > DRAM latency), or every warp
        // waits on a deferred load and nothing else is left to do
        // before the weave (any quantum). Such an SM gets another pass
        // once the weave has resolved its loads.
        bool first_pass = true;
        for (;;) {
            // SMs only touch their own queue here, so advancing them
            // one by one in smId order equals any interleaving.
            u64 ran = 0;
            for (auto& sm : sms_) {
                if (sm->finished())
                    continue;
                if (sm->now() >= window_end) {
                    if (first_pass)
                        ++stats_.smQuantaSkipped;
                    continue;
                }
                sm->advance(window_end);
                ++ran;
                if (!sm->finished() && sm->now() < window_end)
                    stats_.weaveStallCycles += window_end - sm->now();
            }
            if (first_pass)
                stats_.smQuantaRun += ran;
            first_pass = false;
            if (ran == 0)
                break;
            if (++guard > guard_limit)
                panic("ChipModel: window guard tripped");
            ++stats_.boundPasses;
            weave();
        }
        ++stats_.windows;

        // Every queue is empty after the weave; find where to go next.
        bool any_unfinished = false;
        Cycle min_now = kCycleNever;
        for (auto& sm : sms_) {
            if (!sm->finished()) {
                any_unfinished = true;
                min_now = std::min(min_now, sm->now());
            }
        }
        if (!any_unfinished)
            break;

        // Fast-forward over empty windows (all unfinished SMs overshot
        // this window via idle jumps): hop along the quantum grid so
        // the skipped windows — which would record no traffic — cost
        // nothing. Staying on the grid keeps results identical to
        // stepping them one by one.
        window_end += cfg_.quantum;
        if (min_now >= window_end) {
            u64 skip = (min_now - window_end) / cfg_.quantum;
            window_end += skip * cfg_.quantum;
        }
    }

    Cycle max_cycles = 0;
    for (auto& sm : sms_) {
        stats_.sms.push_back(sm->finalize());
        max_cycles = std::max(max_cycles, stats_.sms.back().cycles);
    }
    stats_.cycles =
        std::max({max_cycles, dram_.nextFree(), texDram_.nextFree()});
    stats_.dram = dram_.stats();
    stats_.texDram = texDram_.stats();
    return stats_;
}

} // namespace unimem
