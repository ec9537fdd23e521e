#include "replay.hh"

#include <memory>
#include <vector>

#include "core/conflict_model.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/dram.hh"
#include "regfile/rf_hierarchy.hh"
#include "spans.hh"

namespace perfbench {

namespace {

constexpr size_t kChunk = 8192;

/** Seconds a ScopedSpan-wrapped block took. */
template <typename F>
double
timed(const char* name, F&& body)
{
    ScopedSpan s(name);
    std::int64_t t0 = Tracer::nowNs();
    body();
    return static_cast<double>(Tracer::nowNs() - t0) * 1e-9;
}

} // namespace

void
ReplayTotals::add(const ReplayTotals& o)
{
    instrs += o.instrs;
    fillS += o.fillS;
    evalsPartitioned += o.evalsPartitioned;
    partitionedS += o.partitionedS;
    evalsUnified += o.evalsUnified;
    unifiedS += o.unifiedS;
    coalesceCalls += o.coalesceCalls;
    coalescedLines += o.coalescedLines;
    coalesceS += o.coalesceS;
    cacheAccesses += o.cacheAccesses;
    cacheS += o.cacheS;
    dramRequests += o.dramRequests;
    dramS += o.dramS;
    sink += o.sink;
}

ReplayTotals
replayLayers(const KernelModel& kernel, u64 seed, u64 instrCap)
{
    ScopedSpan top("replay");
    const KernelParams& kp = kernel.params();
    const u32 warps_per_cta = kp.warpsPerCta();
    const u64 total_warps = static_cast<u64>(kp.gridCtas) * warps_per_cta;

    ConflictModel partitioned(DesignKind::Partitioned);
    ConflictModel unified(DesignKind::Unified);
    DataCache cache(baselinePartition().cacheBytes);
    DramModel dram;
    RfHierarchyConfig rf_cfg;
    WarpRegFile rf;

    std::vector<WarpInstr> buf;
    buf.reserve(kChunk + 256);
    std::vector<u32> warp_of; // warp index of each buffered instruction
    std::vector<std::array<u8, 3>> banks;
    std::vector<u8> num_banks;
    std::vector<CoalescedAccess> lines;
    std::vector<CoalescedAccess> scratch;
    std::vector<u8> line_is_load;
    struct DramReq
    {
        bool read;
        u32 sectors;
    };
    std::vector<DramReq> reqs;

    ReplayTotals t;
    u64 warp = 0;
    u32 rf_warp = ~0u;
    Cycle dram_now = 0;
    std::unique_ptr<WarpProgram> prog;

    auto next_program = [&]() {
        prog.reset();
        while (!prog && warp < total_warps) {
            WarpCtx ctx;
            ctx.ctaId = static_cast<u32>(warp / warps_per_cta);
            ctx.warpInCta = static_cast<u32>(warp % warps_per_cta);
            ctx.warpsPerCta = warps_per_cta;
            ctx.threadsPerCta = kp.ctaThreads;
            ctx.seed = seed;
            prog = kernel.warpProgram(ctx);
            ++warp;
        }
    };
    next_program();

    while (prog && t.instrs < instrCap) {
        buf.clear();
        warp_of.clear();
        t.fillS += timed("kernels.fill", [&] {
            while (prog && buf.size() < kChunk) {
                if (!prog->fill(buf))
                    next_program();
                warp_of.resize(buf.size(), static_cast<u32>(warp - 1));
            }
        });
        t.instrs += buf.size();

        banks.resize(buf.size());
        num_banks.resize(buf.size());
        timed("regfile.operands", [&] {
            for (size_t i = 0; i < buf.size(); ++i) {
                if (warp_of[i] != rf_warp) {
                    rf_warp = warp_of[i];
                    rf.reset(rf_cfg, rf_warp % kMaxWarpsPerSm);
                }
                const WarpInstr& in = buf[i];
                bool ll = isLoad(in.op) && isLongLatency(in.op);
                num_banks[i] = static_cast<u8>(
                    rf.accessOperands(in, ll, banks[i].data()));
            }
        });

        u64 sink = 0;
        t.partitionedS += timed("core.conflict.partitioned", [&] {
            for (size_t i = 0; i < buf.size(); ++i) {
                if (buf[i].op == Opcode::Bar)
                    continue;
                ConflictOutcome co = partitioned.evaluate(
                    buf[i], banks[i].data(), num_banks[i]);
                sink += co.penalty + co.maxPerBank + co.distinctWords;
                ++t.evalsPartitioned;
            }
        });
        t.unifiedS += timed("core.conflict.unified", [&] {
            for (size_t i = 0; i < buf.size(); ++i) {
                if (buf[i].op == Opcode::Bar)
                    continue;
                ConflictOutcome co = unified.evaluate(
                    buf[i], banks[i].data(), num_banks[i]);
                sink += co.penalty + co.maxPerBank + co.distinctChunks;
                ++t.evalsUnified;
            }
        });

        lines.clear();
        line_is_load.clear();
        t.coalesceS += timed("mem.coalesce", [&] {
            for (const WarpInstr& in : buf) {
                if (!isGlobalSpace(in.op))
                    continue;
                coalesce(in, scratch);
                ++t.coalesceCalls;
                lines.insert(lines.end(), scratch.begin(), scratch.end());
                line_is_load.resize(lines.size(), isLoad(in.op) ? 1 : 0);
            }
        });
        t.coalescedLines += lines.size();

        // Paper design: write-through, no write-allocate; load misses
        // fill whole lines, stores write their touched sectors through.
        reqs.clear();
        t.cacheS += timed("mem.cache", [&] {
            constexpr u32 line_sectors = kCacheLineBytes / kDramSectorBytes;
            for (size_t i = 0; i < lines.size(); ++i) {
                const CoalescedAccess& acc = lines[i];
                if (line_is_load[i]) {
                    if (!cache.read(acc.lineAddr)) {
                        cache.fill(acc.lineAddr);
                        reqs.push_back({true, line_sectors});
                    }
                } else {
                    cache.write(acc.lineAddr);
                    reqs.push_back({false, acc.numSectors()});
                }
            }
        });
        t.cacheAccesses += lines.size();

        t.dramS += timed("mem.dram", [&] {
            for (const DramReq& r : reqs) {
                Cycle done = r.read ? dram.read(dram_now, r.sectors)
                                    : dram.write(dram_now, r.sectors);
                sink += done;
                ++dram_now;
            }
        });
        t.dramRequests += reqs.size();
        t.sink += sink;
    }
    t.sink += cache.stats().readHits;
    return t;
}

} // namespace perfbench
