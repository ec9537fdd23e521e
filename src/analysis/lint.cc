#include "analysis/lint.hh"

#include <algorithm>
#include <sstream>

#include "analysis/liveness.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "core/conflict_model.hh"
#include "sim/simulator.hh"

namespace unimem {

namespace {

/** ORF entries behind the LRF for the capture metric (paper: 4). */
constexpr u32 kOrfEntries = 4;

/**
 * Widest address spread one warp-instruction may legally cover in the
 * global/texture space. One access targets one data structure; a larger
 * spread means a broken per-lane address computation (signed underflow,
 * unscaled index).
 */
constexpr Addr kLaneSpreadLimit = Addr(1) << 30;

/** ORF-reachable fraction below this raises low-orf-capture (info). */
constexpr double kOrfAdvisoryFloor = 0.5;

/** Per-instruction invariant checker for one warp. */
class WarpChecker
{
  public:
    WarpChecker(const KernelParams& kp, const WarpCtx& ctx,
                DiagnosticEngine& diags, LintMetrics& metrics)
        : kp_(kp), diags_(diags), metrics_(metrics),
          liveness_(kp.regsPerThread, kp.liveInRegCount(), kOrfEntries),
          written_(kp.regsPerThread, false),
          ctaSharedBase_(static_cast<Addr>(ctx.ctaId) *
                         kp.sharedBytesPerCta)
    {
        loc_.kernel = kp.name;
        loc_.ctaId = ctx.ctaId;
        loc_.warpInCta = ctx.warpInCta;
    }

    void
    check(const WarpInstr& in)
    {
        loc_.instrIndex = index_;
        checkShape(in);
        checkRegisters(in);
        if (isMemOp(in.op))
            checkMemory(in);
        liveness_.step(in);
        ++metrics_.instrs;
        ++index_;
    }

    void
    finish()
    {
        LivenessSummary s = liveness_.finish();
        metrics_.regPressure = std::max(metrics_.regPressure, s.maxLive);
        metrics_.regReads += s.regReads;
        metrics_.orfCaptured += s.orfCaptured;
    }

  private:
    void
    checkShape(const WarpInstr& in)
    {
        const OpcodeShape& shape = opcodeShape(in.op);
        if (in.numSrc > 3 || in.numSrc < shape.minSrc ||
            in.numSrc > shape.maxSrc) {
            diags_.report(DiagId::BadArity, loc_,
                          strprintf("%s carries %u source operands "
                                    "(expects %u..%u)",
                                    opcodeName(in.op), in.numSrc,
                                    shape.minSrc, shape.maxSrc));
        } else {
            for (u8 s = 0; s < in.numSrc; ++s)
                if (in.src[s] == kInvalidReg)
                    diags_.report(
                        DiagId::InvalidSrcOperand, loc_,
                        strprintf("%s source %u is kInvalidReg inside "
                                  "the declared arity",
                                  opcodeName(in.op), s));
        }
        if (shape.hasDst && !in.hasDst())
            diags_.report(DiagId::MissingDst, loc_,
                          strprintf("%s produces a value but has no "
                                    "destination register",
                                    opcodeName(in.op)));
        if (!shape.hasDst && in.hasDst())
            diags_.report(DiagId::UnexpectedDst, loc_,
                          strprintf("%s carries destination r%u but "
                                    "produces no value",
                                    opcodeName(in.op), in.dst));
        if (isMemOp(in.op)) {
            if (in.activeMask == 0)
                diags_.report(DiagId::EmptyActiveMask, loc_,
                              strprintf("%s with no active lanes",
                                        opcodeName(in.op)));
            if (!validAccessBytes(in.accessBytes))
                diags_.report(DiagId::BadAccessBytes, loc_,
                              strprintf("%s accesses %u bytes per lane "
                                        "(must be 1, 2, 4, 8 or 16)",
                                        opcodeName(in.op),
                                        in.accessBytes));
        }
    }

    void
    checkRegisters(const WarpInstr& in)
    {
        for (u8 s = 0; s < in.numSrc && s < 3; ++s) {
            RegId r = in.src[s];
            if (r == kInvalidReg)
                continue;
            if (r >= kp_.regsPerThread) {
                diags_.report(
                    DiagId::RegOutOfRange, loc_,
                    strprintf("source r%u exceeds the declared footprint "
                              "of %u registers/thread",
                              r, kp_.regsPerThread));
            } else if (!written_[r] && r >= kp_.liveInRegCount()) {
                diags_.report(
                    DiagId::ReadBeforeWrite, loc_,
                    strprintf("r%u read before any write (live-in set is "
                              "[0, %u))",
                              r, kp_.liveInRegCount()));
            }
        }
        if (in.hasDst()) {
            if (in.dst >= kp_.regsPerThread)
                diags_.report(
                    DiagId::RegOutOfRange, loc_,
                    strprintf("destination r%u exceeds the declared "
                              "footprint of %u registers/thread",
                              in.dst, kp_.regsPerThread));
            else
                written_[in.dst] = true;
        }
    }

    void
    checkMemory(const WarpInstr& in)
    {
        ++metrics_.memOps;
        // The trace parser's rule: only a legal access reaches the
        // footprint pass (which panics on a line crossing) and the
        // alignment check.
        const bool legal =
            validAccessBytes(in.accessBytes) && checkLines(in);
        if (isSharedSpace(in.op))
            checkShared(in, legal);
        else if (in.op == Opcode::LdLocal || in.op == Opcode::StLocal)
            checkLocal(in);
        else
            checkGlobal(in);
        if (legal)
            checkAlignment(in);
    }

    /** Report the first lane whose access crosses its line. */
    bool
    checkLines(const WarpInstr& in)
    {
        for (u32 lane = 0; lane < kWarpWidth; ++lane) {
            if (!in.laneActive(lane) ||
                accessInOneLine(in.addr[lane], in.accessBytes))
                continue;
            diags_.report(DiagId::LineCrossingAccess, loc_,
                          strprintf("lane %u's %u-byte access at %#llx "
                                    "crosses a 128-byte line",
                                    lane, in.accessBytes,
                                    static_cast<unsigned long long>(
                                        in.addr[lane])));
            return false;
        }
        return true;
    }

    void
    checkShared(const WarpInstr& in, bool legal)
    {
        ++metrics_.sharedOps;
        if (kp_.sharedBytesPerCta == 0) {
            diags_.report(DiagId::SharedUnallocated, loc_,
                          strprintf("%s but the kernel declares no "
                                    "scratchpad",
                                    opcodeName(in.op)));
            return;
        }
        for (u32 lane = 0; lane < kWarpWidth; ++lane) {
            if (!in.laneActive(lane))
                continue;
            Addr a = in.addr[lane];
            if (a < ctaSharedBase_ ||
                a + in.accessBytes >
                    ctaSharedBase_ + kp_.sharedBytesPerCta) {
                diags_.report(
                    DiagId::SharedOutOfBounds, loc_,
                    strprintf("lane %u offset %lld outside the CTA's "
                              "%u-byte scratchpad slab",
                              lane,
                              static_cast<long long>(
                                  static_cast<i64>(a - ctaSharedBase_)),
                              kp_.sharedBytesPerCta));
                break; // one finding per instruction
            }
        }
        if (legal)
            recordSharedConflicts(in);
    }

    void
    recordSharedConflicts(const WarpInstr& in)
    {
        // The degree the simulator charges under the partitioned
        // mapping: max distinct 4-byte words in one bank.
        const u32 degree = conflicts_.evaluate(in, nullptr, 0).dataMaxPerBank;
        if (degree <= 1)
            ++metrics_.sharedConflictFree;
        metrics_.sharedDegreeSum += degree;
        metrics_.sharedDegreeMax =
            std::max(metrics_.sharedDegreeMax, degree);
    }

    void
    checkLocal(const WarpInstr& in)
    {
        for (u32 lane = 0; lane < kWarpWidth; ++lane) {
            if (!in.laneActive(lane))
                continue;
            if (in.addr[lane] < kLocalBase) {
                diags_.report(
                    DiagId::LocalOutsideAperture, loc_,
                    strprintf("lane %u address 0x%llx below the "
                              "thread-local aperture",
                              lane,
                              static_cast<unsigned long long>(
                                  in.addr[lane])));
                break;
            }
        }
    }

    void
    checkGlobal(const WarpInstr& in)
    {
        Addr lo = ~Addr(0);
        Addr hi = 0;
        bool any = false;
        for (u32 lane = 0; lane < kWarpWidth; ++lane) {
            if (!in.laneActive(lane))
                continue;
            Addr a = in.addr[lane];
            if (a >= kLocalBase) {
                diags_.report(
                    DiagId::GlobalInLocalAperture, loc_,
                    strprintf("lane %u address 0x%llx inside the "
                              "thread-local aperture",
                              lane, static_cast<unsigned long long>(a)));
                return;
            }
            lo = std::min(lo, a);
            hi = std::max(hi, a);
            any = true;
        }
        if (any && hi - lo > kLaneSpreadLimit)
            diags_.report(
                DiagId::ImpossibleLaneSpread, loc_,
                strprintf("lane addresses span 0x%llx bytes in one warp "
                          "access (limit 0x%llx)",
                          static_cast<unsigned long long>(hi - lo),
                          static_cast<unsigned long long>(
                              kLaneSpreadLimit)));
    }

    void
    checkAlignment(const WarpInstr& in)
    {
        for (u32 lane = 0; lane < kWarpWidth; ++lane) {
            if (!in.laneActive(lane))
                continue;
            if (in.addr[lane] % in.accessBytes != 0) {
                diags_.report(
                    DiagId::MisalignedAddress, loc_,
                    strprintf("lane %u address 0x%llx not %u-byte "
                              "aligned",
                              lane,
                              static_cast<unsigned long long>(
                                  in.addr[lane]),
                              in.accessBytes));
                break;
            }
        }
    }

    const KernelParams& kp_;
    DiagnosticEngine& diags_;
    LintMetrics& metrics_;
    TraceLiveness liveness_;
    ConflictModel conflicts_{DesignKind::Partitioned};
    std::vector<bool> written_;
    Addr ctaSharedBase_;
    DiagLoc loc_;
    u64 index_ = 0;
};

} // namespace

std::vector<WarpCtx>
lintWarpSamples(const KernelParams& kp, const LintOptions& opt)
{
    std::vector<u32> ctas = {0, kp.gridCtas / 2, kp.gridCtas - 1};
    std::vector<u32> warps = {0, kp.warpsPerCta() - 1};
    std::sort(ctas.begin(), ctas.end());
    ctas.erase(std::unique(ctas.begin(), ctas.end()), ctas.end());
    std::sort(warps.begin(), warps.end());
    warps.erase(std::unique(warps.begin(), warps.end()), warps.end());

    std::vector<WarpCtx> out;
    for (u64 seed : opt.seeds)
        for (u32 cta : ctas)
            for (u32 warp : warps) {
                WarpCtx ctx;
                ctx.ctaId = cta;
                ctx.warpInCta = warp;
                ctx.warpsPerCta = kp.warpsPerCta();
                ctx.threadsPerCta = kp.ctaThreads;
                ctx.seed = seed;
                out.push_back(ctx);
            }
    return out;
}

void
lintWarp(const KernelModel& kernel, const WarpCtx& ctx,
         const LintOptions& opt, DiagnosticEngine& diags,
         LintMetrics& metrics)
{
    WarpChecker checker(kernel.params(), ctx, diags, metrics);
    InstrStream stream(kernel.warpProgram(ctx));
    for (u32 i = 0; i < opt.maxInstrsPerWarp; ++i) {
        const WarpInstr* in = stream.peek();
        if (in == nullptr)
            break;
        checker.check(*in);
        stream.pop();
    }
    checker.finish();
}

void
lintBarriers(const KernelModel& kernel, const LintOptions& opt,
             DiagnosticEngine& diags)
{
    // The SM releases a barrier when every resident warp of the CTA has
    // arrived, so unequal Bar counts leave warps waiting forever, or pair
    // warps across different program barriers. Warp traces are
    // straight-line (divergence is folded into active masks), so equal
    // counts prove every warp reaches each barrier equally often. A
    // mismatch can hide arbitrarily deep: whole traces are scanned, under
    // a kernel-wide budget, and every warp of a chosen CTA is counted.
    const KernelParams& kp = kernel.params();
    std::vector<u32> ctas;
    if (kp.gridCtas <= 8) {
        for (u32 c = 0; c < kp.gridCtas; ++c)
            ctas.push_back(c);
    } else {
        ctas = {0, kp.gridCtas / 2, kp.gridCtas - 1};
    }

    const u64 budget = opt.barrierScanBudget;
    u64 instrs = 0;
    bool truncated = false;
    std::vector<u64> barCounts(kp.warpsPerCta());
    for (u64 seed : opt.seeds) {
        for (u32 cta : ctas) {
            bool complete = true;
            for (u32 w = 0; w < kp.warpsPerCta() && complete; ++w) {
                WarpCtx wc;
                wc.ctaId = cta;
                wc.warpInCta = w;
                wc.warpsPerCta = kp.warpsPerCta();
                wc.threadsPerCta = kp.ctaThreads;
                wc.seed = seed;

                u64 bars = 0;
                InstrStream stream(kernel.warpProgram(wc));
                const WarpInstr* in;
                while ((in = stream.peek()) != nullptr) {
                    if (instrs >= budget) {
                        complete = false;
                        truncated = true;
                        break;
                    }
                    if (in->op == Opcode::Bar)
                        ++bars;
                    ++instrs;
                    stream.pop();
                }
                barCounts[w] = bars;
            }
            if (!complete)
                continue; // partial counts prove nothing

            auto [lo, hi] =
                std::minmax_element(barCounts.begin(), barCounts.end());
            if (*lo != *hi) {
                DiagLoc loc;
                loc.kernel = kp.name;
                loc.ctaId = cta;
                loc.warpInCta = static_cast<u32>(
                    std::distance(barCounts.begin(), lo));
                diags.report(
                    DiagId::BarrierDivergence, loc,
                    strprintf("CTA %u warps reach between %llu and %llu "
                              "barriers (seed %llu); the CTA deadlocks "
                              "at barrier %llu",
                              cta, static_cast<unsigned long long>(*lo),
                              static_cast<unsigned long long>(*hi),
                              static_cast<unsigned long long>(seed),
                              static_cast<unsigned long long>(*lo)));
            }
        }
    }

    if (truncated) {
        DiagLoc loc;
        loc.kernel = kp.name;
        diags.report(
            DiagId::TraceBoundExceeded, loc,
            strprintf("barrier scan hit its %llu-instruction budget; "
                      "CTAs past the cutoff are unproven",
                      static_cast<unsigned long long>(budget)));
    }
}

namespace {

/**
 * The allocation a default RunSpec of @p design implies must launch,
 * fit its partitions, and tile the @p poolBytes pool exactly.
 */
void
checkAllocation(const KernelParams& kp, DesignKind design, u64 poolBytes,
                DiagnosticEngine& diags)
{
    RunSpec spec;
    spec.design = design;
    const AllocationDecision alloc = resolveAllocation(kp, spec);
    const MemoryPartition& part = alloc.partition;
    const LaunchConfig& launch = alloc.launch;

    DiagLoc loc;
    loc.kernel = kp.name;
    if (!launch.feasible || launch.ctas == 0 || launch.threads == 0) {
        diags.report(DiagId::AllocInfeasibleLaunch, loc,
                     strprintf("%s allocation cannot launch the kernel "
                               "(%u CTAs, %u threads)",
                               designName(design), launch.ctas,
                               launch.threads));
        return; // consumption fields are meaningless
    }
    if (launch.rfBytes > part.rfBytes ||
        launch.sharedBytes > part.sharedBytes)
        diags.report(
            DiagId::AllocOverSubscribed, loc,
            strprintf("%s launch consumes %llu RF + %llu shared bytes "
                      "against partitions of %llu + %llu",
                      designName(design),
                      static_cast<unsigned long long>(launch.rfBytes),
                      static_cast<unsigned long long>(launch.sharedBytes),
                      static_cast<unsigned long long>(part.rfBytes),
                      static_cast<unsigned long long>(part.sharedBytes)));
    if (part.total() != poolBytes)
        diags.report(
            DiagId::AllocPartitionOverlap, loc,
            strprintf("%s partitions sum to %llu bytes, not the "
                      "%llu-byte pool: partitions overlap or leak",
                      designName(design),
                      static_cast<unsigned long long>(part.total()),
                      static_cast<unsigned long long>(poolBytes)));
}

} // namespace

void
lintRegisterHazards(const KernelModel& kernel,
                    const std::vector<WarpCtx>& samples,
                    const LintOptions& opt, DiagnosticEngine& diags)
{
    // A long-latency load overwritten before any read threw its DRAM
    // transaction away (the simulator still times it); a zero-read
    // redefinition while the value sits in the LRF+ORF window is a WAW
    // the capture hierarchy absorbs silently. Both are advisories.
    const KernelParams& kp = kernel.params();
    for (const WarpCtx& wc : samples) {
        DiagLoc loc;
        loc.kernel = kp.name;
        loc.ctaId = wc.ctaId;
        loc.warpInCta = wc.warpInCta;

        TraceLiveness liveness(kp.regsPerThread, kp.liveInRegCount(),
                               kOrfEntries);
        liveness.setHazardSink([&](const HazardEvent& ev) {
            loc.instrIndex = ev.redefPos;
            const auto def = static_cast<unsigned long long>(ev.defPos);
            if (ev.kind == HazardEvent::Kind::DeadLoadOverwrite)
                diags.report(DiagId::DeadLoadOverwrite, loc,
                             strprintf("r%u loaded at i%llu is overwritten "
                                       "with zero reads; the load's "
                                       "memory traffic is wasted",
                                       ev.reg, def));
            else
                diags.report(DiagId::OrfWindowWaw, loc,
                             strprintf("r%u defined at i%llu is redefined "
                                       "with zero reads inside the "
                                       "LRF+ORF window",
                                       ev.reg, def));
        });

        InstrStream stream(kernel.warpProgram(wc));
        for (u32 i = 0; i < opt.maxInstrsPerWarp; ++i) {
            const WarpInstr* in = stream.peek();
            if (in == nullptr)
                break;
            liveness.step(*in);
            stream.pop();
        }
        liveness.finish();
    }

    checkAllocation(kp, DesignKind::Partitioned,
                    baselinePartition().total(), diags);
    checkAllocation(kp, DesignKind::Unified, 384_KB, diags);
}

LintReport
lintKernel(const KernelModel& kernel, const LintOptions& opt)
{
    const KernelParams& kp = kernel.params();
    LintReport report;
    report.kernel = kp.name;
    DiagnosticOptions diagOpt;
    diagOpt.werror = opt.werror;
    report.diags = DiagnosticEngine(diagOpt);

    const std::vector<WarpCtx> samples = lintWarpSamples(kp, opt);
    LintMetrics& m = report.metrics;
    for (const WarpCtx& wc : samples)
        lintWarp(kernel, wc, opt, report.diags, m);
    if (m.regReads > 0 && m.orfReachableFraction() < kOrfAdvisoryFloor) {
        DiagLoc loc;
        loc.kernel = kp.name;
        report.diags.report(
            DiagId::LowOrfCapture, loc,
            strprintf("ORF-reachable read fraction %.2f is below the "
                      "Section 2.1 band (floor %.2f)",
                      m.orfReachableFraction(), kOrfAdvisoryFloor));
    }

    lintBarriers(kernel, opt, report.diags);
    lintRegisterHazards(kernel, samples, opt, report.diags);
    return report;
}

std::string
LintReport::str() const
{
    std::ostringstream os;
    os << kernel << ": " << metrics.instrs << " instrs, " << errors()
       << " errors, " << warnings() << " warnings, " << infos()
       << " infos; pressure " << metrics.regPressure << ", orf "
       << Table::num(metrics.orfReachableFraction(), 3) << ", shared-degree "
       << Table::num(metrics.avgSharedConflictDegree(), 2) << " avg / "
       << metrics.sharedDegreeMax << " max\n";
    diags.print(os);
    return os.str();
}

} // namespace unimem
