/**
 * @file
 * Tests of the trace validator (analysis/lint.hh).
 *
 * Layout: one positive case (a clean hand-built kernel), one negative
 * case per diagnostic — each seeded violation built so it trips exactly
 * its intended check once — the legal-access rule against the trace
 * parser's, a clean-sweep test over all 26 shipped kernel models, and
 * determinism of the parallel lint driver across worker counts.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/lint.hh"
#include "analysis/liveness.hh"
#include "arch/trace_io.hh"
#include "common/worker_pool.hh"
#include "kernels/registry.hh"
#include "kernels/step_program.hh"
#include "kernels/workloads.hh"

namespace unimem {
namespace {

/** Hand-built kernel: fixed instruction vector + explicit params. */
class TestKernel : public KernelModel
{
  public:
    TestKernel(KernelParams kp, std::vector<WarpInstr> instrs)
        : kp_(std::move(kp)), instrs_(std::move(instrs))
    {
    }

    const KernelParams& params() const override { return kp_; }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx&) const override
    {
        return std::make_unique<FixedProgram>(instrs_);
    }

  private:
    KernelParams kp_;
    std::vector<WarpInstr> instrs_;
};

KernelParams
baseParams()
{
    KernelParams kp;
    kp.name = "lint-test";
    kp.regsPerThread = 8;
    kp.sharedBytesPerCta = 256;
    kp.ctaThreads = kWarpWidth;
    kp.gridCtas = 1;
    kp.liveInRegs = 2; // r0, r1 live at entry
    return kp;
}

WarpInstr
memAt(Opcode op, Addr base, RegId dstOrData = 2, RegId addrReg = 0)
{
    WarpInstr in = instr::mem(op, dstOrData, addrReg);
    for (u32 lane = 0; lane < kWarpWidth; ++lane)
        in.addr[lane] = base + lane * 4ull;
    return in;
}

/** A well-formed two-instruction program: alu feeding a global store. */
std::vector<WarpInstr>
cleanProgram()
{
    std::vector<WarpInstr> prog;
    prog.push_back(instr::alu(2, 0, 1));
    prog.push_back(memAt(Opcode::StGlobal, 4096, /*data=*/2,
                         /*addr=*/2));
    return prog;
}

LintReport
lintOne(const KernelParams& kp, std::vector<WarpInstr> instrs,
        LintOptions opt = {})
{
    TestKernel k(kp, std::move(instrs));
    return lintKernel(k, opt);
}

/** Assert @p r has exactly one error site and it is @p id. */
void
expectOnly(const LintReport& r, DiagId id)
{
    EXPECT_EQ(r.errors(), 1u) << r.str();
    EXPECT_EQ(r.diags.countOf(id), 1u) << r.str();
}

TEST(Lint, CleanProgramHasNoFindings)
{
    LintReport r = lintOne(baseParams(), cleanProgram());
    EXPECT_TRUE(r.clean()) << r.str();
    EXPECT_EQ(r.errors() + r.warnings(), 0u) << r.str();
    EXPECT_GT(r.metrics.instrs, 0u);
}

// ---- (a) dataflow -------------------------------------------------------

TEST(Lint, ReadBeforeWriteOutsideLiveInSet)
{
    auto prog = cleanProgram();
    prog.insert(prog.begin(), instr::alu(3, /*src=*/5)); // r5 never written
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::ReadBeforeWrite);
}

TEST(Lint, LiveInRegistersAreReadableAtEntry)
{
    // Reading r0/r1 (declared live-in) before any write is legal.
    LintReport r = lintOne(baseParams(), cleanProgram());
    EXPECT_EQ(r.diags.countOf(DiagId::ReadBeforeWrite), 0u) << r.str();
}

TEST(Lint, LiveInAllSuppressesReadBeforeWrite)
{
    KernelParams kp = baseParams();
    kp.liveInRegs = KernelParams::kLiveInAll;
    auto prog = cleanProgram();
    prog.insert(prog.begin(), instr::alu(3, /*src=*/5));
    LintReport r = lintOne(kp, prog);
    EXPECT_TRUE(r.clean()) << r.str();
}

// ---- (b) declared register footprint ------------------------------------

TEST(Lint, DestinationBeyondDeclaredFootprint)
{
    auto prog = cleanProgram();
    prog.push_back(instr::alu(/*dst=*/9, /*src=*/2)); // regsPerThread = 8
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::RegOutOfRange);
}

TEST(Lint, SourceBeyondDeclaredFootprint)
{
    auto prog = cleanProgram();
    prog.push_back(instr::alu(3, /*src=*/8));
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::RegOutOfRange);
}

// ---- (c) address-space invariants ---------------------------------------

TEST(Lint, SharedAccessOutsideCtaSlab)
{
    auto prog = cleanProgram();
    prog.push_back(memAt(Opcode::LdShared, /*base=*/200)); // 200..328 > 256
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::SharedOutOfBounds);
}

TEST(Lint, SharedAccessWithoutDeclaredScratchpad)
{
    KernelParams kp = baseParams();
    kp.sharedBytesPerCta = 0;
    auto prog = cleanProgram();
    prog.push_back(memAt(Opcode::LdShared, 0));
    LintReport r = lintOne(kp, prog);
    expectOnly(r, DiagId::SharedUnallocated);
}

TEST(Lint, LocalAccessBelowAperture)
{
    auto prog = cleanProgram();
    prog.push_back(memAt(Opcode::LdLocal, /*base=*/4096)); // < kLocalBase
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::LocalOutsideAperture);
}

TEST(Lint, GlobalAccessInsideLocalAperture)
{
    auto prog = cleanProgram();
    prog.push_back(memAt(Opcode::LdGlobal, kLocalBase + 64));
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::GlobalInLocalAperture);
}

TEST(Lint, ImpossiblePerLaneSpread)
{
    auto prog = cleanProgram();
    WarpInstr in = memAt(Opcode::LdGlobal, 0);
    in.addr[31] = Addr(1) << 33; // 8 GB from lane 0 in one warp access
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::ImpossibleLaneSpread);
}

TEST(Lint, MisalignedAddressIsAWarning)
{
    auto prog = cleanProgram();
    WarpInstr in = memAt(Opcode::LdGlobal, 4096);
    in.addr[3] += 2; // 4-byte access at a 2-byte offset
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    EXPECT_EQ(r.errors(), 0u) << r.str();
    EXPECT_EQ(r.warnings(), 1u) << r.str();
    EXPECT_EQ(r.diags.countOf(DiagId::MisalignedAddress), 1u) << r.str();
}

TEST(Lint, WerrorPromotesWarningsToErrors)
{
    auto prog = cleanProgram();
    WarpInstr in = memAt(Opcode::LdGlobal, 4096);
    in.addr[3] += 2;
    prog.push_back(in);
    LintOptions opt;
    opt.werror = true;
    LintReport r = lintOne(baseParams(), prog, opt);
    EXPECT_EQ(r.warnings(), 0u) << r.str();
    expectOnly(r, DiagId::MisalignedAddress);
}

// ---- (d) instruction well-formedness ------------------------------------

TEST(Lint, ArityOutsideOpcodeShape)
{
    auto prog = cleanProgram();
    WarpInstr in = instr::sfu(3, 2);
    in.src[1] = 0; // live-in, so only the arity itself is wrong
    in.numSrc = 2; // sfu expects exactly one source
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::BadArity);
}

TEST(Lint, LoadWithoutDestination)
{
    auto prog = cleanProgram();
    WarpInstr in = memAt(Opcode::LdGlobal, 4096);
    in.dst = kInvalidReg;
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::MissingDst);
}

TEST(Lint, StoreWithDestination)
{
    auto prog = cleanProgram();
    WarpInstr in = memAt(Opcode::StGlobal, 4096);
    in.dst = 3;
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::UnexpectedDst);
}

TEST(Lint, InvalidSourceInsideDeclaredArity)
{
    auto prog = cleanProgram();
    WarpInstr in = instr::alu(3, 0, 1);
    in.src[1] = kInvalidReg; // numSrc still 2
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::InvalidSrcOperand);
}

TEST(Lint, MemoryOpWithEmptyActiveMask)
{
    auto prog = cleanProgram();
    WarpInstr in = memAt(Opcode::StGlobal, 4096);
    in.activeMask = 0;
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::EmptyActiveMask);
}

TEST(Lint, MemoryOpWithBadAccessBytes)
{
    auto prog = cleanProgram();
    WarpInstr in = memAt(Opcode::LdGlobal, 4096);
    in.accessBytes = 3;
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::BadAccessBytes);
}

TEST(Lint, LineCrossingSharedAccessIsAnErrorNotAPanic)
{
    // Lane 1's bytes 0x7c..0x83 straddle the line at 0x80; the conflict
    // degree's footprint pass would panic on it.
    auto prog = cleanProgram();
    WarpInstr in = instr::mem(Opcode::LdShared, 2, 0, 0x3u);
    in.accessBytes = 8;
    in.addr[0] = 0x40;
    in.addr[1] = 0x7c;
    prog.push_back(in);
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::LineCrossingAccess);
    EXPECT_NE(r.str().find("error: lane 1's 8-byte access at 0x7c crosses "
                           "a 128-byte line [line-crossing-access]"),
              std::string::npos)
        << r.str();
}

// ---- one legal-access rule with the trace parser --------------------------

TEST(LintDeathTest, ErrorsExactlyWhereTheParserFails)
{
    // One lane of a global load at each size, aligned, misaligned inside
    // its line, and crossing it. Lint reports an error exactly when the
    // parser fatal()s on the same access; a misaligned access inside a
    // line is a warning for lint and legal for the parser.
    constexpr Addr kLine = 0x1000;
    u32 errorRows = 0;
    for (u32 bytes : {0u, 1u, 3u, 4u, 12u, 16u, 32u}) {
        for (u32 offset : {0u, 2u, 126u}) {
            const Addr addr = kLine + offset;
            SCOPED_TRACE(std::to_string(bytes) + " bytes at offset " +
                         std::to_string(offset));
            WarpInstr in = instr::mem(Opcode::LdGlobal, 2, 0, 0x1u);
            in.accessBytes = static_cast<u8>(bytes);
            in.addr[0] = addr;
            const bool lintError = !lintOne(baseParams(), {in}).clean();
            errorRows += lintError;

            std::ostringstream trace;
            trace << "unimem-trace 1\nkernel x regs 8 shared 0 cta 32 "
                     "grid 1\nwarp 0 0\ni ld.global 2 0 65535 65535 1 "
                  << bytes << "\na " << std::hex << addr << "\nend\n";
            EXPECT_EXIT(
                {
                    std::istringstream is(trace.str());
                    TraceFileKernel k(is);
                    std::exit(0);
                },
                ::testing::ExitedWithCode(lintError ? 1 : 0),
                lintError ? "fatal: trace: line [45]: " : "");
        }
    }
    // Sizes 0, 3, 12 and 32 everywhere, and 4 and 16 across the line.
    EXPECT_EQ(errorRows, 14u);
}

// ---- (e) static metrics -------------------------------------------------

TEST(Lint, RegisterPressureOfDisjointChains)
{
    // r2..r5 defined, then all four read at the end: pressure >= 4
    // (plus nothing else live in between).
    KernelParams kp = baseParams();
    kp.liveInRegs = 0;
    std::vector<WarpInstr> prog;
    for (RegId r = 2; r <= 5; ++r)
        prog.push_back(instr::alu(r));
    prog.push_back(instr::alu(6, 2, 3, 4));
    prog.push_back(instr::alu(7, 5, 6));
    LintReport r = lintOne(kp, prog);
    EXPECT_TRUE(r.clean()) << r.str();
    EXPECT_GE(r.metrics.regPressure, 4u);
    EXPECT_LE(r.metrics.regPressure, 6u);
}

TEST(Lint, OrfCaptureSeesRecentValues)
{
    // Chain of alu ops each reading the value defined immediately
    // before: every read after the first hits the LRF/ORF window.
    KernelParams kp = baseParams();
    kp.liveInRegs = 1;
    std::vector<WarpInstr> prog;
    prog.push_back(instr::alu(1, 0));
    for (int i = 0; i < 20; ++i) {
        prog.push_back(instr::alu(2, 1));
        prog.push_back(instr::alu(1, 2));
    }
    LintReport r = lintOne(kp, prog);
    EXPECT_TRUE(r.clean()) << r.str();
    EXPECT_GT(r.metrics.orfReachableFraction(), 0.9);
}

TEST(Lint, LowOrfCaptureRaisesInfoAdvisory)
{
    // Round-robin over 8 registers with reads of the value defined 7
    // defs earlier: outside a 5-deep recency window.
    KernelParams kp = baseParams();
    kp.liveInRegs = 8; // all regs live-in: no read-before-write noise
    std::vector<WarpInstr> prog;
    for (int i = 0; i < 64; ++i)
        prog.push_back(
            instr::alu(static_cast<RegId>(i % 8),
                       static_cast<RegId>((i + 1) % 8)));
    LintReport r = lintOne(kp, prog);
    EXPECT_TRUE(r.clean()) << r.str();
    EXPECT_EQ(r.diags.countOf(DiagId::LowOrfCapture), 1u) << r.str();
    EXPECT_EQ(r.infos(), 1u);
    EXPECT_LT(r.metrics.orfReachableFraction(), 0.5);
}

TEST(Lint, SharedConflictDegreeOfStridedAccess)
{
    // Stride of 2 words over 32 lanes: 64 words over 32 banks, every
    // touched bank hit twice -> degree 2; unit stride -> degree 1.
    KernelParams kp = baseParams();
    kp.sharedBytesPerCta = 1024;

    WarpInstr unit = memAt(Opcode::LdShared, 0);
    WarpInstr strided = memAt(Opcode::LdShared, 0);
    for (u32 lane = 0; lane < kWarpWidth; ++lane)
        strided.addr[lane] = lane * 8ull;

    LintReport r = lintOne(kp, {cleanProgram()[0], unit, strided});
    EXPECT_TRUE(r.clean()) << r.str();
    EXPECT_EQ(r.metrics.sharedDegreeMax, 2u);
    // Per sampled warp: one conflict-free op, one degree-2 op.
    EXPECT_EQ(r.metrics.sharedOps, 2 * r.metrics.sharedConflictFree)
        << r.str();
}

// ---- dedup & engine behaviour -------------------------------------------

TEST(Lint, RepeatedFindingsDeduplicateWithCounts)
{
    auto prog = cleanProgram();
    for (int i = 0; i < 5; ++i)
        prog.push_back(instr::alu(3, /*src=*/5)); // same RBW site x5
    LintReport r = lintOne(baseParams(), prog);
    expectOnly(r, DiagId::ReadBeforeWrite);
    const Diagnostic* rbw = nullptr;
    for (const Diagnostic& d : r.diags.diagnostics())
        if (d.id == DiagId::ReadBeforeWrite)
            rbw = &d;
    ASSERT_NE(rbw, nullptr);
    // One site, one occurrence per sampled warp per repeat (2 seeds).
    EXPECT_EQ(rbw->occurrences, 10u) << r.str();
}

TEST(Lint, PerIdSiteCapSuppresses)
{
    DiagnosticOptions opt;
    opt.maxSitesPerId = 2;
    DiagnosticEngine eng(opt);
    DiagLoc loc;
    loc.kernel = "k";
    for (int i = 0; i < 5; ++i)
        eng.report(DiagId::BadArity, loc, "site " + std::to_string(i));
    EXPECT_EQ(eng.countOf(DiagId::BadArity), 2u);
    EXPECT_EQ(eng.suppressedCount(), 3u);
}

// ---- warp sampling ------------------------------------------------------

TEST(Lint, WarpSamplesCoverCtaAndWarpExtremes)
{
    KernelParams kp = baseParams();
    kp.gridCtas = 9;
    kp.ctaThreads = 128; // 4 warps
    LintOptions opt;
    std::vector<WarpCtx> samples = lintWarpSamples(kp, opt);
    // 2 seeds x {0, 4, 8} x {0, 3}
    EXPECT_EQ(samples.size(), 12u);
    bool sawLast = false;
    for (const WarpCtx& ctx : samples)
        if (ctx.ctaId == 8 && ctx.warpInCta == 3)
            sawLast = true;
    EXPECT_TRUE(sawLast);
}

TEST(Lint, SingleWarpKernelSamplesDeduplicate)
{
    KernelParams kp = baseParams(); // 1 CTA, 1 warp
    LintOptions opt;
    opt.seeds = {7};
    EXPECT_EQ(lintWarpSamples(kp, opt).size(), 1u);
}

// ---- shipped kernels ----------------------------------------------------

TEST(LintSweep, AllShippedKernelsLintErrorFree)
{
    LintOptions opt;
    opt.werror = true; // warnings fail too
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto k = createBenchmark(info.name, 0.5);
        LintReport r = lintKernel(*k, opt);
        EXPECT_TRUE(r.clean()) << r.str();
    }
}

TEST(LintSweep, NeedleBlockingVariantsLintErrorFree)
{
    // The BF=16/64 variants are not registry entries but are shipped
    // (fig11); the BF edge tiles are where address underflow once hid.
    for (u32 bf : {16u, 64u}) {
        auto k = makeNeedle(bf, 0.5);
        LintReport r = lintKernel(*k);
        EXPECT_TRUE(r.clean()) << r.str();
    }
}

TEST(LintSweep, ShippedMetricsLandInPlausibleBands)
{
    // Spot-check the metrics the docs quote: dgemm's register blocking
    // must show the deepest pressure, and every kernel's ORF-reachable
    // fraction should sit in the Section 2.1 band.
    u32 dgemmPressure = 0;
    u32 maxOther = 0;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto k = createBenchmark(info.name, 0.5);
        LintReport r = lintKernel(*k);
        EXPECT_GT(r.metrics.orfReachableFraction(), 0.5) << info.name;
        EXPECT_LE(r.metrics.regPressure,
                  k->params().regsPerThread)
            << info.name << ": pressure above declared footprint";
        if (std::string(info.name) == "dgemm")
            dgemmPressure = r.metrics.regPressure;
        else
            maxOther = std::max(maxOther, r.metrics.regPressure);
    }
    EXPECT_GT(dgemmPressure, maxOther);
}

// ---- determinism across worker counts -----------------------------------

std::string
lintAllOnPool(u32 workers)
{
    const std::vector<BenchmarkInfo>& all = allBenchmarks();
    std::vector<LintReport> reports(all.size());
    WorkerPool(workers).dispatch(static_cast<u32>(all.size()), [&](u32 i) {
        reports[i] = lintKernel(*createBenchmark(all[i].name, 0.5));
    });
    std::string out;
    for (const LintReport& r : reports)
        out += r.str();
    return out;
}

TEST(LintSweep, OutputIdenticalAcrossWorkerCounts)
{
    std::string serial = lintAllOnPool(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, lintAllOnPool(2));
    EXPECT_EQ(serial, lintAllOnPool(8));
}

// ---- liveness unit ------------------------------------------------------

TEST(Liveness, IntervalOverlapCountsSimultaneousValues)
{
    TraceLiveness lv(/*numRegs=*/8, /*liveInRegs=*/0);
    // def r0; def r1; use both -> two simultaneously live values.
    lv.step(instr::alu(0));
    lv.step(instr::alu(1));
    lv.step(instr::alu(2, 0, 1));
    LivenessSummary s = lv.finish();
    EXPECT_EQ(s.maxLive, 2u);
    EXPECT_EQ(s.regReads, 2u);
}

TEST(Liveness, DeadDefsContributeNoPressure)
{
    TraceLiveness lv(8, 0);
    for (RegId r = 0; r < 6; ++r)
        lv.step(instr::alu(r)); // never read
    EXPECT_EQ(lv.finish().maxLive, 0u);
}

TEST(Liveness, RedefinitionEndsTheOldInterval)
{
    TraceLiveness lv(8, 0);
    lv.step(instr::alu(0));
    lv.step(instr::alu(1, 0));
    lv.step(instr::alu(0));     // kills the first r0 value
    lv.step(instr::alu(2, 0));
    EXPECT_EQ(lv.finish().maxLive, 1u);
}

// ---- hazard sink --------------------------------------------------------

TEST(Liveness, DeadLoadOverwriteReachesTheSink)
{
    TraceLiveness lv(8, 0);
    std::vector<HazardEvent> events;
    lv.setHazardSink([&](const HazardEvent& e) { events.push_back(e); });

    WarpInstr ld = instr::mem(Opcode::LdGlobal, /*dst=*/3, /*addr=*/0);
    lv.step(instr::alu(0));
    lv.step(ld);                // r3 <- load at pos 1
    lv.step(instr::alu(3, 0));  // overwritten, never read
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, HazardEvent::Kind::DeadLoadOverwrite);
    EXPECT_EQ(events[0].reg, 3u);
    EXPECT_EQ(events[0].defPos, 1u);
    EXPECT_EQ(events[0].redefPos, 2u);
}

TEST(Liveness, WindowWawReachesTheSink)
{
    TraceLiveness lv(8, 0);
    std::vector<HazardEvent> events;
    lv.setHazardSink([&](const HazardEvent& e) { events.push_back(e); });

    lv.step(instr::alu(3));    // def r3
    lv.step(instr::alu(3));    // redef inside the window, zero reads
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, HazardEvent::Kind::WindowWaw);
    EXPECT_EQ(events[0].reg, 3u);
}

TEST(Liveness, ReadBetweenDefsIsNoHazard)
{
    TraceLiveness lv(8, 0);
    std::vector<HazardEvent> events;
    lv.setHazardSink([&](const HazardEvent& e) { events.push_back(e); });

    lv.step(instr::alu(3));
    lv.step(instr::alu(4, 3)); // read r3
    lv.step(instr::alu(3));    // legal redefinition
    EXPECT_TRUE(events.empty());
}

TEST(Liveness, UnusedLiveInOverwriteIsNoHazard)
{
    TraceLiveness lv(8, /*liveIn=*/2);
    std::vector<HazardEvent> events;
    lv.setHazardSink([&](const HazardEvent& e) { events.push_back(e); });

    lv.step(instr::alu(0)); // kernels routinely ignore some inputs
    lv.step(instr::alu(1));
    EXPECT_TRUE(events.empty());
}

// ---- barrier sync -------------------------------------------------------

/** Kernel whose warp 0 executes one extra barrier (a guaranteed hang). */
class DivergentBarrierKernel : public KernelModel
{
  public:
    explicit DivergentBarrierKernel(bool divergent)
        : divergent_(divergent)
    {
        kp_.name = "barrier-test";
        kp_.regsPerThread = 8;
        kp_.ctaThreads = 2 * kWarpWidth; // two warps per CTA
        kp_.gridCtas = 2;
        kp_.liveInRegs = 2;
    }

    const KernelParams& params() const override { return kp_; }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx& ctx) const override
    {
        std::vector<WarpInstr> prog;
        prog.push_back(instr::alu(2, 0, 1));
        prog.push_back(instr::bar());
        if (divergent_ && ctx.warpInCta == 0)
            prog.push_back(instr::bar());
        return std::make_unique<FixedProgram>(prog);
    }

  private:
    KernelParams kp_;
    bool divergent_;
};

/** Findings of the barrier-sync check alone. */
DiagnosticEngine
barrierFindings(const KernelModel& k, const LintOptions& opt = {})
{
    DiagnosticEngine diags;
    lintBarriers(k, opt, diags);
    return diags;
}

/** Findings of the register-hazard check alone. */
DiagnosticEngine
hazardFindings(const KernelModel& k)
{
    LintOptions opt;
    DiagnosticEngine diags;
    lintRegisterHazards(k, lintWarpSamples(k.params(), opt), opt, diags);
    return diags;
}

std::string
render(const DiagnosticEngine& diags)
{
    std::ostringstream os;
    diags.print(os);
    return os.str();
}

TEST(PassBarrier, UnequalBarCountsAreDivergence)
{
    DivergentBarrierKernel k(/*divergent=*/true);
    DiagnosticEngine d = barrierFindings(k);
    EXPECT_TRUE(d.hasErrors()) << render(d);
    EXPECT_GE(d.countOf(DiagId::BarrierDivergence), 1u) << render(d);
}

TEST(PassBarrier, EqualBarCountsProveClean)
{
    DivergentBarrierKernel k(/*divergent=*/false);
    DiagnosticEngine d = barrierFindings(k);
    EXPECT_TRUE(d.diagnostics().empty()) << render(d);
}

TEST(PassBarrier, BudgetExhaustionWarnsInsteadOfGuessing)
{
    DivergentBarrierKernel k(/*divergent=*/true);
    LintOptions opt;
    opt.barrierScanBudget = 2; // truncates inside the first CTA
    DiagnosticEngine d = barrierFindings(k, opt);
    EXPECT_GE(d.countOf(DiagId::TraceBoundExceeded), 1u) << render(d);
    // Partial counts prove nothing, so no divergence may be claimed.
    EXPECT_EQ(d.countOf(DiagId::BarrierDivergence), 0u) << render(d);
}

// ---- register hazards and allocation legality ---------------------------

TEST(PassRegHazard, DeadLoadOverwriteFlagged)
{
    std::vector<WarpInstr> prog;
    prog.push_back(memAt(Opcode::LdGlobal, 4096, /*dst=*/2, /*addr=*/0));
    prog.push_back(instr::alu(2, 0, 1)); // overwrite, never read
    prog.push_back(memAt(Opcode::StGlobal, 8192, /*data=*/2,
                         /*addr=*/2));
    TestKernel k(baseParams(), prog);
    DiagnosticEngine d = hazardFindings(k);
    EXPECT_FALSE(d.hasErrors()) << render(d); // advisory, not an error
    EXPECT_EQ(d.countOf(DiagId::DeadLoadOverwrite), 1u) << render(d);
}

TEST(PassRegHazard, WindowWawFlagged)
{
    std::vector<WarpInstr> prog;
    prog.push_back(instr::alu(3, 0));
    prog.push_back(instr::alu(3, 1)); // zero-read redef in the window
    prog.push_back(instr::alu(4, 3));
    TestKernel k(baseParams(), prog);
    DiagnosticEngine d = hazardFindings(k);
    EXPECT_EQ(d.countOf(DiagId::OrfWindowWaw), 1u) << render(d);
}

TEST(PassRegHazard, OversizedSharedIsInfeasiblePartitioned)
{
    KernelParams kp = baseParams();
    kp.sharedBytesPerCta = 128 * 1024; // above the 64 KB scratchpad
    TestKernel k(kp, cleanProgram());
    DiagnosticEngine d = hazardFindings(k);
    // Partitioned cannot launch; the 384 KB unified pool still can.
    EXPECT_EQ(d.countOf(DiagId::AllocInfeasibleLaunch), 1u) << render(d);
}

TEST(PassRegHazard, ShippedKernelAllocationsAreLegal)
{
    auto k = createBenchmark("vectoradd", 0.05);
    DiagnosticEngine d = hazardFindings(*k);
    EXPECT_EQ(d.countOf(DiagId::AllocInfeasibleLaunch), 0u);
    EXPECT_EQ(d.countOf(DiagId::AllocOverSubscribed), 0u);
    EXPECT_EQ(d.countOf(DiagId::AllocPartitionOverlap), 0u);
}

// ---- diagnostic registry ------------------------------------------------

TEST(Lint, DiagRegistryIsDenseUniqueAndStable)
{
    verifyDiagRegistry(); // panics on violation
    EXPECT_EQ(kNumDiagIds, 23u);
    EXPECT_STREQ(diagName(DiagId::BarrierDivergence),
                 "barrier-divergence");
    EXPECT_STREQ(diagName(DiagId::LineCrossingAccess),
                 "line-crossing-access");
}

// ---- golden lint snapshot over every shipped kernel ---------------------

std::string
lintSnapshotPath()
{
    return std::string(UNIMEM_SOURCE_DIR) +
           "/tests/golden/lint_snapshot.golden";
}

std::string
computeLintSnapshot()
{
    std::ostringstream os;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto k = createBenchmark(info.name, 0.5);
        LintReport r = lintKernel(*k);
        os << r.str();
    }
    return os.str();
}

TEST(LintSweep, SnapshotMatchesGoldenFile)
{
    std::string snapshot = computeLintSnapshot();

    if (std::getenv("UNIMEM_UPDATE_GOLDEN")) {
        std::ofstream os(lintSnapshotPath());
        ASSERT_TRUE(os) << "cannot write " << lintSnapshotPath();
        os << "# lint snapshot: default analysis passes over all "
              "shipped kernels at scale 0.5\n"
           << "# regenerate: UNIMEM_UPDATE_GOLDEN=1 ./test_analysis "
              "--gtest_filter='LintSweep.SnapshotMatchesGoldenFile'\n"
           << snapshot;
        GTEST_SKIP() << "golden file regenerated at "
                     << lintSnapshotPath();
    }

    std::ifstream is(lintSnapshotPath());
    ASSERT_TRUE(is) << "missing golden file " << lintSnapshotPath()
                    << " - regenerate with UNIMEM_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] == '#')
            continue;
        golden << line << "\n";
    }
    EXPECT_EQ(snapshot, golden.str())
        << "lint output drifted from the golden snapshot; if the "
           "change is intended, regenerate with UNIMEM_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace unimem
