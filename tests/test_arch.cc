/**
 * @file
 * Unit tests for the arch layer: opcode classification, warp instruction
 * construction, spill curves, kernel parameter validation, trace
 * streaming, and spill/fill injection.
 */

#include <gtest/gtest.h>

#include "arch/kernel_params.hh"
#include "arch/spill_injector.hh"
#include "arch/warp_program.hh"

namespace unimem {
namespace {

TEST(Opcode, Classification)
{
    EXPECT_TRUE(isMemOp(Opcode::LdGlobal));
    EXPECT_TRUE(isMemOp(Opcode::Tex));
    EXPECT_FALSE(isMemOp(Opcode::IntAlu));
    EXPECT_FALSE(isMemOp(Opcode::Bar));

    EXPECT_TRUE(isLoad(Opcode::LdShared));
    EXPECT_FALSE(isLoad(Opcode::StShared));
    EXPECT_TRUE(isStore(Opcode::StLocal));

    EXPECT_TRUE(isGlobalSpace(Opcode::LdLocal));
    EXPECT_FALSE(isGlobalSpace(Opcode::LdShared));
    EXPECT_TRUE(isSharedSpace(Opcode::StShared));

    EXPECT_TRUE(isLongLatency(Opcode::LdGlobal));
    EXPECT_TRUE(isLongLatency(Opcode::Tex));
    EXPECT_FALSE(isLongLatency(Opcode::LdShared));
    EXPECT_FALSE(isLongLatency(Opcode::StGlobal));
}

TEST(Opcode, NamesAreDistinct)
{
    EXPECT_STREQ(opcodeName(Opcode::IntAlu), "ialu");
    EXPECT_STRNE(opcodeName(Opcode::LdGlobal),
                 opcodeName(Opcode::StGlobal));
}

TEST(WarpInstr, FactoryAlu)
{
    WarpInstr in = instr::alu(5, 3, 4);
    EXPECT_EQ(in.op, Opcode::IntAlu);
    EXPECT_EQ(in.dst, 5);
    EXPECT_EQ(in.numSrc, 2);
    EXPECT_TRUE(in.hasDst());
    EXPECT_EQ(in.numActive(), 32u);
}

TEST(WarpInstr, FactoryMem)
{
    WarpInstr ld = instr::mem(Opcode::LdGlobal, 7, 2);
    EXPECT_EQ(ld.dst, 7);
    EXPECT_EQ(ld.numSrc, 1);

    WarpInstr st = instr::mem(Opcode::StGlobal, 7, 2, 0x0000ffffu);
    EXPECT_FALSE(st.hasDst());
    EXPECT_EQ(st.numSrc, 2);
    EXPECT_EQ(st.numActive(), 16u);
    EXPECT_TRUE(st.laneActive(0));
    EXPECT_FALSE(st.laneActive(31));
}

TEST(SpillCurve, IdentityByDefault)
{
    SpillCurve c;
    EXPECT_TRUE(c.identity());
    EXPECT_DOUBLE_EQ(c.multiplier(8), 1.0);
    EXPECT_DOUBLE_EQ(c.multiplier(64), 1.0);
}

TEST(SpillCurve, InterpolatesBetweenPoints)
{
    SpillCurve c({{18, 1.42}, {24, 1.22}, {32, 1.0}});
    EXPECT_DOUBLE_EQ(c.multiplier(18), 1.42);
    EXPECT_NEAR(c.multiplier(21), 1.32, 1e-9);
    EXPECT_DOUBLE_EQ(c.multiplier(32), 1.0);
    EXPECT_DOUBLE_EQ(c.multiplier(64), 1.0);
}

TEST(SpillCurve, ExtrapolatesBelowFirstPoint)
{
    SpillCurve c({{18, 1.42}, {24, 1.22}});
    double m12 = c.multiplier(12);
    EXPECT_GT(m12, 1.42);
    EXPECT_LE(m12, SpillCurve::kMaxMultiplier);
}

TEST(SpillCurve, MonotonicNonIncreasing)
{
    SpillCurve c({{18, 1.39}, {24, 1.18}, {32, 1.03}, {40, 1.0}});
    double prev = c.multiplier(8);
    for (u32 r = 9; r <= 64; ++r) {
        double m = c.multiplier(r);
        EXPECT_LE(m, prev + 1e-12) << "at r=" << r;
        prev = m;
    }
}

TEST(KernelParams, SharedPerThread)
{
    KernelParams kp;
    kp.name = "t";
    kp.ctaThreads = 256;
    kp.sharedBytesPerCta = 1024;
    EXPECT_DOUBLE_EQ(kp.sharedBytesPerThread(), 4.0);
    EXPECT_EQ(kp.warpsPerCta(), 8u);
    kp.validate(); // must not die
}

TEST(InstrStream, PeekPopAndExhaustion)
{
    std::vector<WarpInstr> v = {instr::alu(0), instr::alu(1),
                                instr::bar()};
    InstrStream s(std::make_unique<FixedProgram>(v));
    ASSERT_NE(s.peek(), nullptr);
    EXPECT_EQ(s.peek()->dst, 0);
    EXPECT_EQ(s.peek()->dst, 0); // peek is idempotent
    s.pop();
    EXPECT_EQ(s.peek()->dst, 1);
    s.pop();
    EXPECT_EQ(s.peek()->op, Opcode::Bar);
    s.pop();
    EXPECT_EQ(s.peek(), nullptr);
    EXPECT_TRUE(s.exhausted());
}

std::vector<WarpInstr>
drain(WarpProgram& prog)
{
    std::vector<WarpInstr> out;
    while (prog.fill(out)) {
    }
    return out;
}

TEST(SpillInjector, NoSpillsWhenRegsSufficient)
{
    std::vector<WarpInstr> base(100, instr::alu(3, 1, 2));
    SpillConfig cfg;
    cfg.neededRegs = 16;
    cfg.allocatedRegs = 16;
    cfg.multiplier = 1.0;
    SpillInjector inj(std::make_unique<FixedProgram>(base), cfg, 0);
    std::vector<WarpInstr> out = drain(inj);
    EXPECT_EQ(out.size(), base.size());
    for (const WarpInstr& in : out)
        EXPECT_NE(in.op, Opcode::StLocal);
}

TEST(SpillInjector, InjectsAtConfiguredRate)
{
    std::vector<WarpInstr> base(1000, instr::alu(3, 1, 2));
    SpillConfig cfg;
    cfg.neededRegs = 32;
    cfg.allocatedRegs = 18;
    cfg.multiplier = 1.4;
    SpillInjector inj(std::make_unique<FixedProgram>(base), cfg, 0);
    std::vector<WarpInstr> out = drain(inj);
    EXPECT_NEAR(static_cast<double>(out.size()) / base.size(), 1.4, 0.01);

    // Injected ops alternate stores and fills in local space.
    u64 st = 0, ld = 0;
    for (const WarpInstr& in : out) {
        if (in.op == Opcode::StLocal)
            ++st;
        else if (in.op == Opcode::LdLocal)
            ++ld;
    }
    EXPECT_NEAR(static_cast<double>(st), static_cast<double>(ld), 1.0);
    EXPECT_EQ(st + ld, out.size() - base.size());
}

TEST(SpillInjector, RemapsRegistersIntoAllocatedRange)
{
    std::vector<WarpInstr> base;
    for (RegId r = 0; r < 32; ++r)
        base.push_back(instr::alu(r, static_cast<RegId>(31 - r)));
    SpillConfig cfg;
    cfg.neededRegs = 32;
    cfg.allocatedRegs = 18;
    cfg.multiplier = 1.2;
    SpillInjector inj(std::make_unique<FixedProgram>(base), cfg, 3);
    for (const WarpInstr& in : drain(inj)) {
        if (in.hasDst()) {
            EXPECT_LT(in.dst, cfg.allocatedRegs);
        }
        for (u8 s = 0; s < in.numSrc; ++s) {
            EXPECT_LT(in.src[s], cfg.allocatedRegs);
        }
    }
}

TEST(SpillInjector, SpillAddressesCoalesceAndAreWarpPrivate)
{
    SpillConfig cfg;
    cfg.neededRegs = 24;
    cfg.allocatedRegs = 18;
    cfg.multiplier = 1.3;
    SpillInjector a(std::make_unique<FixedProgram>(std::vector<WarpInstr>{}), cfg, 0);
    SpillInjector b(std::make_unique<FixedProgram>(std::vector<WarpInstr>{}), cfg, 1);

    // Lane-interleaved: consecutive lanes 4B apart (coalesced line).
    EXPECT_EQ(a.slotAddr(0, 1) - a.slotAddr(0, 0), 4u);
    EXPECT_GE(a.slotAddr(0, 0), kLocalBase);
    // Different warps never overlap.
    u64 warp_bytes =
        static_cast<u64>(cfg.numSlots()) * kWarpWidth * kRegBytes;
    EXPECT_EQ(b.slotAddr(0, 0) - a.slotAddr(0, 0), warp_bytes);
}

TEST(SpillInjector, BarriersNeverSpill)
{
    std::vector<WarpInstr> base(50, instr::bar());
    SpillConfig cfg;
    cfg.neededRegs = 32;
    cfg.allocatedRegs = 18;
    cfg.multiplier = 2.0;
    SpillInjector inj(std::make_unique<FixedProgram>(base), cfg, 0);
    std::vector<WarpInstr> out = drain(inj);
    EXPECT_EQ(out.size(), base.size());
}

} // namespace
} // namespace unimem

// ---- Trace serialization (arch/trace_io) -------------------------------

#include <sstream>

#include "arch/trace_io.hh"
#include "kernels/registry.hh"

namespace unimem {
namespace {

/** Tiny kernel covering every opcode and a partial mask. */
class TraceProbeKernel : public KernelModel
{
  public:
    TraceProbeKernel()
    {
        params_.name = "probe";
        params_.regsPerThread = 8;
        params_.sharedBytesPerCta = 1024;
        params_.ctaThreads = 64;
        params_.gridCtas = 2;
    }

    const KernelParams& params() const override { return params_; }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx& ctx) const override
    {
        std::vector<WarpInstr> v;
        v.push_back(instr::alu(1, 0));
        v.push_back(instr::alu(2, 1, 3, kInvalidReg, true));
        v.push_back(instr::sfu(3, 2));

        WarpInstr ld = instr::mem(Opcode::LdGlobal, 4, 1, 0x0f0f0f0fu);
        for (u32 lane = 0; lane < kWarpWidth; ++lane)
            ld.addr[lane] = 0x1000 + ctx.ctaId * 4096 +
                            ctx.warpInCta * 512 + lane * 8;
        ld.accessBytes = 8;
        v.push_back(ld);

        WarpInstr st = instr::mem(Opcode::StShared, 4, 2);
        for (u32 lane = 0; lane < kWarpWidth; ++lane)
            st.addr[lane] = static_cast<Addr>(ctx.ctaId) * 1024 +
                            lane * 4;
        v.push_back(st);
        v.push_back(instr::bar());

        WarpInstr tex = instr::mem(Opcode::Tex, 5, 1);
        for (u32 lane = 0; lane < kWarpWidth; ++lane)
            tex.addr[lane] = lane * 128;
        v.push_back(tex);
        return std::make_unique<FixedProgram>(v);
    }

  private:
    KernelParams params_;
};

TEST(TraceIo, RoundTripPreservesEverything)
{
    TraceProbeKernel k;
    std::stringstream ss;
    writeTrace(k, ss);
    TraceFileKernel loaded(ss);

    EXPECT_EQ(loaded.params().name, "probe");
    EXPECT_EQ(loaded.params().regsPerThread, 8u);
    EXPECT_EQ(loaded.params().sharedBytesPerCta, 1024u);
    EXPECT_EQ(loaded.params().ctaThreads, 64u);
    EXPECT_EQ(loaded.params().gridCtas, 2u);
    EXPECT_EQ(loaded.numWarps(), 4u); // 2 CTAs x 2 warps

    for (u32 cta = 0; cta < 2; ++cta) {
        for (u32 w = 0; w < 2; ++w) {
            WarpCtx ctx;
            ctx.ctaId = cta;
            ctx.warpInCta = w;
            ctx.warpsPerCta = 2;
            ctx.threadsPerCta = 64;
            std::vector<WarpInstr> a, b;
            auto pa = k.warpProgram(ctx);
            while (pa->fill(a)) {
            }
            auto pb = loaded.warpProgram(ctx);
            while (pb->fill(b)) {
            }
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].op, b[i].op) << i;
                EXPECT_EQ(a[i].dst, b[i].dst) << i;
                EXPECT_EQ(a[i].numSrc, b[i].numSrc) << i;
                EXPECT_EQ(a[i].activeMask, b[i].activeMask) << i;
                EXPECT_EQ(a[i].accessBytes, b[i].accessBytes) << i;
                if (isMemOp(a[i].op)) {
                    for (u32 lane = 0; lane < kWarpWidth; ++lane) {
                        if (a[i].laneActive(lane)) {
                            EXPECT_EQ(a[i].addr[lane], b[i].addr[lane])
                                << i << " lane " << lane;
                        }
                    }
                }
            }
        }
    }
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream ss("not-a-trace 1\n");
    EXPECT_DEATH({ TraceFileKernel k(ss); }, "magic");
}

TEST(TraceIo, RejectsWrongVersion)
{
    std::stringstream ss("unimem-trace 99\nkernel x regs 8 cta 32 "
                         "grid 1\n");
    EXPECT_DEATH({ TraceFileKernel k(ss); }, "version");
}

TEST(TraceIo, RejectsMissingWarps)
{
    std::stringstream ss(
        "unimem-trace 1\nkernel x regs 8 shared 0 cta 64 grid 2\n"
        "warp 0 0\ni ialu 1 0 65535 65535 ffffffff 4\nend\n");
    EXPECT_DEATH({ TraceFileKernel k(ss); }, "warp streams");
}

TEST(TraceIo, RejectsAddressesWithoutMemOp)
{
    std::stringstream ss(
        "unimem-trace 1\nkernel x regs 8 shared 0 cta 32 grid 1\n"
        "warp 0 0\na 1000\nend\n");
    EXPECT_DEATH({ TraceFileKernel k(ss); },
                 "line 4: address line without a memory op");
}

/** One warp of a 32-thread, 1-CTA kernel whose body is @p body. */
std::string
oneWarpTrace(const std::string& body)
{
    return "unimem-trace 1\nkernel x regs 8 shared 0 cta 32 grid 1\n"
           "warp 0 0\n" +
           body + "end\n";
}

TEST(TraceIo, RejectsOutOfRangeRegisters)
{
    // 70001 used to wrap to register 4465 and panic in the Scoreboard.
    std::stringstream wide(
        oneWarpTrace("i ialu 70001 0 65535 65535 ffffffff 4\n"));
    EXPECT_DEATH({ TraceFileKernel k(wide); },
                 "line 4: register 70001 out of range");
    std::stringstream src(oneWarpTrace("# comment\n"
                                       "i ialu 1 0 256 65535 ffffffff 4\n"));
    EXPECT_DEATH({ TraceFileKernel k(src); },
                 "line 5: register 256 out of range");
}

TEST(TraceIo, RejectsOutOfRangeAccessSizes)
{
    // 260 used to truncate silently to 4.
    std::stringstream big(oneWarpTrace(
        "i ld.global 1 0 65535 65535 1 260\na 1000\n"));
    EXPECT_DEATH({ TraceFileKernel k(big); },
                 "line 4: access size 260 out of range");
    std::stringstream zero(oneWarpTrace(
        "i ialu 2 0 65535 65535 ffffffff 4\n"
        "i st.shared 65535 2 65535 65535 1 0\na 40\n"));
    EXPECT_DEATH({ TraceFileKernel k(zero); },
                 "line 5: access size 0 out of range");
    // A 16-byte shared load of all 32 lanes once overran the conflict
    // model's word buffer; sizes outside 1/2/4/8/16 are rejected too.
    for (u32 bytes : {3u, 12u, 32u}) {
        std::stringstream odd(oneWarpTrace(
            "i ld.shared 1 0 65535 65535 1 " + std::to_string(bytes) +
            "\na 40\n"));
        EXPECT_EXIT({ TraceFileKernel k(odd); },
                    ::testing::ExitedWithCode(1),
                    "line 4: access size " + std::to_string(bytes) +
                        " out of range");
    }
}

TEST(TraceIo, RejectsLineCrossingAccess)
{
    // Lane 1's bytes 0x7c..0x83 straddle the line at 0x80.
    std::stringstream cross(oneWarpTrace(
        "i ld.shared 1 0 65535 65535 3 8\na 40 7c\n"));
    EXPECT_EXIT({ TraceFileKernel k(cross); }, ::testing::ExitedWithCode(1),
                "line 5: lane 1's 8-byte access at 0x7c crosses a 128-byte "
                "line");
    std::stringstream wide(oneWarpTrace(
        "i ld.global 1 0 65535 65535 80000000 16\na 1078\n"));
    EXPECT_EXIT({ TraceFileKernel k(wide); }, ::testing::ExitedWithCode(1),
                "line 5: lane 31's 16-byte access at 0x1078 crosses");
    // Ending exactly on the line boundary is fine.
    std::stringstream fits(oneWarpTrace(
        "i ld.shared 1 0 65535 65535 3 8\na 40 78\n"));
    TraceFileKernel k(fits);
    EXPECT_EQ(k.numWarps(), 1u);
}

TEST(TraceIo, AllKernelsRoundTrip)
{
    // Every shipped kernel dumps a trace the parser's checks accept.
    for (const BenchmarkInfo& info : allBenchmarks()) {
        SCOPED_TRACE(info.name);
        auto kernel = createBenchmark(info.name, 0.02);
        std::stringstream ss;
        writeTrace(*kernel, ss);
        TraceFileKernel loaded(ss);
        const KernelParams& kp = kernel->params();
        EXPECT_EQ(loaded.numWarps(),
                  static_cast<size_t>(kp.gridCtas) * kp.warpsPerCta());
    }
}

TEST(TraceIo, RejectsMemoryOpWithoutAddressLine)
{
    // Used to load with every address zero.
    std::stringstream mid(oneWarpTrace(
        "i ld.global 1 0 65535 65535 1 4\n"
        "i ialu 2 1 65535 65535 ffffffff 4\n"));
    EXPECT_DEATH({ TraceFileKernel k(mid); },
                 "line 4: memory op has no address line");
    std::stringstream eof(
        "unimem-trace 1\nkernel x regs 8 shared 0 cta 32 grid 1\n"
        "warp 0 0\ni tex 1 0 65535 65535 1 4\n");
    EXPECT_DEATH({ TraceFileKernel k(eof); },
                 "line 4: memory op has no address line");
}

TEST(TraceIo, HeaderErrorsNameTheirLine)
{
    std::stringstream magic("not-a-trace 1\n");
    EXPECT_DEATH({ TraceFileKernel k(magic); }, "line 1: bad magic");
    std::stringstream wide("unimem-trace 1\nkernel x regs 4294967304\n");
    EXPECT_DEATH({ TraceFileKernel k(wide); },
                 "line 2: value 4294967304 for 'regs' out of range");
    std::stringstream attr("unimem-trace 1\nkernel x regs 8 colour 3\n");
    EXPECT_DEATH({ TraceFileKernel k(attr); },
                 "line 2: unknown kernel attribute 'colour'");
    std::stringstream op(oneWarpTrace("i nop 1 0 65535 65535 1 4\n"));
    EXPECT_DEATH({ TraceFileKernel k(op); }, "line 4: unknown opcode 'nop'");
}

} // namespace
} // namespace unimem
