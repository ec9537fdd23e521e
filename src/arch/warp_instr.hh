/**
 * @file
 * The trace unit consumed by the SM timing model: one warp-wide
 * instruction with per-lane memory addresses.
 */

#ifndef UNIMEM_ARCH_WARP_INSTR_HH
#define UNIMEM_ARCH_WARP_INSTR_HH

#include <array>

#include "arch/gpu_constants.hh"
#include "arch/opcode.hh"
#include "common/types.hh"

namespace unimem {

/** One dynamic warp instruction. */
struct WarpInstr
{
    /**
     * Deliberately leaves @c addr uninitialized: trace generation emits
     * hundreds of thousands of instructions per run, and a 256-byte
     * clear per instruction dominates the emission cost. Every producer
     * of memory ops writes all 32 lanes (or zero-fills explicitly);
     * addresses of non-memory ops are never read.
     */
    WarpInstr() {}

    Opcode op = Opcode::IntAlu;

    /** Destination register, or kInvalidReg. */
    RegId dst = kInvalidReg;

    /** Source registers; only the first numSrc entries are valid. */
    std::array<RegId, 3> src{kInvalidReg, kInvalidReg, kInvalidReg};
    u8 numSrc = 0;

    /** Per-thread access size in bytes for memory ops (validAccessBytes). */
    u8 accessBytes = 4;

    /** Bit i set means lane i executes this instruction. */
    u32 activeMask = 0xffffffffu;

    /** Per-lane byte addresses, valid for memory ops on active lanes. */
    std::array<Addr, kWarpWidth> addr;

    bool hasDst() const { return dst != kInvalidReg; }

    u32
    numActive() const
    {
        return static_cast<u32>(__builtin_popcount(activeMask));
    }

    bool laneActive(u32 lane) const { return (activeMask >> lane) & 1u; }
};

/**
 * The legal memory access, shared by the trace parser (arch/trace_io)
 * and lint (analysis/lint): a lane accesses 1, 2, 4, 8 or 16 bytes --
 * the sizes a GPU ISA issues -- and stays inside one 128-byte line,
 * because the footprint pass (mem/coalescer) records one line per lane.
 */
constexpr bool
validAccessBytes(u32 bytes)
{
    return bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8 ||
           bytes == 16;
}

/** Whether a @p bytes -byte access at @p addr stays inside its line. */
constexpr bool
accessInOneLine(Addr addr, u32 bytes)
{
    return addr % kCacheLineBytes + bytes <= kCacheLineBytes;
}

/**
 * Convenience factories used by the kernel models and tests. All of
 * them fully initialize the instruction (including the address vector),
 * so factory-built programs behave exactly like value-initialized ones.
 */
namespace instr {

WarpInstr
alu(RegId dst, RegId s0 = kInvalidReg, RegId s1 = kInvalidReg,
    RegId s2 = kInvalidReg, bool fp = false);

WarpInstr sfu(RegId dst, RegId s0);

WarpInstr bar();

/** Memory op skeleton; the caller fills per-lane addresses. */
WarpInstr
mem(Opcode op, RegId dstOrData, RegId addrReg, u32 activeMask = 0xffffffffu);

} // namespace instr

inline WarpInstr
instr::alu(RegId dst, RegId s0, RegId s1, RegId s2, bool fp)
{
    WarpInstr in;
    in.addr.fill(0);
    in.op = fp ? Opcode::FpAlu : Opcode::IntAlu;
    in.dst = dst;
    u8 n = 0;
    for (RegId s : {s0, s1, s2})
        if (s != kInvalidReg)
            in.src[n++] = s;
    in.numSrc = n;
    return in;
}

inline WarpInstr
instr::sfu(RegId dst, RegId s0)
{
    WarpInstr in;
    in.addr.fill(0);
    in.op = Opcode::Sfu;
    in.dst = dst;
    in.src[0] = s0;
    in.numSrc = 1;
    return in;
}

inline WarpInstr
instr::bar()
{
    WarpInstr in;
    in.addr.fill(0);
    in.op = Opcode::Bar;
    return in;
}

inline WarpInstr
instr::mem(Opcode op, RegId dstOrData, RegId addrReg, u32 activeMask)
{
    WarpInstr in;
    in.addr.fill(0); // callers often set only a few lanes
    in.op = op;
    in.activeMask = activeMask;
    if (isLoad(op)) {
        in.dst = dstOrData;
        in.src[0] = addrReg;
        in.numSrc = 1;
    } else {
        in.src[0] = addrReg;
        in.src[1] = dstOrData; // store data operand
        in.numSrc = 2;
    }
    return in;
}

} // namespace unimem

#endif // UNIMEM_ARCH_WARP_INSTR_HH
