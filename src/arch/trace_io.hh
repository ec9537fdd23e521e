/**
 * @file
 * Warp-trace serialization.
 *
 * The paper's methodology is trace driven: Ocelot produced execution and
 * address traces of CUDA binaries which a custom SM simulator consumed
 * (Section 5.1). This module provides the equivalent interface for this
 * simulator: any KernelModel's trace can be dumped to a portable text
 * format, and a trace file can be loaded back as a KernelModel - so
 * externally produced traces (from an instrumented emulator, a real-GPU
 * profiler, or another simulator) can drive all of the experiments.
 *
 * Format (line oriented, '#' comments):
 *
 *   unimem-trace 1
 *   kernel <name> regs <n> shared <bytes/cta> cta <threads> grid <ctas>
 *   warp <ctaId> <warpInCta>
 *   i <op> <dst> <src0> <src1> <src2> <mask-hex> <bytes>
 *   a <addr-hex> ... (per active lane, only for memory ops)
 *   end
 *
 * <dst>/<srcN> are below kMaxArchRegs, or 65535 for "none". <bytes>
 * is 1, 2, 4, 8 or 16 for memory ops and fits a byte otherwise. Every
 * memory op's "i" line is followed by its "a" line, which lists one
 * address per active lane, lowest lane first; no lane's access may
 * cross a 128-byte line.
 */

#ifndef UNIMEM_ARCH_TRACE_IO_HH
#define UNIMEM_ARCH_TRACE_IO_HH

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/kernel_model.hh"

namespace unimem {

/** Current trace format version. */
constexpr u32 kTraceFormatVersion = 1;

/**
 * Serialize every warp of every CTA of @p kernel to @p os.
 * @param seed launch seed used to generate the traces
 */
void writeTrace(const KernelModel& kernel, std::ostream& os,
                u64 seed = 1);

/** A kernel whose warp traces come from a parsed trace file. */
class TraceFileKernel : public KernelModel
{
  public:
    /**
     * Parse a trace from @p is; fatal() on malformed or out-of-range
     * input, naming the 1-based line.
     */
    explicit TraceFileKernel(std::istream& is);

    const KernelParams& params() const override { return params_; }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx& ctx) const override;

    /** Number of distinct warp streams the file contained. */
    size_t numWarps() const { return warps_.size(); }

  private:
    using WarpKey = std::pair<u32, u32>; // (ctaId, warpInCta)

    KernelParams params_;
    std::map<WarpKey, std::vector<WarpInstr>> warps_;
};

} // namespace unimem

#endif // UNIMEM_ARCH_TRACE_IO_HH
