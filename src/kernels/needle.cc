/**
 * @file
 * Needleman-Wunsch DNA sequence alignment (Rodinia "needle").
 *
 * The 2048x2048 dynamic-programming matrix is processed in BF x BF tiles;
 * a tile plus its reference block live in the scratchpad, giving the
 * paper's ~264 bytes of shared memory per thread at BF=32 (Table 1) and
 * making the kernel shared-memory limited. Processing sweeps 2*BF-1
 * anti-diagonals with a barrier per step. Border columns are fetched with
 * an 8 KB row stride, so each fetched cache line contributes only 4 used
 * bytes - the line overfetch that makes needle's DRAM traffic *lower*
 * without a cache (Table 1: 0.85).
 *
 * The blocking factor is a tuning parameter (paper Section 6.5 /
 * Figure 11): larger BF means fewer barriers and less redundant border
 * traffic but quadratically more scratchpad per CTA.
 */

#include <algorithm>

#include "common/log.hh"
#include "kernels/step_program.hh"
#include "kernels/workloads.hh"

namespace unimem {

namespace {

constexpr u32 kMatrixDim = 2048;
constexpr u32 kRowBytes = kMatrixDim * 4;

// The DP matrix is padded with a boundary row/column (the real kernel
// scores against row -1 / column -1), so cell (0, 0) sits one row into
// the allocation. Padding by a whole row keeps every address 128-byte
// line-aligned exactly as before while the edge tiles' border reads
// (cellAddr - kRowBytes, cellAddr - 4) stay inside the buffer instead
// of underflowing (caught by unimem-lint's global-in-local-aperture).
constexpr Addr kMatrixBase = kRowBytes;
constexpr Addr kRefBase = 1ull << 32;

class NeedleProgram : public StepProgram
{
  public:
    NeedleProgram(const WarpCtx& ctx, const KernelParams& kp, u32 bf)
        : StepProgram(ctx, kp.regsPerThread, 2 + (2 * bf - 1),
                      kp.sharedBytesPerCta),
          bf_(bf)
    {
        u32 tiles_per_row = kMatrixDim / bf_;
        tileRow_ = (ctx.ctaId / tiles_per_row) % tiles_per_row;
        tileCol_ = ctx.ctaId % tiles_per_row;
    }

  protected:
    void
    emitStep(u32 step) override
    {
        if (step == 0)
            emitPrologue();
        else if (step <= 2 * bf_ - 1)
            emitDiagonal(step - 1);
        else
            emitEpilogue();
    }

  private:
    /** Per-warp lane count and column offset for BF=64 two-warp CTAs. */
    u32 warpCols() const { return std::min(bf_, kWarpWidth); }
    u32 colBase() const { return ctx().warpInCta * kWarpWidth; }

    Addr
    cellAddr(u32 row, u32 col) const
    {
        return kMatrixBase +
               (static_cast<Addr>(tileRow_ * bf_ + row) * kMatrixDim +
                tileCol_ * bf_ + col) *
                   4;
    }

    /**
     * Scratchpad offset of DP cell i on anti-diagonal d.
     *
     * The DP tile uses a diagonal-major rotating layout (four live
     * diagonals), the standard bank-conflict-free organization for
     * wavefront kernels: cells of one diagonal are contiguous, so warp
     * accesses are unit-stride. The CTA still allocates the full
     * 2*(BF+1)^2 words (paper Table 1 footprint); the trace simply only
     * touches the live diagonals plus the reference block.
     */
    Addr
    diagOff(u32 d, u32 i) const
    {
        return (static_cast<Addr>(d % 4) * (bf_ + 2) + i + 1) * 4;
    }

    /** Scratchpad offset in the row-major reference block. */
    Addr
    refOff(u32 i, u32 j) const
    {
        return static_cast<Addr>(4) * (bf_ + 2) * 4 +
               (static_cast<Addr>(i) * bf_ + j) * 4;
    }

    void
    emitPrologue()
    {
        u32 mask = laneMask(warpCols());
        // Reference block rows: coalesced full-line row segments.
        for (u32 i = 0; i < bf_; ++i) {
            if (i % ctx().warpsPerCta != ctx().warpInCta)
                continue; // split rows across the CTA's warps
            ldGlobal(kRefBase + cellAddr(i, colBase()), 4, 4, mask);
            stShared(refOff(i, colBase()), 4, 4, mask);
        }
        // Left border column: one 4-byte cell per 8KB matrix row, so
        // each line fetched for it is only fractionally used (two cells
        // per lane over half the lanes).
        u32 col_mask = laneMask(std::min(warpCols(), 16u));
        LaneAddrs col{};
        for (u32 lane = 0; lane < kWarpWidth; ++lane)
            col[lane] = cellAddr(colBase() + 2 * lane, 0) - 4;
        ldGlobalIdx(col, 4, col_mask);
        stShared(diagOff(0, colBase()), 4, 4, mask);
        // Top border row: coalesced.
        if (ctx().warpInCta == 0) {
            ldGlobal(cellAddr(0, 0) - kRowBytes, 4, 4, laneMask(bf_));
            stShared(diagOff(1, 0), 4, 4, laneMask(bf_));
        }
        barrier();
    }

    void
    emitDiagonal(u32 d)
    {
        // Cells on anti-diagonal d: (i, d-i). Lanes cover rows; this
        // warp owns rows [colBase, colBase+32).
        u32 active = 0;
        LaneAddrs nw{}, n{}, w{}, ref{}, out{};
        for (u32 lane = 0; lane < kWarpWidth; ++lane) {
            u32 i = colBase() + lane;
            if (i > d || i >= bf_ || d - i >= bf_)
                continue;
            u32 j = d - i;
            nw[lane] = diagOff(d, i);
            n[lane] = diagOff(d + 1, i);
            w[lane] = diagOff(d + 1, i + 1);
            ref[lane] = refOff(i, j);
            out[lane] = diagOff(d + 2, i);
            active |= 1u << lane;
        }
        if (active != 0) {
            ldSharedIdx(nw, 4, active);
            ldSharedIdx(n, 4, active);
            ldSharedIdx(w, 4, active);
            ldSharedIdx(ref, 4, active);
            alu(2);
            stSharedIdx(out, 4, active);
        }
        barrier();
    }

    void
    emitEpilogue()
    {
        u32 mask = laneMask(warpCols());
        for (u32 i = 0; i < bf_; ++i) {
            if (i % ctx().warpsPerCta != ctx().warpInCta)
                continue;
            ldShared(diagOff(i, colBase()), 4, 4, mask);
            stGlobal(cellAddr(i, colBase()), 4, 4, mask);
        }
    }

    u32 bf_;
    u32 tileRow_ = 0;
    u32 tileCol_ = 0;
};

class NeedleKernel : public SyntheticKernel
{
  public:
    NeedleKernel(u32 bf, double scale) : bf_(bf)
    {
        if (bf != 16 && bf != 32 && bf != 64)
            fatal("needle: blocking factor %u not in {16, 32, 64}", bf);
        params_.name = bf == 32 ? "needle"
                                : strprintf("needle-bf%u", bf);
        params_.regsPerThread = 18;
        params_.sharedBytesPerCta = 2 * (bf + 1) * (bf + 1) * 4;
        params_.ctaThreads = std::max(bf, kWarpWidth);
        // Constant total matrix work: tiles shrink quadratically in BF.
        params_.gridCtas = scaledCtas(96 * 32 * 32 / (bf * bf), scale);
        params_.spillCurve = SpillCurve({{18, 1.02}, {24, 1.0}});
    }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx& ctx) const override
    {
        return std::make_unique<NeedleProgram>(ctx, params_, bf_);
    }

  private:
    u32 bf_;
};

} // namespace

std::unique_ptr<KernelModel>
makeNeedle(u32 blockingFactor, double scale)
{
    return std::make_unique<NeedleKernel>(blockingFactor, scale);
}

} // namespace unimem
