/**
 * @file
 * Defining your own workload against the public API: a KernelModel
 * subclass whose warp programs are built with the StepProgram helpers.
 *
 * The example models a histogram kernel: streaming element loads,
 * scattered scratchpad increments (a classic bank-conflict workload),
 * and a final flush to global memory. It is then evaluated on the
 * partitioned and unified designs across capacities.
 *
 * Usage:
 *   custom_kernel [--bins=256] [--scale=1.0]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "kernels/step_program.hh"
#include "kernels/workloads.hh"
#include "sim/experiments.hh"

using namespace unimem;

namespace {

class HistogramProgram : public StepProgram
{
  public:
    HistogramProgram(const WarpCtx& ctx, const KernelParams& kp,
                     u32 bins)
        : StepProgram(ctx, kp.regsPerThread, kChunks + 1,
                      kp.sharedBytesPerCta),
          bins_(bins)
    {
        warpGid_ = static_cast<Addr>(ctx.ctaId) * ctx.warpsPerCta +
                   ctx.warpInCta;
    }

    static constexpr u32 kChunks = 24;

  protected:
    void
    emitStep(u32 step) override
    {
        if (step == kChunks) {
            // Flush this warp's private sub-histogram.
            ldShared(static_cast<Addr>(ctx().warpInCta) * bins_ * 4, 4,
                     4);
            stGlobal((2ull << 32) + warpGid_ * bins_ * 4, 4, 4);
            return;
        }
        // Stream a chunk of input elements (coalesced).
        ldGlobal((warpGid_ * kChunks + step) * kWarpWidth * 4, 4, 4);
        alu(2);
        // Scattered increment: read-modify-write of a random bin in the
        // warp's scratchpad sub-histogram.
        for (u32 i = 0; i < 2; ++i) {
            LaneAddrs a{};
            for (u32 lane = 0; lane < kWarpWidth; ++lane)
                a[lane] = static_cast<Addr>(ctx().warpInCta) * bins_ * 4 +
                          rng().range(bins_) * 4;
            ldSharedIdx(a, 4);
            alu(1);
            stSharedIdx(a, 4);
        }
    }

  private:
    u32 bins_;
    Addr warpGid_ = 0;
};

class HistogramKernel : public SyntheticKernel
{
  public:
    HistogramKernel(u32 bins, double scale) : bins_(bins)
    {
        params_.name = "histogram";
        params_.regsPerThread = 16;
        params_.ctaThreads = 256;
        // One private sub-histogram per warp.
        params_.sharedBytesPerCta = 8 * bins * 4;
        params_.gridCtas = scaledCtas(24, scale);
    }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx& ctx) const override
    {
        return std::make_unique<HistogramProgram>(ctx, params_, bins_);
    }

  private:
    u32 bins_;
};

} // namespace

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv, "usage: custom_kernel [flags]",
                 {{"bins", "N", "histogram bins (default 256)"},
                  {"scale", "F", "workload scale (default 1.0)"}});
    u32 bins = args.getCount("bins", 256);
    double scale = args.getDouble("scale", 1.0);

    HistogramKernel kernel(bins, scale);
    std::cout << "custom kernel '" << kernel.params().name << "': "
              << bins << " bins, "
              << Table::num(kernel.params().sharedBytesPerThread(), 1)
              << " B scratchpad/thread\n\n";

    RunSpec part;
    SimResult base = simulate(kernel, part);

    Table t({"design", "partition", "threads", "cycles", "perf",
             "conflict stall cyc", "instr <=1 bank"});
    auto row = [&](const char* label, const SimResult& r) {
        t.addRow({label, r.alloc.partition.str(),
                  std::to_string(r.alloc.launch.threads),
                  std::to_string(r.cycles()),
                  Table::num(static_cast<double>(base.cycles()) /
                                 static_cast<double>(r.cycles()),
                             3),
                  std::to_string(r.sm.conflictPenaltyCycles),
                  Table::num(r.sm.conflictHist.fraction(0) * 100.0, 1) +
                      "%"});
    };
    row("partitioned 384KB", base);

    for (u64 kb : {128ull, 256ull, 384ull}) {
        RunSpec uni;
        uni.design = DesignKind::Unified;
        uni.unifiedCapacity = kb * 1024;
        HistogramKernel k2(bins, scale);
        AllocationDecision d = resolveAllocation(k2.params(), uni);
        if (!d.launch.feasible)
            continue;
        SimResult r = simulate(k2, uni);
        std::string label = "unified " + std::to_string(kb) + "KB";
        row(label.c_str(), r);
    }
    t.print(std::cout);

    std::cout << "\nThe scattered scratchpad increments show the unified "
                 "design's coarser scatter granularity (8 clusters of "
                 "16B vs 32 banks of 4B, paper Section 4.2) in the "
                 "conflict columns.\n";
    return 0;
}
