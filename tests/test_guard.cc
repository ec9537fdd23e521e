/**
 * @file
 * Livelock-guard regression tests.
 *
 * The guard counts advance-loop iterations *without the clock moving*
 * and only panics when one clock value accumulates an absurd number of
 * them. An earlier draft budgeted total iterations instead, which a
 * chip co-simulation slicing the run into thousands of short
 * advance(limit) calls (each re-entering the loop at the same clock
 * value it left) could trip on a perfectly healthy kernel. These tests
 * pin both properties: sliced stepping produces bit-identical results,
 * and the guard's high-water mark stays O(1) no matter how the run is
 * chopped up.
 */

#include <memory>

#include <gtest/gtest.h>

#include "kernels/registry.hh"
#include "sim/simulator.hh"
#include "sm/sm.hh"

namespace unimem {
namespace {

SmRunConfig
configFor(const KernelModel& kernel, DesignKind design)
{
    RunSpec spec;
    spec.design = design;
    AllocationDecision alloc = resolveAllocation(kernel.params(), spec);
    EXPECT_TRUE(alloc.launch.feasible);
    return smRunConfigFor(spec, alloc);
}

/** A whole run in one advance() keeps the no-progress counter tiny. */
TEST(LivelockGuard, WholeRunPeakIsSmall)
{
    std::unique_ptr<KernelModel> k = createBenchmark("dgemm", 0.05);
    SmModel sm(configFor(*k, DesignKind::Unified), *k);
    sm.run();
    // Each clock value gets a handful of iterations (event drain,
    // issue, port-busy jump); anything beyond that indicates the loop
    // is spinning without progress.
    EXPECT_LE(sm.guardPeak(), 8u);
    EXPECT_GT(sm.stats().cycles, 0u);
}

/**
 * Interleaved one-cycle advance() slices re-enter the loop at the same
 * clock value tens of thousands of times across the run. The guard
 * must not accumulate across calls that *do* make progress, and the
 * result must match the unsliced run bit for bit.
 */
TEST(LivelockGuard, SlicedAdvanceMatchesAndDoesNotTrip)
{
    for (DesignKind design :
         {DesignKind::Partitioned, DesignKind::Unified}) {
        std::unique_ptr<KernelModel> k1 = createBenchmark("dgemm", 0.02);
        SmModel whole(configFor(*k1, design), *k1);
        whole.run();

        std::unique_ptr<KernelModel> k2 = createBenchmark("dgemm", 0.02);
        SmModel sliced(configFor(*k2, design), *k2);
        sliced.start();
        u64 slices = 0;
        while (!sliced.finished()) {
            // Alternate 1-cycle and 3-cycle limits so slice boundaries
            // land both on and between interesting cycles.
            Cycle step = (slices & 1) ? 3 : 1;
            sliced.advance(sliced.now() + step);
            ++slices;
            ASSERT_LT(slices, 100u * 1000 * 1000) << "runaway slicing";
        }
        sliced.finalize();

        // advance() may overshoot each limit by one scheduling
        // decision, so slices per cycle can be well below 1; just
        // require enough re-entries to make the test meaningful.
        EXPECT_GT(slices, whole.stats().cycles / 16) << "test is vacuous";
        EXPECT_LE(sliced.guardPeak(), 8u) << designName(design);
        EXPECT_EQ(whole.stats().toStatSet().entries(),
                  sliced.stats().toStatSet().entries())
            << designName(design);
    }
}

} // namespace
} // namespace unimem
