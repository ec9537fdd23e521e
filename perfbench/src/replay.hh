/**
 * @file
 * Layer replays: feed a kernel's per-warp instruction streams through
 * each layer's public function outside SmModel, one span per layer per
 * chunk, so every layer's cost per call is measured on the workload's
 * own instructions.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include "arch/kernel_model.hh"

namespace perfbench {

using namespace unimem;

struct ReplayTotals
{
    u64 instrs = 0;
    double fillS = 0.0;

    u64 evalsPartitioned = 0;
    double partitionedS = 0.0;
    u64 evalsUnified = 0;
    double unifiedS = 0.0;

    u64 coalesceCalls = 0;
    u64 coalescedLines = 0;
    double coalesceS = 0.0;

    u64 cacheAccesses = 0;
    double cacheS = 0.0;

    u64 dramRequests = 0;
    double dramS = 0.0;

    /** Folded outputs of every call, so no call is optimized away. */
    u64 sink = 0;

    void add(const ReplayTotals& o);
};

/**
 * Replay the first @p instrCap instructions of @p kernel's warps (CTA by
 * CTA, warp by warp, trace seed @p seed) through WarpProgram::fill,
 * WarpRegFile operand fetch, both ConflictModel designs, coalesce, a
 * baseline-sized DataCache and a DramModel.
 */
ReplayTotals replayLayers(const KernelModel& kernel, u64 seed, u64 instrCap);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
