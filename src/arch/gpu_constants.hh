/**
 * @file
 * Fixed architectural constants of the modeled streaming multiprocessor
 * (paper Section 2.1 / Table 2). Capacities that the unified design varies
 * are NOT here; they live in core/partition.hh.
 */

#ifndef UNIMEM_ARCH_GPU_CONSTANTS_HH
#define UNIMEM_ARCH_GPU_CONSTANTS_HH

#include "common/types.hh"

namespace unimem {

/** Threads per warp (SIMT width). */
constexpr u32 kWarpWidth = 32;

/** SIMT lane clusters per SM; each cluster has 4 lanes and 4 MRF banks. */
constexpr u32 kNumClusters = 8;

/** SIMT lanes per cluster. */
constexpr u32 kLanesPerCluster = 4;

/** MRF banks per cluster (one 16-byte-wide bank per lane). */
constexpr u32 kBanksPerCluster = 4;

/** Total physical banks per SM in every design (keeps bandwidth constant). */
constexpr u32 kBanksPerSm = kNumClusters * kBanksPerCluster;

/** Maximum resident threads per SM. */
constexpr u32 kMaxThreadsPerSm = 1024;

/** Maximum resident warps per SM. */
constexpr u32 kMaxWarpsPerSm = kMaxThreadsPerSm / kWarpWidth;

/** Architectural registers per thread the model supports (ids below). */
constexpr u32 kMaxArchRegs = 256;

/** Cache line size in bytes (both designs). */
constexpr u32 kCacheLineBytes = 128;

/** Minimum DRAM transfer granule in bytes (a "sector"). */
constexpr u32 kDramSectorBytes = 32;

/** Bytes per architectural register per thread. */
constexpr u32 kRegBytes = 4;

/** Width of a unified memory bank in bytes. */
constexpr u32 kUnifiedBankWidth = 16;

/** Width of a partitioned shared/cache bank in bytes. */
constexpr u32 kPartitionedBankWidth = 4;

/** Default pipeline latencies (paper Table 2). */
struct Latencies
{
    u32 alu = 8;
    u32 sfu = 20;
    u32 sharedMem = 20;
    u32 texture = 400;
    u32 dram = 400;
    /** Latency of a primary-cache hit for a global access. */
    u32 cacheHit = 20;
};

/** DRAM bandwidth share of one SM, bytes per cycle (paper Table 2). */
constexpr u32 kDramBytesPerCycle = 8;

/** Address-space bases for synthetic traces. */
constexpr Addr kGlobalBase = 0;
constexpr Addr kLocalBase = Addr(1) << 40;

} // namespace unimem

#endif // UNIMEM_ARCH_GPU_CONSTANTS_HH
