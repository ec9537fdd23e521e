/**
 * @file
 * DRAM channel share model.
 *
 * One SM sees 1/32 of chip DRAM bandwidth (8 bytes/cycle) with a fixed
 * 400-cycle access latency (paper Table 2 and Section 5.1). Requests
 * serialize on bandwidth in arrival order; the model tracks when the
 * channel is next free and returns per-request completion times.
 *
 * Traffic is counted in 32-byte sectors, the minimum DRAM fetch size, so
 * that cache-line overfetch (128-byte fills for partially used lines) is
 * visible in the DRAM-access statistics, as in paper Table 1.
 */

#ifndef UNIMEM_MEM_DRAM_HH
#define UNIMEM_MEM_DRAM_HH

#include "arch/gpu_constants.hh"
#include "common/types.hh"

namespace unimem {

/** DRAM traffic statistics. */
struct DramStats
{
    u64 readSectors = 0;
    u64 writeSectors = 0;
    u64 readRequests = 0;
    u64 writeRequests = 0;

    u64 sectors() const { return readSectors + writeSectors; }
    u64 bytes() const { return sectors() * kDramSectorBytes; }
};

/** Bandwidth/latency model of one SM's DRAM share. */
class DramModel
{
  public:
    explicit DramModel(u32 bytesPerCycle = kDramBytesPerCycle,
                       u32 latency = 400);

    /**
     * Issue a read of @p sectors 32-byte sectors at @p now.
     * @return cycle at which the data is available to the SM.
     */
    Cycle read(Cycle now, u32 sectors);

    /**
     * Issue a write of @p sectors 32-byte sectors at @p now. Writes are
     * posted (no one waits on them) but consume bandwidth.
     * @return cycle at which the write has drained.
     */
    Cycle write(Cycle now, u32 sectors);

    /** First cycle at which a new request could start transferring. */
    Cycle nextFree() const { return nextFree_; }

    const DramStats& stats() const { return stats_; }

  private:
    Cycle occupy(Cycle now, u32 sectors);

    u32 bytesPerCycle_;
    u32 latency_;
    Cycle nextFree_ = 0;
    DramStats stats_;
};

} // namespace unimem

#endif // UNIMEM_MEM_DRAM_HH
