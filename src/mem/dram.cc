#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"

namespace unimem {

DramModel::DramModel(u32 bytesPerCycle, u32 latency)
    : bytesPerCycle_(bytesPerCycle), latency_(latency)
{
    if (bytesPerCycle_ == 0)
        fatal("DramModel: zero bandwidth");
}

Cycle
DramModel::occupy(Cycle now, u32 sectors)
{
    if (sectors == 0)
        panic("DramModel: zero-sector request");
    Cycle start = std::max(now, nextFree_);
    u64 bytes = static_cast<u64>(sectors) * kDramSectorBytes;
    Cycle xfer = (bytes + bytesPerCycle_ - 1) / bytesPerCycle_;
    nextFree_ = start + xfer;
    return start + xfer;
}

Cycle
DramModel::read(Cycle now, u32 sectors)
{
    Cycle drained = occupy(now, sectors);
    ++stats_.readRequests;
    stats_.readSectors += sectors;
    return drained + latency_;
}

Cycle
DramModel::write(Cycle now, u32 sectors)
{
    Cycle drained = occupy(now, sectors);
    ++stats_.writeRequests;
    stats_.writeSectors += sectors;
    return drained;
}

} // namespace unimem
