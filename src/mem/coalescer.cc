#include "mem/coalescer.hh"

#include <cstring>

#include "common/log.hh"

namespace unimem {

void
coalesce(const WarpInstr& in, std::vector<CoalescedAccess>& out)
{
    out.clear();
    if (!isMemOp(in.op))
        panic("coalesce: non-memory opcode %s", opcodeName(in.op));
    // At most one line per lane: entries never move while indexed.
    out.reserve(kWarpWidth);

    const u32 bytes = in.accessBytes;
    // A lane covers the words (addr + 4k) / 4 for 4k < bytes.
    const u32 n_words = (bytes + 3) / 4;
    const u32 lane_words = n_words >= 32 ? ~0u : (1u << n_words) - 1;

    // Open-addressed index of the lines seen so far (entry + 1; 0 is
    // empty). Twice the lane count keeps probe chains short.
    constexpr u32 kSlots = 2 * kWarpWidth;
    u8 slot[kSlots];
    std::memset(slot, 0, sizeof slot);

    CoalescedAccess* acc = nullptr;
    for (u32 m = in.activeMask; m != 0; m &= m - 1) {
        const u32 lane = static_cast<u32>(__builtin_ctz(m));
        const Addr a = in.addr[lane];
        const Addr line = a & ~static_cast<Addr>(kCacheLineBytes - 1);
        const u32 off = static_cast<u32>(a - line);
        if (off + bytes > kCacheLineBytes)
            panic("coalesce: lane %u's %u-byte %s at %#llx crosses its "
                  "128-byte line",
                  lane, bytes, opcodeName(in.op),
                  static_cast<unsigned long long>(a));

        // Same line as the previous active lane: the common unit-stride
        // and broadcast case skips the index.
        if (acc == nullptr || acc->lineAddr != line) {
            u32 h = static_cast<u32>(
                ((line / kCacheLineBytes) * 0x9e3779b97f4a7c15ull) >> 58);
            while (slot[h] != 0 && out[slot[h] - 1].lineAddr != line)
                h = (h + 1) % kSlots;
            if (slot[h] == 0) {
                out.push_back(CoalescedAccess{line, 0, 0, 0});
                slot[h] = static_cast<u8>(out.size());
            }
            acc = &out[slot[h] - 1];
        }
        acc->sectorMask |= static_cast<u8>(1u << (off / kDramSectorBytes));
        acc->bytesTouched += bytes;
        acc->wordMask |= lane_words << (off / 4);
    }
}

std::vector<CoalescedAccess>
coalesce(const WarpInstr& in)
{
    std::vector<CoalescedAccess> out;
    coalesce(in, out);
    return out;
}

} // namespace unimem
