/**
 * @file
 * Global-memory access coalescer, and the one footprint pass of a warp
 * memory instruction.
 *
 * Merges the per-lane addresses of one warp memory instruction into
 * 128-byte cache-line transactions, tracking which 32-byte sectors of
 * each line are actually touched. Sector masks let the DRAM model charge
 * exact traffic when no cache is present (32-byte granules) versus full
 * lines on cache fills, which is what makes cache-induced overfetch
 * visible (paper Section 3.1, Needle row of Table 1).
 *
 * A 128-byte line is also exactly one row of the 32 partitioned 4-byte
 * banks and of the 8 unified 16-byte clusters, so each line's 32-bit
 * mask of touched 4-byte words is everything the bank-conflict model
 * needs (core/conflict_model): distinct words, distinct chunks and every
 * per-bank count are reductions over those masks (DESIGN.md §9.2).
 */

#ifndef UNIMEM_MEM_COALESCER_HH
#define UNIMEM_MEM_COALESCER_HH

#include <vector>

#include "arch/warp_instr.hh"

namespace unimem {

/** One coalesced line-granularity transaction. */
struct CoalescedAccess
{
    /** 128-byte-aligned line address. */
    Addr lineAddr = 0;

    /** Bit s set means a lane's access starts in 32-byte sector s. */
    u8 sectorMask = 0;

    /** Access bytes summed over the lanes that touch the line. */
    u32 bytesTouched = 0;

    /**
     * Bit w set means 4-byte word w of the line is touched: a lane at
     * byte offset o of size s covers words o/4 .. o/4 + ceil(s/4) - 1.
     */
    u32 wordMask = 0;

    u32 numSectors() const
    {
        return static_cast<u32>(__builtin_popcount(sectorMask));
    }
};

/**
 * Coalesce one warp instruction's lane addresses into @p out (cleared
 * first): one walk over the active lanes, one entry per distinct line.
 * Results are ordered by first-touching lane. Taking the output vector
 * lets the per-cycle issue path reuse one scratch buffer instead of
 * allocating per memory instruction.
 *
 * panic()s if an active lane's access crosses its 128-byte line. The
 * trace parser and lint reject such input first (accessInOneLine in
 * arch/warp_instr.hh), so only a kernel-model bug can reach the panic.
 */
void coalesce(const WarpInstr& in, std::vector<CoalescedAccess>& out);

/** Allocating convenience wrapper. */
std::vector<CoalescedAccess> coalesce(const WarpInstr& in);

} // namespace unimem

#endif // UNIMEM_MEM_COALESCER_HH
