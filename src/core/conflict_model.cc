#include "core/conflict_model.hh"

#include <algorithm>
#include <array>

namespace unimem {

namespace {

bool
usesDataBanks(Opcode op)
{
    // Texture fetches go through the texture unit, not the SM data banks.
    return isMemOp(op) && op != Opcode::Tex;
}

/** Bit 4c set iff any of words 4c..4c+3 is: one bit per 16-byte chunk. */
u32
chunkBits(u32 words)
{
    words |= words >> 1;
    words |= words >> 2;
    return words & 0x11111111u;
}

u32
popcount(u32 v)
{
    return static_cast<u32>(__builtin_popcount(v));
}

/** Bank (line % 4) holding @p lineAddr's chunks in every unified cluster. */
u32
unifiedBankOf(Addr lineAddr)
{
    return static_cast<u32>((lineAddr / kCacheLineBytes) % kBanksPerCluster);
}

/**
 * Largest number of @p lines whose word masks share one set bit, i.e.
 * the busiest partitioned bank. The 32 per-bank counts are kept
 * bit-sliced — plane p holds bit p of every count — so each line is one
 * ripple-carry add, and the maximum is read from the top plane down.
 */
u32
maxLinesPerWord(const std::vector<CoalescedAccess>& lines)
{
    std::array<u32, 6> plane{}; // a count reaches at most 32 lines
    for (const CoalescedAccess& acc : lines) {
        u32 carry = acc.wordMask;
        for (u32 p = 0; carry != 0; ++p) {
            u32 next = plane[p] & carry;
            plane[p] ^= carry;
            carry = next;
        }
    }
    u32 candidates = ~0u;
    u32 max = 0;
    for (u32 p = static_cast<u32>(plane.size()); p-- > 0;) {
        if (plane[p] & candidates) {
            candidates &= plane[p];
            max |= 1u << p;
        }
    }
    return max;
}

} // namespace

ConflictOutcome
ConflictModel::evaluate(const WarpInstr& in, const u8* mrfBanks,
                        u32 numMrfReads) const
{
    lines_.clear();
    if (usesDataBanks(in.op))
        coalesce(in, lines_);
    return evaluate(in, lines_, mrfBanks, numMrfReads);
}

ConflictOutcome
ConflictModel::evaluate(const WarpInstr& in,
                        const std::vector<CoalescedAccess>& lines,
                        const u8* mrfBanks, u32 numMrfReads) const
{
    if (kind_ == DesignKind::Unified)
        return evalUnified(in, lines, mrfBanks, numMrfReads);
    return evalPartitioned(in, lines, mrfBanks, numMrfReads);
}

ConflictOutcome
ConflictModel::evalPartitioned(const WarpInstr& in,
                               const std::vector<CoalescedAccess>& lines,
                               const u8* mrfBanks, u32 numMrfReads) const
{
    ConflictOutcome out;

    // MRF operand reads: one bank per operand, replicated per cluster.
    std::array<u32, kBanksPerCluster> regCounts{};
    for (u32 i = 0; i < numMrfReads; ++i)
        ++regCounts[mrfBanks[i] % kBanksPerCluster];
    u32 reg_max = *std::max_element(regCounts.begin(), regCounts.end());

    u32 mem_max = 0;
    if (usesDataBanks(in.op)) {
        for (const CoalescedAccess& acc : lines) {
            out.distinctWords += popcount(acc.wordMask);
            // Chunk count is reported for cross-design comparisons even
            // though the partitioned design moves data in 4-byte words.
            out.distinctChunks += popcount(chunkBits(acc.wordMask));
        }
        if (isSharedSpace(in.op))
            // A line is one row of the 32 word-wide banks: a word's
            // bank is its index within the line, and identical words
            // broadcast.
            mem_max = maxLinesPerWord(lines);
        else
            // Aligned full-line cache access: one access per bank per
            // line; multi-line serialization is charged at the tag port.
            mem_max = out.distinctWords > 0 ? 1 : 0;
        out.dataMaxPerBank = mem_max;
    }

    u32 reg_pen = reg_max > 1 ? reg_max - 1 : 0;
    u32 mem_pen = mem_max > 1 ? mem_max - 1 : 0;
    out.penalty = reg_pen + mem_pen;
    out.regPenalty = reg_pen;
    out.maxPerBank = std::max(reg_max, mem_max);
    return out;
}

ConflictOutcome
ConflictModel::evalUnified(const WarpInstr& in,
                           const std::vector<CoalescedAccess>& lines,
                           const u8* mrfBanks, u32 numMrfReads) const
{
    ConflictOutcome out;

    // A register read hits its bank in every cluster (the same-named
    // register of each lane group).
    std::array<u32, kBanksPerCluster> regCounts{};
    for (u32 i = 0; i < numMrfReads; ++i)
        ++regCounts[mrfBanks[i] % kBanksPerCluster];

    // dataCounts[cluster][bank]: scratchpad/cache accesses alone, so
    // dataMaxPerBank excludes operand reads.
    std::array<std::array<u32, kBanksPerCluster>, kNumClusters>
        dataCounts{};
    std::array<u32, kNumClusters> chunksPerCluster{};

    if (usesDataBanks(in.op)) {
        for (const CoalescedAccess& acc : lines) {
            out.distinctWords += popcount(acc.wordMask);
            out.distinctChunks += popcount(chunkBits(acc.wordMask));
        }

        if (isSharedSpace(in.op)) {
            // Scatter/gather access: every distinct 16-byte chunk is a
            // separate bank access, and the simple design serializes
            // chunks cluster-wide. Chunk c of a line lives in cluster
            // c, bank line % 4.
            for (const CoalescedAccess& acc : lines) {
                u32 bank = unifiedBankOf(acc.lineAddr);
                for (u32 m = chunkBits(acc.wordMask); m != 0; m &= m - 1) {
                    u32 cluster = static_cast<u32>(__builtin_ctz(m)) / 4;
                    out.dataMaxPerBank = std::max(
                        out.dataMaxPerBank, ++dataCounts[cluster][bank]);
                    ++chunksPerCluster[cluster];
                }
            }
        } else {
            // Cache access: a 128-byte line is read/written as one
            // parallel access to bank (line % 4) in all 8 clusters;
            // multiple lines contend only at bank granularity (they
            // already serialize on the tag port).
            std::array<u32, kBanksPerCluster> linesPerBank{};
            for (const CoalescedAccess& acc : lines)
                if (acc.wordMask != 0)
                    ++linesPerBank[unifiedBankOf(acc.lineAddr)];
            for (u32 c = 0; c < kNumClusters; ++c)
                dataCounts[c] = linesPerBank;
            out.dataMaxPerBank = *std::max_element(linesPerBank.begin(),
                                                   linesPerBank.end());
        }
    }

    u32 chain_max = 0;
    u32 bank_max = 0;
    for (u32 c = 0; c < kNumClusters; ++c) {
        u32 cluster_bank_max = 0;
        for (u32 b = 0; b < kBanksPerCluster; ++b)
            cluster_bank_max = std::max(cluster_bank_max,
                                        regCounts[b] + dataCounts[c][b]);
        bank_max = std::max(bank_max, cluster_bank_max);
        u32 chain = cluster_bank_max;
        if (!aggressive_) {
            // Simple design: one bank per cluster reaches the crossbar
            // per cycle, so chunks serialize cluster-wide.
            chain = std::max(chain, chunksPerCluster[c]);
        }
        chain_max = std::max(chain_max, chain);
    }

    out.penalty = chain_max > 1 ? chain_max - 1 : 0;
    // Pure compute instructions stall the issue stage on operand
    // conflicts; memory instructions serialize in the access port.
    out.regPenalty = usesDataBanks(in.op) ? 0 : out.penalty;
    out.maxPerBank = bank_max;
    return out;
}

} // namespace unimem
