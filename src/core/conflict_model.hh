/**
 * @file
 * Per-instruction bank/arbitration conflict model for the partitioned and
 * unified bank organizations (paper Sections 2.1, 4.2, 4.3, 6.1).
 *
 * Partitioned design:
 *  - MRF: 4 banks per cluster, 16 B wide; an instruction reading two MRF
 *    operands mapped to the same bank stalls one cycle per extra access.
 *  - Scratchpad: 32 banks, 4 B wide; distinct words mapping to the same
 *    bank conflict; identical words broadcast.
 *  - Cache: 128 B lines span all 32 banks with aligned access, so a
 *    single line access is conflict-free; multiple lines serialize on the
 *    tag port (modeled separately by the SM).
 *
 * Unified design:
 *  - 32 banks of total/32 bytes, 16 B wide. Register mapping is unchanged.
 *  - Scratchpad and cache data are striped in 16-byte chunks: chunk k
 *    lives in cluster k%8, bank (k/8)%4 of that cluster; a 128-byte line
 *    therefore occupies one bank in each of the 8 clusters.
 *  - The *simple* design routes at most one bank per cluster to the
 *    crossbar per cycle, so distinct chunks in the same cluster serialize
 *    even in different banks; the *aggressive* design lifts that
 *    restriction (paper measured it worth only 0.5%).
 *  - Arbitration conflicts: an instruction whose MRF operand reads land
 *    in the same physical bank as its scratchpad/cache chunks serializes
 *    on that bank (register access has priority, Section 4.3).
 */

#ifndef UNIMEM_CORE_CONFLICT_MODEL_HH
#define UNIMEM_CORE_CONFLICT_MODEL_HH

#include <vector>

#include "arch/warp_instr.hh"
#include "core/partition.hh"
#include "mem/bank_conflicts.hh"
#include "mem/coalescer.hh"

namespace unimem {

/** Result of evaluating one warp instruction against the bank layout. */
struct ConflictOutcome
{
    /** Extra cycles the instruction is delayed (Section 6.1 model). */
    u32 penalty = 0;

    /**
     * Portion of the penalty due to operand (MRF) bank conflicts; these
     * stall the issue stage. The remainder (penalty - regPenalty) is
     * data-bank serialization, which occupies the memory access port.
     */
    u32 regPenalty = 0;

    /** Maximum accesses to any single physical bank (Table 5 metric). */
    u32 maxPerBank = 0;

    /**
     * Maximum accesses to any single bank from the *data* (scratchpad/
     * cache) footprint alone, excluding MRF operand reads. Unlike
     * maxPerBank this is a pure function of the instruction's lane
     * addresses; lint reports it as a shared op's conflict degree.
     */
    u32 dataMaxPerBank = 0;

    /** Distinct 4-byte words touched (partitioned data energy unit). */
    u32 distinctWords = 0;

    /** Distinct 16-byte chunks touched (unified data energy unit). */
    u32 distinctChunks = 0;
};

/**
 * Pack up to three cluster-local operand bank ids (0..3) plus their
 * count into one byte. Equal signatures imply identical bank-count
 * vectors, which is all evaluate() reads of an op that touches no data
 * banks, so its outcome can be tabulated per signature.
 */
inline u8
mrfSignature(const u8* mrfBanks, u32 numMrfReads)
{
    u8 sig = static_cast<u8>(numMrfReads << 6);
    for (u32 i = 0; i < numMrfReads; ++i)
        sig |= static_cast<u8>((mrfBanks[i] & 3u) << (2 * i));
    return sig;
}

/** Evaluates bank and arbitration conflicts for one SM design. */
class ConflictModel
{
  public:
    ConflictModel(DesignKind kind, bool aggressiveUnified = false)
        : kind_(kind), aggressive_(aggressiveUnified)
    {
    }

    /**
     * Evaluate one instruction, running the coalescer's footprint pass
     * itself for data-bank (scratchpad/cache) ops.
     *
     * @param in the warp instruction (lane addresses used for memory ops)
     * @param mrfBanks cluster-local bank ids (0..3) of this instruction's
     *        MRF operand reads, as produced by WarpRegFile
     * @param numMrfReads number of valid entries in @p mrfBanks
     */
    ConflictOutcome evaluate(const WarpInstr& in, const u8* mrfBanks,
                             u32 numMrfReads) const;

    /**
     * Evaluate one instruction whose footprint pass already ran:
     * @p lines is coalesce(in)'s output for a data-bank op, and is not
     * read for any other op. Every data-bank field is a reduction over
     * the lines' word masks (DESIGN.md §9.2).
     */
    ConflictOutcome evaluate(const WarpInstr& in,
                             const std::vector<CoalescedAccess>& lines,
                             const u8* mrfBanks, u32 numMrfReads) const;

    DesignKind kind() const { return kind_; }

  private:
    ConflictOutcome evalPartitioned(const WarpInstr& in,
                                    const std::vector<CoalescedAccess>& lines,
                                    const u8* mrfBanks,
                                    u32 numMrfReads) const;
    ConflictOutcome evalUnified(const WarpInstr& in,
                                const std::vector<CoalescedAccess>& lines,
                                const u8* mrfBanks, u32 numMrfReads) const;

    /**
     * Footprint scratch of the three-argument evaluate(). Mutable
     * because evaluation is logically const; ConflictModel is per-SM
     * and thread-confined.
     */
    mutable std::vector<CoalescedAccess> lines_;

    DesignKind kind_;
    bool aggressive_;
};

} // namespace unimem

#endif // UNIMEM_CORE_CONFLICT_MODEL_HH
