/**
 * @file
 * Per-static-instruction footprint cache (DESIGN.md Section 9).
 *
 * The deterministic kernel models emit repeating address patterns: a
 * dgemm warp re-reads the same shared-memory tile addresses every
 * blocking step, and compute instructions cycle through a handful of
 * operand-bank layouts. The bank-conflict and coalescing models are
 * pure functions of the instruction's footprint — (opcode, active mask,
 * access size, per-lane addresses, operand-bank signature) — so their
 * results can be memoized on that exact key and replayed for later
 * dynamic instances. Input-dependent patterns simply miss and fall back
 * to the full computation; a hit is bit-identical by construction
 * because the key captures every input the models read.
 *
 * Two structures, both per-SM and thread-confined (only the recycling
 * of the second's slot slab crosses threads, see homeSlab):
 *  - a 256-entry direct table for instructions that touch no data banks
 *    (ALU/SFU/texture), whose outcome depends only on the 8-bit operand
 *    bank signature;
 *  - a direct-mapped, overwrite-on-collision cache for data-bank ops,
 *    keyed on the full footprint, holding the conflict outcome plus up
 *    to four coalesced lines for replay in the global-memory path.
 *
 * The class is templated on the outcome type so this header does not
 * depend on the core conflict model (core already links against mem).
 */

#ifndef UNIMEM_MEM_FOOTPRINT_CACHE_HH
#define UNIMEM_MEM_FOOTPRINT_CACHE_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "arch/warp_instr.hh"
#include "mem/coalescer.hh"

namespace unimem {

/** Hit/miss counters (diagnostics only; never part of SmStats). */
struct FootprintStats
{
    u64 computeHits = 0;
    u64 computeMisses = 0;
    u64 memHits = 0;
    u64 memMisses = 0;
    u64 lineReplays = 0;
    u64 lineRecomputes = 0;
};

/**
 * Pack up to three cluster-local operand bank ids (0..3) plus their
 * count into one byte. Equal signatures imply identical bank-count
 * vectors, which is all the conflict model reads for operand conflicts.
 */
inline u8
mrfSignature(const u8* mrfBanks, u32 numMrfReads)
{
    u8 sig = static_cast<u8>(numMrfReads << 6);
    for (u32 i = 0; i < numMrfReads; ++i)
        sig |= static_cast<u8>((mrfBanks[i] & 3u) << (2 * i));
    return sig;
}

template <typename Outcome>
class FootprintCache
{
  public:
    static constexpr u32 kMemSlots = 8192;
    static constexpr u8 kMaxInlineLines = 4;
    static constexpr u8 kLinesUnknown = 0xff;  // not coalesced yet
    static constexpr u8 kLinesOverflow = 0xfe; // > kMaxInlineLines

    /** One data-bank-op entry: exact key, outcome, replayable lines. */
    struct MemEntry
    {
        std::array<Addr, kWarpWidth> addr{};
        u32 activeMask = 0;
        Opcode op = Opcode::IntAlu;
        u8 accessBytes = 0;
        u8 sig = 0;
        u8 numLines = kLinesUnknown;
        /** Valid iff equal to the owning cache's epoch (see homeSlab). */
        u64 gen = 0;
        Outcome outcome{};
        std::array<CoalescedAccess, kMaxInlineLines> lines{};
    };

    FootprintCache() = default;

    /**
     * Recycle the slot slab instead of freeing it. The next cache
     * instance that inherits the slab claims a fresh epoch, which
     * invalidates every inherited entry without touching the ~3 MB of
     * slot memory — constructing an SM model no longer pays a
     * multi-megabyte zero-fill per simulation run.
     */
    ~FootprintCache()
    {
        if (mem_.empty())
            return;
        if (homeSlab().empty()) {
            homeSlab().swap(mem_);
            return;
        }
        SharedPool& pool = sharedPool();
        std::lock_guard<std::mutex> lock(pool.mutex);
        pool.slabs.push_back(std::move(mem_));
    }

    FootprintCache(const FootprintCache&) = delete;
    FootprintCache& operator=(const FootprintCache&) = delete;

    const FootprintStats& stats() const { return stats_; }

    /** Lookup for ops that touch no data banks. nullptr on miss. */
    const Outcome*
    findCompute(u8 sig)
    {
        const ComputeEntry& e = compute_[sig];
        if (e.valid) {
            ++stats_.computeHits;
            return &e.outcome;
        }
        ++stats_.computeMisses;
        return nullptr;
    }

    void
    insertCompute(u8 sig, const Outcome& outcome)
    {
        compute_[sig].outcome = outcome;
        compute_[sig].valid = true;
    }

    /**
     * One slot computation serving both lookup and (on a miss) the
     * subsequent insert — the issue path previously hashed the same
     * key twice per miss.
     */
    struct MemProbe
    {
        MemEntry* entry; ///< the key's slot, hit or not
        bool hit;        ///< entry verified against the full key
    };

    /** Verified single-probe lookup for data-bank ops. */
    MemProbe
    probeMem(const WarpInstr& in, u8 sig)
    {
        MemEntry& e = slotFor(in, sig);
        if (e.gen == memGen_ && e.op == in.op &&
            e.activeMask == in.activeMask &&
            e.accessBytes == in.accessBytes && e.sig == sig &&
            e.addr == in.addr) {
            ++stats_.memHits;
            return {&e, true};
        }
        ++stats_.memMisses;
        return {&e, false};
    }

    /**
     * Claim (overwrite) a missed probe's slot with @p in's key. The
     * caller stores the freshly computed outcome; lines stay
     * kLinesUnknown until the global-memory path coalesces them.
     */
    void
    claimMem(MemEntry& e, const WarpInstr& in, u8 sig)
    {
        e.addr = in.addr;
        e.activeMask = in.activeMask;
        e.op = in.op;
        e.accessBytes = in.accessBytes;
        e.sig = sig;
        e.numLines = kLinesUnknown;
        e.gen = memGen_;
    }

    /** Verified lookup for data-bank ops. nullptr on miss. */
    MemEntry*
    findMem(const WarpInstr& in, u8 sig)
    {
        MemProbe p = probeMem(in, sig);
        return p.hit ? p.entry : nullptr;
    }

    /** findMem-compatible claim that redoes the slot lookup (tests). */
    MemEntry&
    insertMem(const WarpInstr& in, u8 sig)
    {
        MemEntry& e = slotFor(in, sig);
        claimMem(e, in, sig);
        return e;
    }

    void noteLineReplay() { ++stats_.lineReplays; }
    void noteLineRecompute() { ++stats_.lineRecomputes; }

    /** Retired slabs the calling thread could reuse (tests: bounded). */
    static size_t
    pooledSlabs()
    {
        SharedPool& pool = sharedPool();
        std::lock_guard<std::mutex> lock(pool.mutex);
        return pool.slabs.size() + (homeSlab().empty() ? 0 : 1);
    }

  private:
    struct ComputeEntry
    {
        Outcome outcome{};
        bool valid = false;
    };

    MemEntry&
    slotFor(const WarpInstr& in, u8 sig)
    {
        // The slot array is sized for hot sets of a few hundred live
        // static instructions; allocate it only when a data-bank op
        // actually shows up (pure-compute runs stay lean),
        // and prefer a recycled slab over a fresh zero-fill. Claiming
        // an epoch strictly above every gen stamp any pooled slab can
        // carry makes all inherited entries misses, so a recycled cache
        // is observably identical to a zero-initialized one.
        if (mem_.empty()) {
            mem_.swap(homeSlab());
            if (mem_.empty()) {
                SharedPool& pool = sharedPool();
                std::lock_guard<std::mutex> lock(pool.mutex);
                if (!pool.slabs.empty()) {
                    mem_ = std::move(pool.slabs.back());
                    pool.slabs.pop_back();
                }
            }
            if (mem_.empty())
                mem_.resize(kMemSlots);
            memGen_ = claimEpoch();
        }
        // Fold a sample of lanes rather than all 32: the slot index
        // only steers collision rate (the full-key compare in findMem
        // keeps hits exact), and real footprint families — strided
        // accesses differing in base, stride, or span, plus scattered
        // ones — already separate on the first, second, middle, and
        // last lanes. Hashing every lane cost a 32-step fold on each
        // data-bank issue for no measurable hit-rate gain.
        u64 h = (static_cast<u64>(in.activeMask) << 24) ^
                (static_cast<u64>(in.op) << 16) ^
                (static_cast<u64>(in.accessBytes) << 8) ^ sig;
        h ^= in.addr[0];
        h ^= (in.addr[1] << 9) | (in.addr[1] >> 55);
        h ^= (in.addr[kWarpWidth / 2] << 21) | (in.addr[kWarpWidth / 2] >> 43);
        h ^= (in.addr[kWarpWidth - 1] << 43) | (in.addr[kWarpWidth - 1] >> 21);
        // Murmur3 finalizer: the fold above is xor-linear, so without
        // strong bit mixing the slot index would see only low-entropy
        // combinations of the address bits.
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        return mem_[h & (kMemSlots - 1)];
    }

    /**
     * Slab recycling. A thread keeps the last slab it retired as its
     * home slab, so a sweep worker runs point after point on one slab
     * that stays in its core's cache. A slab retired on a thread whose
     * home is taken goes to one process-wide pool: a chip's bound-phase
     * workers acquire the SMs' slabs and the main thread retires them,
     * and only a pool every thread draws from stays bounded (by the peak
     * number of live caches, plus one home slab per thread) across
     * repeated chip runs. The epoch counter is process-wide too, so a
     * claimed epoch is above every gen stamp any recycled slab carries
     * (fresh slabs stamp 0) whichever thread stamped it; which slab a
     * cache inherits never changes its hits, so results stay bitwise
     * independent of the worker count.
     */
    static std::vector<MemEntry>&
    homeSlab()
    {
        static thread_local std::vector<MemEntry> slab;
        return slab;
    }

    static u64
    claimEpoch()
    {
        static std::atomic<u64> epoch{0};
        return ++epoch;
    }

    struct SharedPool
    {
        std::mutex mutex;
        std::vector<std::vector<MemEntry>> slabs;
    };

    static SharedPool&
    sharedPool()
    {
        static SharedPool pool;
        return pool;
    }

    std::array<ComputeEntry, 256> compute_{};
    std::vector<MemEntry> mem_;
    u64 memGen_ = 0;
    FootprintStats stats_;
};

} // namespace unimem

#endif // UNIMEM_MEM_FOOTPRINT_CACHE_HH
