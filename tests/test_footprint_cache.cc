/**
 * @file
 * Unit tests for the static-instruction footprint cache.
 *
 * The cache is a pure memoization layer: a hit must replay exactly what
 * the full computation would produce. The suite covers the key packing,
 * the exact-match lookup (every key field individually) and the
 * slot-hash distribution (a regression test for the low-bit-degeneracy
 * bug that collapsed strided footprints onto two slots). Whole-run
 * parity is tests/test_reference_sm.cc's job: its reference SM never
 * uses the cache, so every kernel checks that a cached run exports
 * what the uncached computation would.
 */

#include <gtest/gtest.h>

#include "core/conflict_model.hh"
#include "mem/footprint_cache.hh"

namespace unimem {
namespace {

using Cache = FootprintCache<ConflictOutcome>;

WarpInstr
sharedLoadAt(Addr base, i64 stride)
{
    WarpInstr in = instr::mem(Opcode::LdShared, 4, 2);
    for (u32 lane = 0; lane < kWarpWidth; ++lane)
        in.addr[lane] =
            base + static_cast<Addr>(static_cast<i64>(lane) * stride);
    return in;
}

ConflictOutcome
outcomeTagged(u32 tag)
{
    ConflictOutcome out;
    out.penalty = tag;
    out.regPenalty = tag / 2;
    out.maxPerBank = tag + 1;
    out.distinctWords = 32;
    out.distinctChunks = 8;
    return out;
}

TEST(MrfSignature, PacksCountAndBanks)
{
    // numSrc in the top two bits, each bank's low two bits below.
    const u8 banks3[] = {1, 2, 3};
    EXPECT_EQ(mrfSignature(banks3, 3),
              (3u << 6) | (1u << 0) | (2u << 2) | (3u << 4));

    const u8 banks1[] = {2};
    EXPECT_EQ(mrfSignature(banks1, 1), (1u << 6) | (2u << 0));

    EXPECT_EQ(mrfSignature(nullptr, 0), 0u);

    // Only the cluster-local bank id (mod 4) participates.
    const u8 banksHigh[] = {5, 6};
    const u8 banksLow[] = {1, 2};
    EXPECT_EQ(mrfSignature(banksHigh, 2), mrfSignature(banksLow, 2));

    // Operand order is part of the signature (bank vectors with the
    // same multiset still count identically, so sharing them would be
    // sound, but the packing keeps them distinct and that is fine).
    const u8 ab[] = {1, 2};
    const u8 ba[] = {2, 1};
    EXPECT_NE(mrfSignature(ab, 2), mrfSignature(ba, 2));
}

TEST(FootprintCacheUnit, ComputeTableRoundTrip)
{
    Cache cache;
    const u8 banks[] = {0, 3};
    u8 sig = mrfSignature(banks, 2);

    EXPECT_EQ(cache.findCompute(sig), nullptr);
    cache.insertCompute(sig, outcomeTagged(7));

    const ConflictOutcome* hit = cache.findCompute(sig);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->penalty, 7u);
    EXPECT_EQ(hit->maxPerBank, 8u);

    // A different signature is still a miss.
    const u8 other[] = {1, 3};
    EXPECT_EQ(cache.findCompute(mrfSignature(other, 2)), nullptr);

    EXPECT_EQ(cache.stats().computeHits, 1u);
    EXPECT_EQ(cache.stats().computeMisses, 2u);
}

TEST(FootprintCacheUnit, MemRoundTripAndLineReplay)
{
    Cache cache;
    WarpInstr in = sharedLoadAt(0x1000, 4);
    const u8 banks[] = {1};
    u8 sig = mrfSignature(banks, 1);

    EXPECT_EQ(cache.findMem(in, sig), nullptr);

    Cache::MemEntry& e = cache.insertMem(in, sig);
    e.outcome = outcomeTagged(3);
    EXPECT_EQ(e.numLines, Cache::kLinesUnknown);
    e.numLines = 2;
    e.lines[0].lineAddr = 0x1000;
    e.lines[1].lineAddr = 0x1080;

    Cache::MemEntry* hit = cache.findMem(in, sig);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->outcome.penalty, 3u);
    EXPECT_EQ(hit->numLines, 2u);
    EXPECT_EQ(hit->lines[1].lineAddr, 0x1080u);

    EXPECT_EQ(cache.stats().memHits, 1u);
    EXPECT_EQ(cache.stats().memMisses, 1u);
}

TEST(FootprintCacheUnit, EveryKeyFieldParticipates)
{
    Cache cache;
    WarpInstr in = sharedLoadAt(0x2000, 8);
    const u8 banks[] = {2};
    u8 sig = mrfSignature(banks, 1);
    cache.insertMem(in, sig).outcome = outcomeTagged(1);
    ASSERT_NE(cache.findMem(in, sig), nullptr);

    // Each single-field perturbation must miss even when the perturbed
    // key happens to land in the same slot (the verify step compares
    // the full key, not just the hash).
    WarpInstr opDiff = in;
    opDiff.op = Opcode::StShared;
    EXPECT_EQ(cache.findMem(opDiff, sig), nullptr);

    WarpInstr maskDiff = in;
    maskDiff.activeMask = 0x0000ffffu;
    EXPECT_EQ(cache.findMem(maskDiff, sig), nullptr);

    WarpInstr bytesDiff = in;
    bytesDiff.accessBytes = 8;
    EXPECT_EQ(cache.findMem(bytesDiff, sig), nullptr);

    WarpInstr addrDiff = in;
    addrDiff.addr[17] += 4;
    EXPECT_EQ(cache.findMem(addrDiff, sig), nullptr);

    const u8 otherBanks[] = {3};
    EXPECT_EQ(cache.findMem(in, mrfSignature(otherBanks, 1)), nullptr);

    // The original key still hits after all the probing above.
    EXPECT_NE(cache.findMem(in, sig), nullptr);
}

/**
 * Regression: FNV's XOR/multiply are closed mod 2^k, so masking the raw
 * hash made the slot index a function of the addresses' low bits only,
 * and dgemm-style strided footprints (bases 128 apart, lanes 8 apart)
 * collapsed onto a couple of slots. With the avalanche finalizer every
 * one of these keys must survive in a cache with thousands of slots.
 */
TEST(FootprintCacheUnit, StridedKeysDoNotCollide)
{
    Cache cache;
    const u8 banks[] = {1};
    u8 sig = mrfSignature(banks, 1);
    constexpr u32 kKeys = 128;

    for (u32 i = 0; i < kKeys; ++i) {
        WarpInstr in = sharedLoadAt(static_cast<Addr>(i) * 128, 8);
        cache.insertMem(in, sig).outcome = outcomeTagged(i);
    }
    u32 survivors = 0;
    for (u32 i = 0; i < kKeys; ++i) {
        WarpInstr in = sharedLoadAt(static_cast<Addr>(i) * 128, 8);
        Cache::MemEntry* hit = cache.findMem(in, sig);
        if (hit != nullptr) {
            EXPECT_EQ(hit->outcome.penalty, i);
            ++survivors;
        }
    }
    // 128 random slots out of 8192 expect ~1 birthday collision; the
    // degenerate hash kept only 2 of 133 keys alive.
    EXPECT_GE(survivors, kKeys - 8);
}

} // namespace
} // namespace unimem
