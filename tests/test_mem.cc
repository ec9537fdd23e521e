/**
 * @file
 * Unit tests for the memory substrates: coalescer, data cache, DRAM
 * bandwidth/latency model, and the Table 5 conflict histogram.
 */

#include <gtest/gtest.h>

#include "mem/bank_conflicts.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/dram.hh"

namespace unimem {
namespace {

WarpInstr
loadAt(std::array<Addr, kWarpWidth> addrs, u8 bytes = 4,
       u32 mask = 0xffffffffu)
{
    WarpInstr in = instr::mem(Opcode::LdGlobal, 1, 0, mask);
    in.addr = addrs;
    in.accessBytes = bytes;
    return in;
}

TEST(Coalescer, UnitStrideIsOneLine)
{
    std::array<Addr, kWarpWidth> a{};
    for (u32 i = 0; i < kWarpWidth; ++i)
        a[i] = 0x1000 + i * 4;
    auto out = coalesce(loadAt(a));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].lineAddr, 0x1000u);
    EXPECT_EQ(out[0].sectorMask, 0x0f);
    EXPECT_EQ(out[0].numSectors(), 4u);
    EXPECT_EQ(out[0].bytesTouched, 128u);
}

TEST(Coalescer, StridedTouchesPartialSectors)
{
    // 16-byte stride: 4 lines, every sector touched by 2 lanes.
    std::array<Addr, kWarpWidth> a{};
    for (u32 i = 0; i < kWarpWidth; ++i)
        a[i] = i * 16;
    auto out = coalesce(loadAt(a));
    ASSERT_EQ(out.size(), 4u);
    for (const auto& acc : out) {
        EXPECT_EQ(acc.numSectors(), 4u);
        EXPECT_EQ(acc.bytesTouched, 32u);
    }
}

TEST(Coalescer, BroadcastIsSingleSector)
{
    std::array<Addr, kWarpWidth> a{};
    a.fill(0x2000);
    auto out = coalesce(loadAt(a));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].numSectors(), 1u);
}

TEST(Coalescer, RespectsActiveMask)
{
    std::array<Addr, kWarpWidth> a{};
    for (u32 i = 0; i < kWarpWidth; ++i)
        a[i] = i * 128; // one line each
    auto out = coalesce(loadAt(a, 4, 0x3)); // only lanes 0, 1
    EXPECT_EQ(out.size(), 2u);
}

TEST(Coalescer, ColumnAccessOverfetch)
{
    // 8KB-stride column: 32 distinct lines, 4 bytes used per line.
    std::array<Addr, kWarpWidth> a{};
    for (u32 i = 0; i < kWarpWidth; ++i)
        a[i] = static_cast<Addr>(i) * 8192;
    auto out = coalesce(loadAt(a));
    EXPECT_EQ(out.size(), 32u);
    for (const auto& acc : out)
        EXPECT_EQ(acc.numSectors(), 1u);
}

TEST(Cache, HitAfterFill)
{
    DataCache c(64_KB);
    EXPECT_FALSE(c.read(0x1000 & ~127ull));
    c.fill(0x1000 & ~127ull);
    EXPECT_TRUE(c.read(0x1000 & ~127ull));
    EXPECT_EQ(c.stats().readHits, 1u);
    EXPECT_EQ(c.stats().readMisses, 1u);
}

TEST(Cache, ZeroCapacityAlwaysMisses)
{
    DataCache c(0);
    EXPECT_FALSE(c.enabled());
    EXPECT_FALSE(c.read(0));
    c.fill(0);
    EXPECT_FALSE(c.read(0));
}

TEST(Cache, LruEvictionWithinSet)
{
    // Tiny cache: 4 lines, 4-way = 1 set.
    DataCache c(512, 4);
    ASSERT_EQ(c.numSets(), 1u);
    for (Addr l = 0; l < 4; ++l)
        c.fill(l * 128);
    EXPECT_TRUE(c.read(0)); // touch line 0: now MRU
    c.fill(4 * 128);        // evicts LRU (line 1)
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(128));
    EXPECT_TRUE(c.contains(4 * 128));
}

TEST(Cache, WriteThroughNeverAllocates)
{
    DataCache c(64_KB);
    EXPECT_FALSE(c.write(0x80));
    EXPECT_FALSE(c.contains(0x80));
    c.fill(0x80);
    EXPECT_TRUE(c.write(0x80));
    EXPECT_EQ(c.stats().writeHits, 1u);
    EXPECT_EQ(c.stats().writeMisses, 1u);
}

TEST(Cache, InvalidateAllDropsEverything)
{
    DataCache c(8_KB);
    for (Addr l = 0; l < 16; ++l)
        c.fill(l * 128);
    c.invalidateAll();
    for (Addr l = 0; l < 16; ++l)
        EXPECT_FALSE(c.contains(l * 128));
}

TEST(Cache, OddCapacityUsesAllLines)
{
    // 88KB leftover from the allocator: sets round to a power of two and
    // associativity absorbs the remainder.
    DataCache c(88_KB);
    EXPECT_TRUE(c.enabled());
    u64 lines = 0;
    for (Addr l = 0; l < 88_KB / 128; ++l) {
        c.fill(l * 128);
        ++lines;
    }
    u64 resident = 0;
    for (Addr l = 0; l < lines; ++l)
        if (c.contains(l * 128))
            ++resident;
    // All capacity usable: nothing was evicted while filling once.
    EXPECT_EQ(resident, lines);
}

TEST(Dram, LatencyAndBandwidth)
{
    DramModel d(8, 400);
    // One 128B line = 4 sectors = 128B / 8Bpc = 16 cycles + latency.
    Cycle r = d.read(0, 4);
    EXPECT_EQ(r, 16u + 400u);
    EXPECT_EQ(d.stats().readSectors, 4u);
    EXPECT_EQ(d.nextFree(), 16u);
}

TEST(Dram, BackToBackRequestsSerialize)
{
    DramModel d(8, 400);
    Cycle r1 = d.read(0, 4);
    Cycle r2 = d.read(0, 4);
    EXPECT_EQ(r2 - r1, 16u); // second waits for bandwidth
}

TEST(Dram, WritesArePostedButConsumeBandwidth)
{
    DramModel d(8, 400);
    Cycle w = d.write(0, 1); // 32B -> 4 cycles
    EXPECT_EQ(w, 4u);
    Cycle r = d.read(0, 1);
    EXPECT_EQ(r, 4u + 4u + 400u);
    EXPECT_EQ(d.stats().writeSectors, 1u);
}

TEST(Dram, IdleGapResets)
{
    DramModel d(8, 400);
    d.read(0, 4);
    Cycle r = d.read(1000, 4);
    EXPECT_EQ(r, 1000u + 16u + 400u);
}

TEST(ConflictHistogram, BucketsAndFractions)
{
    ConflictHistogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(4);
    h.record(9);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);

    ConflictHistogram h2;
    h2.record(1);
    h.merge(h2);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.bucket(0), 3u);
}

} // namespace
} // namespace unimem
