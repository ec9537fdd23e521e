/**
 * @file
 * Randomized golden-model tests: independently coded reference
 * implementations are driven with the same random stimulus as the
 * production components and must agree exactly.
 *  - DataCache vs a straightforward per-set LRU list,
 *  - Scoreboard vs a map of pending registers,
 *  - occupancy calculators vs brute-force feasibility search.
 */

#include <list>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "sched/occupancy.hh"
#include "sched/scoreboard.hh"

namespace unimem {
namespace {

/** Trivially correct set-associative LRU reference. */
class RefCache
{
  public:
    RefCache(u64 capacity, u32 assoc)
        : lineCount_(capacity / kCacheLineBytes)
    {
        numSets_ = static_cast<u32>(lineCount_ / assoc);
        assoc_ = static_cast<u32>(lineCount_ / numSets_);
        sets_.resize(numSets_);
    }

    bool
    read(Addr line)
    {
        auto& set = sets_[line / kCacheLineBytes % numSets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        return false;
    }

    void
    fill(Addr line)
    {
        auto& set = sets_[line / kCacheLineBytes % numSets_];
        for (Addr l : set)
            if (l == line)
                return;
        if (set.size() == assoc_)
            set.pop_back();
        set.push_front(line);
    }

  private:
    u64 lineCount_;
    u32 numSets_;
    u32 assoc_;
    std::vector<std::list<Addr>> sets_;
};

TEST(GoldenModels, CacheMatchesReferenceLru)
{
    for (u64 capacity : {8_KB, 64_KB, 88_KB}) {
        DataCache dut(capacity, 4);
        RefCache ref(capacity, 4);
        Rng rng(capacity);
        for (int i = 0; i < 50000; ++i) {
            // Mix of hot lines and cold misses.
            Addr line =
                (rng.chance(0.8) ? rng.range(capacity / kCacheLineBytes)
                                 : rng.range(1u << 20)) *
                kCacheLineBytes;
            bool hit_dut = dut.read(line);
            bool hit_ref = ref.read(line);
            ASSERT_EQ(hit_dut, hit_ref)
                << "capacity " << capacity << " access " << i;
            if (!hit_dut) {
                dut.fill(line);
                ref.fill(line);
            }
        }
    }
}

TEST(GoldenModels, ScoreboardMatchesReferenceMap)
{
    Scoreboard sb;
    std::map<RegId, std::pair<Cycle, bool>> ref; // reg -> (ready, longLat)
    Rng rng(7);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        now += rng.range(4);
        int action = static_cast<int>(rng.range(3));
        RegId r = static_cast<RegId>(rng.range(64));
        if (action == 0) {
            Cycle ready = now + rng.range(400);
            bool ll = rng.chance(0.3);
            sb.setPending(r, ready, ll);
            ref[r] = {ready, ll};
        } else if (action == 1) {
            sb.clearPending(r);
            if (ref.count(r))
                ref[r].second = false;
        } else {
            WarpInstr in = instr::alu(
                static_cast<RegId>(rng.range(64)),
                static_cast<RegId>(rng.range(64)),
                static_cast<RegId>(rng.range(64)));
            Cycle expect = 0;
            bool expect_ll = false;
            auto look = [&](RegId reg) {
                auto it = ref.find(reg);
                if (it == ref.end())
                    return;
                expect = std::max(expect, it->second.first);
                expect_ll = expect_ll || it->second.second;
            };
            look(in.src[0]);
            look(in.src[1]);
            look(in.dst);
            ASSERT_EQ(sb.readyCycle(in), expect) << "access " << i;
            ASSERT_EQ(sb.dependsOnLongLatency(in), expect_ll)
                << "access " << i;
        }
    }
}

TEST(GoldenModels, OccupancyMatchesBruteForce)
{
    Rng rng(99);
    for (int trial = 0; trial < 2000; ++trial) {
        KernelParams kp;
        kp.name = "rand";
        kp.regsPerThread = 8 + static_cast<u32>(rng.range(57));
        kp.ctaThreads = 32u * (1 + static_cast<u32>(rng.range(8)));
        kp.sharedBytesPerCta = static_cast<u32>(rng.range(40000));
        kp.gridCtas = 16;
        u64 rf_cap = (32 + rng.range(256)) * 1024;
        u64 sh_cap = rng.range(128) * 1024;

        LaunchConfig lc =
            occupancyPartitioned(kp, rf_cap, sh_cap, kMaxThreadsPerSm);

        // Brute force: the largest CTA count satisfying all limits at
        // the kernel's requested register count (or the reduced count
        // the calculator chose).
        u32 regs = lc.feasible ? lc.regsPerThread : kp.regsPerThread;
        u32 best = 0;
        for (u32 ctas = 1; ctas <= kMaxWarpsPerSm; ++ctas) {
            u64 rf = static_cast<u64>(ctas) * kp.ctaThreads * regs * 4;
            u64 sh = static_cast<u64>(ctas) * kp.sharedBytesPerCta;
            u64 threads = static_cast<u64>(ctas) * kp.ctaThreads;
            if (rf <= rf_cap && sh <= sh_cap &&
                threads <= kMaxThreadsPerSm)
                best = ctas;
        }
        if (best == 0) {
            EXPECT_FALSE(lc.feasible) << "trial " << trial;
        } else {
            ASSERT_TRUE(lc.feasible) << "trial " << trial;
            EXPECT_EQ(lc.ctas, best) << "trial " << trial;
        }
    }
}

TEST(GoldenModels, UnifiedOccupancyInvariant)
{
    Rng rng(123);
    for (int trial = 0; trial < 2000; ++trial) {
        KernelParams kp;
        kp.name = "rand";
        kp.regsPerThread = 8 + static_cast<u32>(rng.range(57));
        kp.ctaThreads = 32u * (1 + static_cast<u32>(rng.range(8)));
        kp.sharedBytesPerCta = static_cast<u32>(rng.range(40000));
        kp.gridCtas = 16;
        u64 cap = (64 + rng.range(448)) * 1024;

        UnifiedLaunch ul = occupancyUnified(kp, cap, kMaxThreadsPerSm);
        if (!ul.launch.feasible)
            continue;
        // Consumed + leftover == capacity, and one more CTA would not
        // have fit (or the thread limit binds).
        EXPECT_EQ(ul.launch.rfBytes + ul.launch.sharedBytes +
                      ul.cacheBytes,
                  cap);
        u64 per_cta = static_cast<u64>(kp.ctaThreads) *
                          ul.launch.regsPerThread * 4 +
                      kp.sharedBytesPerCta;
        bool thread_bound =
            (ul.launch.ctas + 1) * kp.ctaThreads > kMaxThreadsPerSm;
        bool capacity_bound = (ul.launch.ctas + 1) * per_cta > cap;
        EXPECT_TRUE(thread_bound || capacity_bound) << "trial " << trial;
    }
}

} // namespace
} // namespace unimem
