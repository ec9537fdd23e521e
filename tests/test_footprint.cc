/**
 * @file
 * Tests of a warp memory instruction's footprint pass (mem/coalescer)
 * and of the conflict model's reductions over it (core/conflict_model),
 * plus SmModel's compute-op outcome table.
 *
 * The oracle is deliberately naive: the linear-search coalescer the
 * pass replaced, and per-lane granule sets — distinct 4-byte words,
 * 16-byte chunks and 128-byte lines, each deduplicated by a linear
 * scan, with the Section 6.1 bank mappings applied to them directly.
 * Seeded random instructions over every data-bank op, sizes 0-16,
 * empty to full active masks, strided, broadcast, duplicate, scattered
 * and bank-conflict-free footprints, 0-3 MRF reads and all three bank
 * designs must match it field for field, and so must every shared op
 * the 26 shipped kernels issue in the CTAs lint samples.
 */

#include <algorithm>
#include <array>
#include <iostream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/conflict_model.hh"
#include "kernels/registry.hh"
#include "mem/coalescer.hh"
#include "sm/sm.hh"

namespace unimem {
namespace {

// ---- Oracle ----------------------------------------------------------

/** One line as the linear-search coalescer produced it. */
struct OracleLine
{
    Addr lineAddr = 0;
    u8 sectorMask = 0;
    u32 bytesTouched = 0;
};

/** The linear-search coalescer the footprint pass replaced. */
std::vector<OracleLine>
oracleCoalesce(const WarpInstr& in)
{
    std::vector<OracleLine> out;
    for (u32 lane = 0; lane < kWarpWidth; ++lane) {
        if (!in.laneActive(lane))
            continue;
        Addr a = in.addr[lane];
        Addr line = a & ~static_cast<Addr>(kCacheLineBytes - 1);
        u32 sector = static_cast<u32>((a - line) / kDramSectorBytes);

        OracleLine* acc = nullptr;
        for (auto& c : out) {
            if (c.lineAddr == line) {
                acc = &c;
                break;
            }
        }
        if (acc == nullptr) {
            out.push_back(OracleLine{line, 0, 0});
            acc = &out.back();
        }
        acc->sectorMask |= static_cast<u8>(1u << sector);
        acc->bytesTouched += in.accessBytes;
    }
    return out;
}

/** Distinct @p granule -sized units the active lanes touch. */
std::vector<Addr>
granules(const WarpInstr& in, u32 granule)
{
    std::vector<Addr> out;
    for (u32 lane = 0; lane < kWarpWidth; ++lane)
        if (in.laneActive(lane))
            for (u32 b = 0; b < in.accessBytes; b += 4) {
                Addr g = (in.addr[lane] + b) / granule;
                if (std::find(out.begin(), out.end(), g) == out.end())
                    out.push_back(g);
            }
    return out;
}

bool
touchesDataBanks(Opcode op)
{
    return isMemOp(op) && op != Opcode::Tex;
}

ConflictOutcome
oracleEvaluate(const WarpInstr& in, const u8* mrfBanks, u32 numMrfReads,
               DesignKind kind, bool aggressive)
{
    ConflictOutcome out;
    std::array<u32, kBanksPerCluster> reg{};
    for (u32 i = 0; i < numMrfReads; ++i)
        ++reg[mrfBanks[i] % kBanksPerCluster];
    const u32 reg_max = *std::max_element(reg.begin(), reg.end());

    const bool data = touchesDataBanks(in.op);
    std::vector<Addr> words, chunks, lines;
    if (data) {
        words = granules(in, kPartitionedBankWidth);
        chunks = granules(in, kUnifiedBankWidth);
        lines = granules(in, kCacheLineBytes);
        out.distinctWords = static_cast<u32>(words.size());
        out.distinctChunks = static_cast<u32>(chunks.size());
    }

    if (kind != DesignKind::Unified) {
        // 32 banks, 4 B wide: word w in bank w % 32; a cache access is
        // one conflict-free line access.
        u32 mem_max = 0;
        if (data && isSharedSpace(in.op)) {
            std::array<u32, kBanksPerSm> counts{};
            for (Addr w : words)
                mem_max = std::max(mem_max, ++counts[w % kBanksPerSm]);
        } else if (data) {
            mem_max = words.empty() ? 0 : 1;
        }
        out.dataMaxPerBank = mem_max;
        u32 reg_pen = reg_max > 1 ? reg_max - 1 : 0;
        u32 mem_pen = mem_max > 1 ? mem_max - 1 : 0;
        out.penalty = reg_pen + mem_pen;
        out.regPenalty = reg_pen;
        out.maxPerBank = std::max(reg_max, mem_max);
        return out;
    }

    // Unified: chunk k in cluster k % 8, bank (k / 8) % 4; a cache line
    // l is one access to bank l % 4 of every cluster. Register reads
    // hit their bank in every cluster.
    std::array<std::array<u32, kBanksPerCluster>, kNumClusters> data_counts{};
    std::array<u32, kNumClusters> per_cluster{};
    if (data && isSharedSpace(in.op)) {
        for (Addr k : chunks) {
            u32 cluster = static_cast<u32>(k % kNumClusters);
            u32 bank = static_cast<u32>((k / kNumClusters) % kBanksPerCluster);
            ++data_counts[cluster][bank];
            ++per_cluster[cluster];
        }
    } else if (data) {
        for (Addr l : lines)
            for (u32 c = 0; c < kNumClusters; ++c)
                ++data_counts[c][l % kBanksPerCluster];
    }
    u32 chain_max = 0;
    for (u32 c = 0; c < kNumClusters; ++c) {
        u32 cluster_max = 0;
        for (u32 b = 0; b < kBanksPerCluster; ++b) {
            out.dataMaxPerBank =
                std::max(out.dataMaxPerBank, data_counts[c][b]);
            cluster_max = std::max(cluster_max, reg[b] + data_counts[c][b]);
        }
        out.maxPerBank = std::max(out.maxPerBank, cluster_max);
        // The simple design sends one bank per cluster to the crossbar.
        u32 chain = aggressive ? cluster_max
                               : std::max(cluster_max, per_cluster[c]);
        chain_max = std::max(chain_max, chain);
    }
    out.penalty = chain_max > 1 ? chain_max - 1 : 0;
    out.regPenalty = data ? 0 : out.penalty;
    return out;
}

// ---- Comparisons -----------------------------------------------------

void
expectSameOutcome(const ConflictOutcome& got, const ConflictOutcome& want)
{
    EXPECT_EQ(got.penalty, want.penalty);
    EXPECT_EQ(got.regPenalty, want.regPenalty);
    EXPECT_EQ(got.maxPerBank, want.maxPerBank);
    EXPECT_EQ(got.dataMaxPerBank, want.dataMaxPerBank);
    EXPECT_EQ(got.distinctWords, want.distinctWords);
    EXPECT_EQ(got.distinctChunks, want.distinctChunks);
}

/** coalesce() and every design's evaluate() against the oracle. */
void
checkInstr(const WarpInstr& in, const u8* mrfBanks, u32 numMrfReads)
{
    const std::vector<CoalescedAccess> lines = coalesce(in);
    const std::vector<OracleLine> want_lines = oracleCoalesce(in);
    ASSERT_EQ(lines.size(), want_lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].lineAddr, want_lines[i].lineAddr) << i;
        EXPECT_EQ(lines[i].sectorMask, want_lines[i].sectorMask) << i;
        EXPECT_EQ(lines[i].bytesTouched, want_lines[i].bytesTouched) << i;
        u32 words = 0;
        for (Addr w : granules(in, kPartitionedBankWidth))
            if (w * kPartitionedBankWidth / kCacheLineBytes ==
                lines[i].lineAddr / kCacheLineBytes)
                words |= 1u << (w % kBanksPerSm);
        EXPECT_EQ(lines[i].wordMask, words) << i;
    }

    struct Design
    {
        DesignKind kind;
        bool aggressive;
    };
    for (Design d : {Design{DesignKind::Partitioned, false},
                     Design{DesignKind::Unified, false},
                     Design{DesignKind::Unified, true}}) {
        SCOPED_TRACE(std::string(designName(d.kind)) +
                     (d.aggressive ? " aggressive" : ""));
        ConflictModel model(d.kind, d.aggressive);
        const ConflictOutcome want =
            oracleEvaluate(in, mrfBanks, numMrfReads, d.kind, d.aggressive);
        expectSameOutcome(model.evaluate(in, mrfBanks, numMrfReads), want);
        if (touchesDataBanks(in.op))
            expectSameOutcome(
                model.evaluate(in, lines, mrfBanks, numMrfReads), want);
    }
}

std::string
describe(const WarpInstr& in)
{
    // Appended piecewise: GCC 12's -O3 raises a false -Wrestrict on a
    // chain of std::string operator+.
    std::string s = opcodeName(in.op);
    s += " size ";
    s += std::to_string(in.accessBytes);
    s += " mask ";
    s += std::to_string(in.activeMask);
    s += " addr";
    for (u32 lane = 0; lane < kWarpWidth; ++lane)
        if (in.laneActive(lane)) {
            s += ' ';
            s += std::to_string(in.addr[lane]);
        }
    return s;
}

// ---- Random footprints -----------------------------------------------

enum class Pattern : u32
{
    Strided,
    Broadcast,
    Duplicate,
    Scattered,
    ConflictFree,
    Count
};

/** Random data-bank (or, rarely, texture) instruction. */
WarpInstr
randomInstr(std::mt19937_64& rng, Pattern pattern)
{
    static const Opcode kOps[] = {Opcode::LdShared, Opcode::StShared,
                                  Opcode::LdGlobal, Opcode::StGlobal,
                                  Opcode::LdLocal,  Opcode::StLocal,
                                  Opcode::Tex};
    Opcode op = kOps[rng() % (rng() % 16 == 0 ? 7 : 6)];
    WarpInstr in = instr::mem(op, 1, 0);
    in.accessBytes = static_cast<u8>(rng() % 17); // 0: touches no word

    switch (rng() % 6) {
      case 0: in.activeMask = 0xffffffffu; break;
      case 1: in.activeMask = 0; break;
      case 2: in.activeMask = 1u << (rng() % kWarpWidth); break;
      case 3: in.activeMask = static_cast<u32>(rng()); break;
      case 4: in.activeMask = static_cast<u32>(rng() & rng() & rng()); break;
      default: in.activeMask = 0x0000ffffu << (rng() % 17); break;
    }

    const bool local = op == Opcode::LdLocal || op == Opcode::StLocal;
    Addr base = isSharedSpace(op) ? rng() % (64 * 1024)
                : local           ? kLocalBase + rng() % (1u << 20)
                                  : rng() % (Addr(1) << 36);
    static const u32 kStrides[] = {1, 2, 4, 8, 12, 16, 32, 64, 128, 132, 4096};
    u32 stride = rng() % 4 == 0 ? static_cast<u32>(rng() % 300)
                                : kStrides[rng() % std::size(kStrides)];
    u32 span = 128u << (rng() % 14);
    u32 rotate = static_cast<u32>(rng() % kWarpWidth);
    std::array<u32, kWarpWidth> perm;
    for (u32 i = 0; i < kWarpWidth; ++i)
        perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);

    for (u32 lane = 0; lane < kWarpWidth; ++lane) {
        Addr a = base;
        switch (pattern) {
          case Pattern::Strided:
            a = base + static_cast<Addr>(lane) * stride;
            break;
          case Pattern::Broadcast:
            break;
          case Pattern::Duplicate:
            // Lanes in groups of 2, 4 or 8 share one address.
            a = base + static_cast<Addr>(lane >> (1 + rotate % 3)) * stride;
            break;
          case Pattern::Scattered:
            a = base + rng() % span;
            break;
          case Pattern::ConflictFree:
            // Every lane in its own bank (Sitchinava & Weichert's
            // bank-conflict-free sort, arXiv 1306.5076): lane i reads
            // word (i + r) % 32, or a permuted word, of its own row, or
            // a 33-word-padded column.
            if (rotate % 3 == 0)
                a = base + lane * 132ull;
            else if (rotate % 3 == 1)
                a = base + lane * 128ull + 4 * ((lane + rotate) % 32);
            else
                a = base + (rng() % 64) * 128 + 4 * perm[lane];
            break;
          case Pattern::Count:
            break;
        }
        // Keep every access inside its 128-byte line.
        if (!accessInOneLine(a, in.accessBytes))
            a -= a % kCacheLineBytes + in.accessBytes - kCacheLineBytes;
        in.addr[lane] = a;
    }
    return in;
}

TEST(FootprintOracle, RandomInstructionsMatchOracle)
{
    constexpr u32 kInstrs = 12000;
    std::mt19937_64 rng(0x5eed);
    std::array<u32, 17> sizes{};
    std::array<u32, static_cast<u32>(Pattern::Count)> patterns{};
    u32 empty = 0, single = 0, conflicted = 0, zero_conflict = 0;
    for (u32 n = 0; n < kInstrs; ++n) {
        Pattern p = static_cast<Pattern>(
            n % static_cast<u32>(Pattern::Count));
        WarpInstr in = randomInstr(rng, p);
        u8 banks[3];
        u32 num_mrf = static_cast<u32>(rng() % 4);
        for (u32 i = 0; i < num_mrf; ++i)
            banks[i] = static_cast<u8>(rng() % kBanksPerCluster);

        SCOPED_TRACE(describe(in));
        checkInstr(in, banks, num_mrf);
        if (::testing::Test::HasFailure())
            return;

        ++sizes[in.accessBytes];
        ++patterns[static_cast<u32>(p)];
        empty += in.activeMask == 0;
        single += in.numActive() == 1;
        if (isSharedSpace(in.op) && in.numActive() > 1) {
            u32 degree = oracleEvaluate(in, banks, 0,
                                        DesignKind::Partitioned, false)
                             .dataMaxPerBank;
            conflicted += degree > 1;
            zero_conflict += degree == 1;
        }
    }
    for (u32 s = 0; s <= 16; ++s)
        EXPECT_GT(sizes[s], 0u) << "size " << s;
    for (u32 c : patterns)
        EXPECT_GT(c, 0u);
    EXPECT_GT(empty, 0u);
    EXPECT_GT(single, 0u);
    EXPECT_GT(conflicted, 0u);
    EXPECT_GT(zero_conflict, 0u);
}

TEST(FootprintOracle, SixteenByteGatherMatchesOracle)
{
    // 32 lanes x 16 B: 128 distinct words over 4 lines. Every partitioned
    // bank serves 4 of them; every unified cluster gets one chunk of
    // each line, in 4 different banks.
    WarpInstr in = instr::mem(Opcode::LdShared, 1, 0);
    in.accessBytes = 16;
    for (u32 lane = 0; lane < kWarpWidth; ++lane)
        in.addr[lane] = 0x400 + lane * 16;
    const u8 banks[] = {0, 0};
    checkInstr(in, banks, 2);

    ConflictOutcome p = ConflictModel(DesignKind::Partitioned)
                            .evaluate(in, banks, 2);
    EXPECT_EQ(p.distinctWords, 128u);
    EXPECT_EQ(p.distinctChunks, 32u);
    EXPECT_EQ(p.dataMaxPerBank, 4u);
    EXPECT_EQ(p.penalty, 1u + 3u);
    ConflictOutcome u =
        ConflictModel(DesignKind::Unified).evaluate(in, nullptr, 0);
    EXPECT_EQ(u.dataMaxPerBank, 1u);
    EXPECT_EQ(u.penalty, 3u);
    EXPECT_EQ(ConflictModel(DesignKind::Unified, true)
                  .evaluate(in, nullptr, 0)
                  .penalty,
              0u);
}

TEST(FootprintOracle, ShippedKernelsMatchOracle)
{
    // Every shared op of every warp of the CTAs lint samples (first,
    // middle, last) in all 26 kernels' whole traces: the 4- and 8-byte,
    // strided, broadcast and padded footprints the generators emit.
    u64 ops = 0;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        auto k = createBenchmark(info.name, 0.5);
        const KernelParams& kp = k->params();
        std::vector<u32> ctas = {0, kp.gridCtas / 2, kp.gridCtas - 1};
        ctas.erase(std::unique(ctas.begin(), ctas.end()), ctas.end());
        for (u32 cta : ctas)
            for (u32 w = 0; w < kp.warpsPerCta(); ++w) {
                WarpCtx ctx;
                ctx.ctaId = cta;
                ctx.warpInCta = w;
                ctx.warpsPerCta = kp.warpsPerCta();
                ctx.threadsPerCta = kp.ctaThreads;
                ctx.seed = 1;
                InstrStream stream(k->warpProgram(ctx));
                for (const WarpInstr* in; (in = stream.peek()) != nullptr;
                     stream.pop()) {
                    if (!isSharedSpace(in->op))
                        continue;
                    ++ops;
                    checkInstr(*in, nullptr, 0);
                    if (::testing::Test::HasFailure()) {
                        ADD_FAILURE() << info.name << " cta " << cta
                                      << " warp " << w << ": "
                                      << describe(*in);
                        return;
                    }
                }
            }
    }
    std::cout << "[          ] " << ops << " shared ops checked\n";
    EXPECT_GT(ops, 0u);
}

TEST(FootprintOracle, LineCrossingAccessPanics)
{
    WarpInstr in = instr::mem(Opcode::LdShared, 1, 0, 0x4u);
    in.accessBytes = 8;
    in.addr[2] = 0x47c; // bytes 0x47c..0x483 straddle 0x480
    EXPECT_DEATH(coalesce(in), "lane 2's 8-byte ld.shared at 0x47c crosses");
    EXPECT_DEATH(ConflictModel(DesignKind::Partitioned)
                     .evaluate(in, nullptr, 0),
                 "crosses its 128-byte line");
}

// ---- Compute-op outcome table -----------------------------------------

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

/** One 32-thread CTA running a fixed list of instructions. */
class FixedKernel : public KernelModel
{
  public:
    explicit FixedKernel(std::vector<WarpInstr> body)
        : body_(std::move(body))
    {
        params_.name = "fixed";
        params_.regsPerThread = 16;
        params_.ctaThreads = kWarpWidth;
        params_.gridCtas = 1;
    }

    const KernelParams& params() const override { return params_; }

    std::unique_ptr<WarpProgram>
    warpProgram(const WarpCtx&) const override
    {
        return std::make_unique<FixedProgram>(body_);
    }

  private:
    KernelParams params_;
    std::vector<WarpInstr> body_;
};

TEST(FootprintCacheUnit, ComputeTableRoundTrip)
{
    // Alternate two operand-bank signatures: r0/r4 share MRF bank 0 (one
    // conflict cycle each), r1/r2 do not. The first of each evaluates;
    // the other 38 replay from the table and must charge the same.
    std::vector<WarpInstr> body;
    for (u32 i = 0; i < 20; ++i) {
        body.push_back(instr::alu(8, 0, 4));
        body.push_back(instr::alu(9, 1, 2));
    }
    FixedKernel k(body);
    SmRunConfig cfg;
    cfg.rfHierarchy = false; // every operand read reaches the MRF
    cfg.launch = occupancyPartitioned(k.params(), cfg.partition.rfBytes,
                                      cfg.partition.sharedBytes);
    SmModel sm(cfg, k);
    const SmStats& stats = sm.run();

    EXPECT_EQ(sm.footprintStats().computeMisses, 2u);
    EXPECT_EQ(sm.footprintStats().computeHits, 38u);
    EXPECT_EQ(stats.conflictPenaltyCycles, 20u);
    EXPECT_EQ(sm.footprintStats().memHits, 0u);
    EXPECT_EQ(sm.footprintStats().memMisses, 0u);
}

} // namespace
} // namespace unimem
