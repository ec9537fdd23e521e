/**
 * @file
 * Hot-state layout parity suite (DESIGN.md Section 12).
 *
 * The scheduler's per-warp hot state (ready cycles, head readiness,
 * dirty/barrier flags) is stored in struct-of-arrays form purely for
 * speed; the simulation outcome must be bit-identical to the original
 * array-of-structs engine. This suite pins that contract with a golden
 * fingerprint of every Table 1 kernel under both designs, generated
 * from the pre-refactor engine, that any layout change perturbing
 * semantics (a missed readiness-cache invalidation, a reordered
 * housekeeping pass, a dropped dirty mark) will break.
 * tests/test_reference_sm.cc checks the same loop against a per-cycle
 * reference model, which needs no recorded history.
 *
 * Regenerate with:
 *   UNIMEM_UPDATE_GOLDEN=1 ./build/tests/test_soa_state
 * Only a deliberate scheduler-policy change may regenerate this file,
 * and then every golden number in the repo must be re-validated.
 */

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/registry.hh"
#include "sim/simulator.hh"

namespace unimem {
namespace {

std::string
goldenPath()
{
    return std::string(UNIMEM_SOURCE_DIR) +
           "/tests/golden/soa_parity.golden";
}

constexpr double kScale = 0.05;

/** FNV-1a over every semantically meaningful exported statistic. */
u64
statsHash(const SmStats& s)
{
    u64 h = 14695981039346656037ull;
    auto mix = [&h](u64 v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(s.cycles);
    mix(s.warpInstrs);
    mix(s.threadInstrs);
    mix(s.barriers);
    mix(s.ctasExecuted);
    for (u64 n : s.issuedByOp)
        mix(n);
    mix(s.conflictPenaltyCycles);
    mix(s.tagSerializationCycles);
    mix(s.sharedReadBytes);
    mix(s.sharedWriteBytes);
    mix(s.cacheReadBytes);
    mix(s.cacheWriteBytes);
    mix(s.sched.deschedules);
    mix(s.sched.activations);
    mix(s.rf.mrfReads);
    mix(s.rf.mrfWrites);
    mix(s.rf.descheduleWritebacks);
    mix(s.dramSectors());
    return h;
}

std::string
fingerprint(const std::string& name, DesignKind design)
{
    std::unique_ptr<KernelModel> kernel = createBenchmark(name, kScale);
    RunSpec spec;
    spec.design = design;
    SimResult r = simulate(*kernel, spec);
    std::ostringstream os;
    os << name << ' ' << designName(design) << " cycles=" << r.sm.cycles
       << " instrs=" << r.sm.warpInstrs << " hash=" << std::hex
       << statsHash(r.sm) << std::dec;
    return os.str();
}

TEST(SoaParity, AllKernelsBothDesignsMatchGolden)
{
    std::vector<std::string> lines;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        lines.push_back(fingerprint(info.name, DesignKind::Partitioned));
        lines.push_back(fingerprint(info.name, DesignKind::Unified));
    }

    if (std::getenv("UNIMEM_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << "# Per-kernel simulation fingerprints pinned across the\n"
            << "# SoA hot-state refactor; regenerate with\n"
            << "# UNIMEM_UPDATE_GOLDEN=1 ./build/tests/test_soa_state\n"
            << "# kernel design cycles instrs hash\n";
        for (const std::string& l : lines)
            out << l << '\n';
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in.good())
        << "missing " << goldenPath()
        << " - regenerate with UNIMEM_UPDATE_GOLDEN=1";
    std::vector<std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        golden.push_back(line);
    }
    ASSERT_EQ(golden.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], golden[i]) << "kernel point " << i;
}

} // namespace
} // namespace unimem
