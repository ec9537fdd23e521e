/**
 * @file
 * Scheduler issue-order golden test.
 *
 * The two-level scheduler's exact issue sequence — which warp issues on
 * which cycle — is observable in the exported statistics, so any inner
 * loop optimization must reproduce it bit-for-bit. This suite records
 * the full (cycle, warp, warpGlobalId, opcode) issue trace of three
 * representative kernels under both designs and pins a compressed
 * fingerprint (issue count, FNV-1a hash over every record, plus the
 * leading/trailing records verbatim for debuggability) in a golden
 * file.
 *
 * Regenerate with:
 *   UNIMEM_UPDATE_GOLDEN=1 ./build/tests/test_sched_order
 * Any intentional change to the fingerprint means the scheduler policy
 * changed and every golden number in the repo must be re-validated.
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
#include "sm/sm.hh"

namespace unimem {
namespace {

struct TracePoint
{
    const char* kernel;
    DesignKind design;
    double scale;

    /** Two-level active set size (default 8; small values churn the
        deschedule/activation housekeeping ring far harder). */
    u32 activeSet = 8;
};

/**
 * Three workload shapes that exercise distinct scheduler paths:
 * dgemm (barrier + shared-memory heavy, register limited), bfs
 * (divergent, cache limited, long-latency deschedules), needle
 * (shared limited with barrier waves). The tiny-active-set points
 * force constant deschedule/promote traffic, so the housekeeping
 * ring processes multi-entry batches (not just the single-warp fast
 * path) on nearly every pass.
 */
const TracePoint kPoints[] = {
    {"dgemm", DesignKind::Partitioned, 0.05},
    {"dgemm", DesignKind::Unified, 0.05},
    {"bfs", DesignKind::Partitioned, 0.05},
    {"bfs", DesignKind::Unified, 0.05},
    {"needle", DesignKind::Partitioned, 0.05},
    {"needle", DesignKind::Unified, 0.05},
    {"dgemm", DesignKind::Partitioned, 0.05, 2},
    {"bfs", DesignKind::Unified, 0.05, 2},
    {"needle", DesignKind::Partitioned, 0.05, 4},
};

std::string
goldenPath()
{
    return std::string(UNIMEM_SOURCE_DIR) +
           "/tests/golden/sched_order.golden";
}

/** Run one point with the issue-trace sink installed. */
std::vector<SmModel::IssueRecord>
traceOf(const TracePoint& pt)
{
    std::unique_ptr<KernelModel> kernel =
        createBenchmark(pt.kernel, pt.scale);
    RunSpec spec;
    spec.design = pt.design;
    spec.activeSetSize = pt.activeSet;
    AllocationDecision alloc =
        resolveAllocation(kernel->params(), spec);
    EXPECT_TRUE(alloc.launch.feasible);

    // The trace sink needs direct SmModel access, which the facade does
    // not expose.
    SmModel sm(smRunConfigFor(spec, alloc), *kernel);
    std::vector<SmModel::IssueRecord> trace;
    sm.setIssueTrace(&trace);
    sm.run();
    EXPECT_EQ(trace.size(), sm.stats().warpInstrs);
    return trace;
}

u64
fnv1a(const std::vector<SmModel::IssueRecord>& trace)
{
    u64 h = 14695981039346656037ull;
    auto mix = [&h](u64 v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const SmModel::IssueRecord& r : trace) {
        mix(r.cycle);
        mix(r.warp);
        mix(r.warpGlobalId);
        mix(static_cast<u64>(r.op));
    }
    return h;
}

std::string
recordStr(const SmModel::IssueRecord& r)
{
    std::ostringstream os;
    os << r.cycle << ':' << r.warp << ':' << r.warpGlobalId << ':'
       << static_cast<int>(r.op);
    return os.str();
}

/** One golden line: kernel design issues hash head tail. */
std::string
fingerprint(const TracePoint& pt,
            const std::vector<SmModel::IssueRecord>& trace)
{
    constexpr size_t kEdge = 4;
    std::ostringstream os;
    os << pt.kernel << ' ' << designName(pt.design)
       << " as=" << pt.activeSet << " issues=" << trace.size()
       << " hash=" << std::hex << fnv1a(trace) << std::dec;
    os << " head=";
    for (size_t i = 0; i < std::min(kEdge, trace.size()); ++i)
        os << (i != 0 ? "," : "") << recordStr(trace[i]);
    os << " tail=";
    size_t start = trace.size() > kEdge ? trace.size() - kEdge : 0;
    for (size_t i = start; i < trace.size(); ++i)
        os << (i != start ? "," : "") << recordStr(trace[i]);
    return os.str();
}

TEST(SchedOrder, MatchesGolden)
{
    std::vector<std::string> lines;
    lines.reserve(std::size(kPoints));
    for (const TracePoint& pt : kPoints)
        lines.push_back(fingerprint(pt, traceOf(pt)));

    if (std::getenv("UNIMEM_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << "# Scheduler issue-order fingerprints; regenerate with\n"
            << "# UNIMEM_UPDATE_GOLDEN=1 ./build/tests/"
               "test_sched_order\n"
            << "# kernel design issues hash head tail\n";
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
        EXPECT_EQ(lines[i], golden[i]) << "trace point " << i;
}

TEST(SchedOrder, TraceIsDeterministic)
{
    const TracePoint pt{"dgemm", DesignKind::Unified, 0.02};
    std::vector<SmModel::IssueRecord> a = traceOf(pt);
    std::vector<SmModel::IssueRecord> b = traceOf(pt);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].cycle, b[i].cycle) << "at " << i;
        ASSERT_EQ(a[i].warp, b[i].warp) << "at " << i;
        ASSERT_EQ(a[i].warpGlobalId, b[i].warpGlobalId) << "at " << i;
        ASSERT_EQ(a[i].op, b[i].op) << "at " << i;
    }
}

} // namespace
} // namespace unimem
