/**
 * @file
 * Unit tests for the common utilities: RNG determinism, statistics
 * container, table formatting, CLI parsing, and the fork-join worker
 * pool.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/worker_pool.hh"

namespace unimem {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, RangeStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.range(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(StatSet, SetGetAndMerge)
{
    StatSet a;
    a.set("cycles", 100);
    a.add("cycles", 50);
    EXPECT_DOUBLE_EQ(a.get("cycles"), 150.0);
    EXPECT_TRUE(a.has("cycles"));
    EXPECT_FALSE(a.has("missing"));
    EXPECT_DOUBLE_EQ(a.getOr("missing", 7.0), 7.0);

    StatSet b;
    b.set("cycles", 10);
    b.set("instrs", 5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("cycles"), 160.0);
    EXPECT_DOUBLE_EQ(a.get("instrs"), 5.0);
}

TEST(StatSet, DumpProducesSortedLines)
{
    StatSet s;
    s.set("b", 2);
    s.set("a", 1);
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "a = 1\nb = 2\n");
}

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2.50"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2.50  |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Cli, ParsesFlagsAndPositional)
{
    const char* argv[] = {"prog", "--capacity-kb=384", "--verbose",
                          "needle", "--ratio=1.5"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.getInt("capacity-kb", 0), 384);
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_DOUBLE_EQ(args.getDouble("ratio", 0.0), 1.5);
    EXPECT_EQ(args.getString("missing", "dflt"), "dflt");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "needle");
}

TEST(Cli, BooleanSpellings)
{
    const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1"};
    CliArgs args(4, argv);
    EXPECT_TRUE(args.getBool("a", false));
    EXPECT_FALSE(args.getBool("b", true));
    EXPECT_TRUE(args.getBool("c", false));
}

const std::vector<CliFlag> kDeclared = {
    {"scale", "F", "workload scale"},
    {"design", "NAME", "memory design"},
    {"jobs", "N", "sweep workers"},
    {"sms", "N", "SMs on the chip"}};

TEST(Cli, DeclaredFlagsParse)
{
    const char* argv[] = {"prog", "run", "vectoradd", "--scale=0.01",
                          "--design=unified", "--jobs=4"};
    CliArgs args(6, argv, "usage: prog", kDeclared);
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 0.5), 0.01);
    EXPECT_EQ(args.getString("design", ""), "unified");
    EXPECT_EQ(args.getCount("jobs", 0), 4u);
    EXPECT_EQ(args.getCount("sms", 7), 7u);
}

TEST(Cli, UnknownFlagsAreFatalAndNamed)
{
    const char* argv[] = {"prog", "run", "vectoradd", "--sacle=0.01",
                          "--desing=unified"};
    EXPECT_EXIT(CliArgs(5, argv, "usage: prog", kDeclared),
                ::testing::ExitedWithCode(1),
                "unknown flag --desing, --sacle");
}

TEST(Cli, HelpExitsZeroBeforeAnyWork)
{
    const char* argv[] = {"prog", "--help"};
    EXPECT_EXIT(
        {
            CliArgs args(2, argv, "usage: prog", kDeclared);
            std::exit(3); // reached only if --help did not exit
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Cli, NegativeCountsAreFatal)
{
    const char* jobs[] = {"prog", "--jobs=-1"};
    CliArgs a(2, jobs, "usage: prog", kDeclared);
    EXPECT_EXIT(a.getCount("jobs", 0), ::testing::ExitedWithCode(1),
                "--jobs expects a non-negative count, got '-1'");
    const char* sms[] = {"prog", "--sms=-4"};
    CliArgs b(2, sms, "usage: prog", kDeclared);
    EXPECT_EXIT(b.getCount("sms", 0), ::testing::ExitedWithCode(1),
                "--sms expects a non-negative count, got '-4'");
}

TEST(Cli, BoundedCountsCheckOnlyGivenValues)
{
    const char* argv[] = {"prog", "--threads=0", "--regs=256",
                          "--quantum=99999999999"};
    CliArgs args(4, argv);
    // The default is returned unchecked: 0 means "no override" here.
    EXPECT_EQ(args.getCountIn("capacity-kb", 0, 1, 8192), 0u);
    EXPECT_EQ(args.getCountIn("regs", 0, 1, 256), 256u);
    EXPECT_EXIT(args.getCountIn("threads", 1024, 1, 1024),
                ::testing::ExitedWithCode(1),
                "^fatal: flag --threads expects 1 to 1024, got 0");
    EXPECT_EXIT(args.getCountIn("quantum", 64, 1, 0xffffffffu),
                ::testing::ExitedWithCode(1),
                "^fatal: flag --quantum expects 1 to 4294967295, got "
                "99999999999");
}

TEST(Log, StrprintfFormats)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
}

TEST(Types, KbLiteral)
{
    EXPECT_EQ(64_KB, 65536u);
    EXPECT_EQ(1_MB, 1048576u);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce)
{
    for (u32 workers : {1u, 2u, 4u, 8u}) {
        for (u32 n : {0u, 1u, 3u, 64u}) {
            std::vector<std::atomic<u32>> runs(n);
            std::atomic<u32> stray{0};
            WorkerPool(workers).dispatch(n, [&](u32 i) {
                if (i < n)
                    runs[i].fetch_add(1);
                else
                    stray.fetch_add(1);
            });
            EXPECT_EQ(stray.load(), 0u) << workers << " workers, n " << n;
            for (u32 i = 0; i < n; ++i)
                EXPECT_EQ(runs[i].load(), 1u)
                    << "index " << i << " of " << n << " at " << workers
                    << " workers";
        }
    }
}

TEST(WorkerPool, LowestFailingIndexIsRethrownAfterEveryIndexRan)
{
    for (u32 workers : {1u, 4u}) {
        std::vector<std::atomic<u32>> ran(64);
        try {
            WorkerPool(workers).dispatch(64, [&](u32 i) {
                ran[i].store(1);
                // Index 9 fails last in wall time when helpers run.
                if (i == 9) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("boom 9");
                }
                if (i == 41)
                    throw std::runtime_error("boom 41");
            });
            ADD_FAILURE() << "expected dispatch to rethrow";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom 9") << workers << " workers";
        }
        for (u32 i = 0; i < 64; ++i)
            EXPECT_EQ(ran[i].load(), 1u) << "index " << i << " at "
                                         << workers << " workers";
    }
}

TEST(WorkerPool, OneWorkerRunsOnTheCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    u32 onCaller = 0;
    WorkerPool(1).dispatch(16, [&](u32) {
        onCaller += std::this_thread::get_id() == caller ? 1 : 0;
    });
    EXPECT_EQ(onCaller, 16u);
}

TEST(WorkerPool, ZeroMeansEveryHardwareThread)
{
    EXPECT_GE(WorkerPool(0).workers(), 1u);
    EXPECT_EQ(WorkerPool(0).workers(),
              std::max(std::thread::hardware_concurrency(), 1u));
    EXPECT_EQ(WorkerPool(3).workers(), 3u);
}

} // namespace
} // namespace unimem
