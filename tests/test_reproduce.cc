/**
 * @file
 * The exhibit registry behind `unimem_cli reproduce`: every exhibit
 * prints the same text at one and four sweep workers, and `all` prints
 * exactly the single exhibits concatenated, so result-cache hits across
 * exhibits cannot change a table. The per-run `sweep:` timing lines are
 * the only ones allowed to differ.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "reproduce.hh"
#include "sim/result_cache.hh"

namespace unimem {
namespace {

/** Small enough that all 15 exhibits take about 2 s on one worker. */
constexpr double kScale = 0.02;

/** reproduce(@p name) at kScale with every `sweep:` line dropped. */
std::string
reproduced(const std::string& name, u32 jobs)
{
    ExhibitConfig cfg;
    cfg.scale = kScale;
    cfg.jobs = jobs;
    std::ostringstream os;
    reproduce(name, cfg, os);

    std::istringstream in(os.str());
    std::string kept, line;
    while (std::getline(in, line))
        if (line.rfind("sweep:", 0) != 0)
            kept += line + "\n";
    return kept;
}

std::vector<std::string>
exhibitNames()
{
    std::vector<std::string> names;
    for (const Exhibit& e : allExhibits())
        names.push_back(e.name);
    return names;
}

class ExhibitTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExhibitTest, IdenticalAtOneAndFourWorkers)
{
    // A cold cache for each run, so the four-worker run simulates every
    // point instead of replaying the one-worker results.
    resultCache().clear();
    std::string serial = reproduced(GetParam(), 1);
    resultCache().clear();
    EXPECT_EQ(reproduced(GetParam(), 4), serial);
    EXPECT_NE(serial.find("==="), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ExhibitTest, ::testing::ValuesIn(exhibitNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

TEST(Reproduce, AllMatchesSingleExhibitsConcatenated)
{
    std::string singles;
    for (const Exhibit& e : allExhibits()) {
        resultCache().clear();
        singles += reproduced(e.name, 4);
    }
    resultCache().clear();
    EXPECT_EQ(reproduced("all", 4), singles);
}

TEST(Reproduce, ListNamesFifteenUniqueExhibits)
{
    std::ostringstream os;
    listExhibits(os);
    std::set<std::string> names;
    for (const Exhibit& e : allExhibits()) {
        EXPECT_NE(os.str().find(std::string("| ") + e.name + " "),
                  std::string::npos)
            << e.name;
        names.insert(e.name);
    }
    EXPECT_EQ(allExhibits().size(), 15u);
    EXPECT_EQ(names.size(), 15u);
}

TEST(Reproduce, UnknownExhibitIsFatal)
{
    std::ostringstream os;
    EXPECT_EXIT(reproduce("fig99", ExhibitConfig{}, os),
                ::testing::ExitedWithCode(1), "unknown exhibit 'fig99'");
}

// The exhibit writes to stderr here, so "^fatal" also says that nothing
// was printed before the error.

TEST(Reproduce, OversizedScaleIsFatalBeforeAnyOutput)
{
    // Used to print the figure header, then exit from a sweep worker.
    ExhibitConfig cfg;
    cfg.scale = 1e12;
    cfg.jobs = 4;
    EXPECT_EXIT(reproduce("fig8_configurations", cfg, std::cerr),
                ::testing::ExitedWithCode(1),
                "^fatal: workload scale 1e\\+12: [0-9]+ CTAs do not fit");
    EXPECT_EXIT(reproduce("all", cfg, std::cerr),
                ::testing::ExitedWithCode(1), "^fatal: workload scale");
}

TEST(Reproduce, SmCountOutOfRangeIsFatal)
{
    // 536870912 SMs x 8 B/cycle used to wrap the chip bandwidth to 0.
    for (u32 sms : {0u, 257u, 536870912u}) {
        ExhibitConfig cfg;
        cfg.scale = kScale;
        cfg.sms = sms;
        EXPECT_EXIT(reproduce("ext_chip_validation", cfg, std::cerr),
                    ::testing::ExitedWithCode(1),
                    "^fatal: flag --sms expects 1 to 256 SMs, got " +
                        std::to_string(sms));
    }
}

} // namespace
} // namespace unimem
