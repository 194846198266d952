/** @file Unit tests for the named workload models. */

#include <gtest/gtest.h>

#include <set>

#include "trace/workloads.hpp"

using namespace accord;
using namespace accord::trace;

TEST(Workloads, SuiteCompositionMatchesPaper)
{
    int spec = 0, gap = 0, hpc = 0;
    for (const auto &s : allBenchmarks()) {
        if (s.suite == "spec")
            ++spec;
        else if (s.suite == "gap")
            ++gap;
        else if (s.suite == "hpc")
            ++hpc;
    }
    // Section VI-A: 29 SPEC + 6 GAP + 1 HPC (+ 10 mixes).
    EXPECT_EQ(spec, 29);
    EXPECT_EQ(gap, 6);
    EXPECT_EQ(hpc, 1);
    EXPECT_EQ(allWorkloadNames().size(), 46u);
}

TEST(Workloads, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &s : allBenchmarks())
        EXPECT_TRUE(names.insert(s.name).second) << s.name;
}

TEST(Workloads, MainSetHas21InFigureOrder)
{
    const auto main = mainWorkloadNames();
    EXPECT_EQ(main.size(), 21u);
    EXPECT_EQ(main.front(), "milc");
    EXPECT_EQ(main[16], "soplex");
    EXPECT_EQ(main.back(), "mix4");
    for (const auto &name : main) {
        if (!isMix(name)) {
            EXPECT_TRUE(findBenchmark(name).sensitiveSet) << name;
        }
    }
}

TEST(Workloads, IsMixRecognizesMixNames)
{
    EXPECT_TRUE(isMix("mix1"));
    EXPECT_TRUE(isMix("mix10"));
    EXPECT_FALSE(isMix("milc"));
    EXPECT_FALSE(isMix("mix"));
}

TEST(Workloads, FindBenchmarkDeathOnUnknown)
{
    EXPECT_EXIT(findBenchmark("quake"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

TEST(Workloads, RateModeReplicatesOneSpec)
{
    const auto assignment = coreAssignment("libq", 16);
    ASSERT_EQ(assignment.size(), 16u);
    for (const auto *spec : assignment)
        EXPECT_EQ(spec->name, "libq");
}

TEST(Workloads, MixesUseHighMpkiSpecOnly)
{
    for (int mix = 1; mix <= 10; ++mix) {
        const auto assignment =
            coreAssignment("mix" + std::to_string(mix), 16);
        ASSERT_EQ(assignment.size(), 16u);
        for (const auto *spec : assignment) {
            EXPECT_EQ(spec->suite, "spec");
            EXPECT_GE(spec->mpki, 2.0);
        }
    }
}

TEST(Workloads, MixesDiffer)
{
    const auto m1 = coreAssignment("mix1", 16);
    const auto m2 = coreAssignment("mix2", 16);
    int same = 0;
    for (unsigned i = 0; i < 16; ++i)
        same += m1[i]->name == m2[i]->name ? 1 : 0;
    EXPECT_LT(same, 16);
}

TEST(Workloads, GeneratorParamsScaleFootprint)
{
    const auto &spec = findBenchmark("soplex");
    const auto p64 = generatorParams(spec, 0, 16, 64, 1);
    const auto p128 = generatorParams(spec, 0, 16, 128, 1);
    EXPECT_NEAR(static_cast<double>(p64.footprintLines)
                    / static_cast<double>(p128.footprintLines),
                2.0, 0.05);
}

TEST(Workloads, GeneratorParamsSeparateCores)
{
    const auto &spec = findBenchmark("gcc");
    const auto a = generatorParams(spec, 0, 16, 64, 1);
    const auto b = generatorParams(spec, 1, 16, 64, 1);
    EXPECT_NE(a.salt, b.salt);
    EXPECT_NE(a.seed, b.seed);
}

TEST(Workloads, GeneratorParamsFloorTinyFootprints)
{
    const auto &spec = findBenchmark("povray");    // 50MB total
    const auto p = generatorParams(spec, 0, 16, 4096, 1);
    EXPECT_GE(p.footprintLines, linesPerRegion * 4);
}

TEST(Workloads, LocalityClassesArePreserved)
{
    // The GWS story depends on these classes (Fig 7): streaming
    // workloads have long runs, graph workloads have unit runs.
    EXPECT_GE(findBenchmark("libq").hotRunLen, 32u);
    EXPECT_GE(findBenchmark("nekbone").hotRunLen, 32u);
    EXPECT_EQ(findBenchmark("mcf").hotRunLen, 1u);
    EXPECT_LE(findBenchmark("pr_twi").hotRunLen, 2u);
}

TEST(Workloads, FootprintsExceedRegionGranularity)
{
    for (const auto &s : allBenchmarks())
        EXPECT_GT(s.footprintGB, 0.0) << s.name;
}
