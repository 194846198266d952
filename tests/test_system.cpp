/** @file Integration tests for the full System and runner helpers. */

#include <gtest/gtest.h>

#include "sim/report/reporter.hpp"
#include "sim/runner.hpp"

using namespace accord;
using namespace accord::sim;

namespace
{

/** A small, fast configuration for integration tests. */
SystemConfig
fastConfig(const std::string &workload = "libq")
{
    SystemConfig config;
    config.workload = workload;
    config.numCores = 4;
    config.scale = 1024;
    config.warmPerCore = 20000;
    config.measurePerCore = 5000;
    config.timedPerCore = 800;
    return config;
}

} // namespace

TEST(System, FunctionalRunProducesMetrics)
{
    SystemConfig config = fastConfig();
    config.runTimed = false;
    const SystemMetrics m = runSystem(config);
    EXPECT_GT(m.hitRate, 0.3);
    EXPECT_LT(m.hitRate, 1.0);
    EXPECT_GT(m.transfersPerRead, 0.9);
    EXPECT_TRUE(m.coreIpc.empty());
}

TEST(System, TimedRunProducesIpc)
{
    const SystemMetrics m = runSystem(fastConfig());
    ASSERT_EQ(m.coreIpc.size(), 4u);
    for (const double ipc : m.coreIpc)
        EXPECT_GT(ipc, 0.0);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.energy.totalJ, 0.0);
    EXPECT_GT(m.hbmStats.readsServed, 0u);
}

TEST(System, DeterministicForSeed)
{
    const SystemMetrics a = runSystem(fastConfig());
    const SystemMetrics b = runSystem(fastConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_DOUBLE_EQ(a.hitRate, b.hitRate);
}

TEST(System, SeedChangesOutcome)
{
    SystemConfig config = fastConfig();
    const SystemMetrics a = runSystem(config);
    config.seed = 999;
    const SystemMetrics b = runSystem(config);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(System, PolicyConfigurationTakesEffect)
{
    SystemConfig dm = fastConfig();
    dm.runTimed = false;

    SystemConfig accord = fastConfig();
    accord.runTimed = false;
    accord.ways = 2;
    accord.policySpec = "pws+gws";

    const SystemMetrics mdm = runSystem(dm);
    const SystemMetrics macc = runSystem(accord);
    EXPECT_GT(macc.hitRate, mdm.hitRate);
    EXPECT_GT(macc.wpAccuracy, 0.7);
    EXPECT_GT(macc.policyStorageBits, 0u);
    EXPECT_EQ(mdm.policyStorageBits, 0u);
}

TEST(System, MixWorkloadRuns)
{
    SystemConfig config = fastConfig("mix3");
    config.runTimed = false;
    const SystemMetrics m = runSystem(config);
    EXPECT_GT(m.hitRate, 0.0);
}

TEST(Runner, WeightedSpeedupIdentity)
{
    const SystemMetrics m = runSystem(fastConfig());
    EXPECT_DOUBLE_EQ(weightedSpeedup(m, m), 1.0);
}

TEST(Runner, WeightedSpeedupAveragesCores)
{
    SystemMetrics a, b;
    a.coreIpc = {1.0, 2.0};
    b.coreIpc = {1.0, 1.0};
    EXPECT_DOUBLE_EQ(weightedSpeedup(a, b), 1.5);
}

TEST(Runner, NamedConfigParsing)
{
    const auto dm = namedConfig("libq", "dm");
    EXPECT_EQ(dm.ways, 1u);
    EXPECT_TRUE(dm.policySpec.empty());

    const auto par = namedConfig("libq", "8way-parallel");
    EXPECT_EQ(par.ways, 8u);
    EXPECT_EQ(par.lookup, dramcache::LookupMode::Parallel);

    const auto ideal = namedConfig("libq", "4way-ideal");
    EXPECT_EQ(ideal.lookup, dramcache::LookupMode::Ideal);

    const auto accord = namedConfig("libq", "2way-pws+gws");
    EXPECT_EQ(accord.ways, 2u);
    EXPECT_EQ(accord.lookup, dramcache::LookupMode::Predicted);
    EXPECT_EQ(accord.policySpec, "pws+gws");

    const auto ca = namedConfig("libq", "ca");
    EXPECT_EQ(ca.org, dramcache::Organization::ColumnAssoc);
}

TEST(RunnerDeath, BadConfigNameFatal)
{
    EXPECT_EXIT(namedConfig("libq", "bogus"),
                ::testing::ExitedWithCode(1), "bad config name");
    // The way count must be a number that fits its field.
    for (const char *name : {"xway-pws", "2kway-pws", "4294967298way-pws",
                             "99999999999999999999way-pws"}) {
        EXPECT_EXIT(namedConfig("libq", name),
                    ::testing::ExitedWithCode(1),
                    std::string("bad config name '") + name + "'")
            << name;
    }
}

TEST(Runner, CliOverridesApply)
{
    Config cli;
    cli.parseArg("scale=256");
    cli.parseArg("cores=2");
    cli.parseArg("timed=123");
    cli.parseArg("seed=5");
    SystemConfig config;
    applyCliOverrides(config, cli);
    EXPECT_EQ(config.scale, 256u);
    EXPECT_EQ(config.numCores, 2u);
    EXPECT_EQ(config.timedPerCore, 123u);
    EXPECT_EQ(config.seed, 5u);
}

TEST(RunnerDeath, OutOfRangeOverridesNameTheKey)
{
    const std::pair<std::string, std::string> cases[] = {
        {"scale", "0"}, {"scale", "1e30"}, {"cores", "0"},
        {"mlp", "0"}, {"timed", "-5"}, {"cores", "4294967297"},
        {"mlp", "4294967297"}, {"jobs", "4294967297"}};
    for (const auto &[key, value] : cases) {
        Config cli;
        cli.set(key, value);
        SystemConfig config;
        EXPECT_EXIT(applyCliOverrides(config, cli),
                    ::testing::ExitedWithCode(1), "'" + key + "'")
            << key << "=" << value;
    }
}

TEST(Runner, FullFlagSetsScaleOne)
{
    // scale=1 is the one spelling of full scale: full= is never read,
    // so the scale keeps its default and checkConsumed rejects the key
    // as a typo.
    Config cli;
    cli.parseArg("full=1");
    SystemConfig config;
    applyCliOverrides(config, cli);
    EXPECT_EQ(config.scale, SystemConfig{}.scale);
    EXPECT_EXIT(cli.checkConsumed(), ::testing::ExitedWithCode(1),
                "'full=1' \\(never used");
}

TEST(Reporter, ParamsNameTheBenchDefaultScale)
{
    // A bench that forces its own scale (bench_gigascale runs at 1)
    // must not record SystemConfig's 128 in params.scale; scale=
    // still wins.
    char prog[] = "bench";
    char scale4[] = "scale=4";
    char *plain[] = {prog};
    char *forced[] = {prog, scale4};
    report::Reporter at_default(1, plain, "t", "r",
                                /* default_scale */ 1);
    EXPECT_NE(at_default.report().toJson().find("\"scale\": \"1\""),
              std::string::npos);
    report::Reporter overridden(2, forced, "t", "r",
                                /* default_scale */ 1);
    EXPECT_NE(overridden.report().toJson().find("\"scale\": \"4\""),
              std::string::npos);
}

TEST(System, SpeedupOfAccordOverDmIsSane)
{
    SystemConfig dm = fastConfig("libq");
    SystemConfig accord = fastConfig("libq");
    accord.ways = 2;
    accord.policySpec = "pws+gws";
    const double speedup =
        weightedSpeedup(runSystem(accord), runSystem(dm));
    EXPECT_GT(speedup, 0.7);
    EXPECT_LT(speedup, 3.0);
}
