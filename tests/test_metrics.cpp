/**
 * @file
 * Tests for the observability layer: the hierarchical MetricRegistry,
 * epoch time-series, canonical JSON serialization, report tables, and
 * the policy-spec round-trip that run reports embed.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/metrics/registry.hpp"
#include "core/factory.hpp"
#include "sim/report/report.hpp"
#include "sim/runner.hpp"

using namespace accord;

namespace
{

/** A component-shaped bundle of metrics for registration tests. */
struct Component
{
    Counter reads;
    Ratio lookup;
    Average latency;
    std::uint64_t raw = 0;

    void
    registerMetrics(MetricRegistry &registry,
                    const std::string &prefix) const
    {
        registry.addCounter(MetricRegistry::join(prefix, "reads"),
                            reads);
        registry.addRatio(MetricRegistry::join(prefix, "lookup"),
                          lookup);
        registry.addAverage(MetricRegistry::join(prefix, "latency"),
                            latency);
        registry.addValue(MetricRegistry::join(prefix, "raw"), raw);
    }
};

} // namespace

TEST(MetricRegistry, JoinBuildsDottedPaths)
{
    EXPECT_EQ(MetricRegistry::join("l4", "lookup"), "l4.lookup");
    EXPECT_EQ(MetricRegistry::join("", "lookup"), "lookup");
}

TEST(MetricRegistry, CompositeMetricsExpandToLeaves)
{
    Component comp;
    MetricRegistry registry;
    comp.registerMetrics(registry, "l4");

    const std::vector<std::string> leaves = registry.leafPaths();
    const std::vector<std::string> expected = {
        "l4.latency.count", "l4.latency.max",   "l4.latency.mean",
        "l4.latency.min",   "l4.lookup.hit_rate", "l4.lookup.hits",
        "l4.lookup.total",  "l4.raw",           "l4.reads",
    };
    EXPECT_EQ(leaves, expected);
}

TEST(MetricRegistry, RegistrationIsZeroCopySampling)
{
    Component comp;
    MetricRegistry registry;
    comp.registerMetrics(registry, "l4");

    // Mutations after registration are visible at sample time: the
    // registry holds pointers, not copies.
    comp.reads.inc(3);
    comp.lookup.hit();
    comp.lookup.miss();
    comp.raw = 17;

    EXPECT_EQ(registry.sample("l4.reads"), 3.0);
    EXPECT_EQ(registry.sample("l4.lookup.hits"), 1.0);
    EXPECT_EQ(registry.sample("l4.lookup.total"), 2.0);
    EXPECT_EQ(registry.sample("l4.lookup.hit_rate"), 0.5);
    EXPECT_EQ(registry.sample("l4.raw"), 17.0);
}

TEST(MetricRegistry, GaugeSamplesThroughCallback)
{
    double value = 1.0;
    MetricRegistry registry;
    registry.addGauge("derived", [&value] { return value; });
    EXPECT_EQ(registry.sample("derived"), 1.0);
    value = 2.5;
    EXPECT_EQ(registry.sample("derived"), 2.5);
}

TEST(MetricRegistryDeath, DuplicateRegistrationIsFatal)
{
    Counter counter;
    MetricRegistry registry;
    registry.addCounter("l4.reads", counter);
    EXPECT_EXIT(registry.addCounter("l4.reads", counter),
                testing::ExitedWithCode(1), "l4.reads");
}

TEST(MetricRegistryDeath, MalformedPathIsFatal)
{
    Counter counter;
    MetricRegistry registry;
    EXPECT_EXIT(registry.addCounter("L4.Reads", counter),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(registry.addCounter("l4..reads", counter),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(registry.addCounter("", counter),
                testing::ExitedWithCode(1), "");
}

TEST(MetricRegistryDeath, UnknownLeafIsFatal)
{
    const MetricRegistry registry;
    EXPECT_EXIT(registry.sample("no.such.path"),
                testing::ExitedWithCode(1), "no.such.path");
}

TEST(MetricSnapshot, SortedAndSearchable)
{
    Component comp;
    comp.reads.inc(7);
    MetricRegistry registry;
    comp.registerMetrics(registry, "dram.ch0");

    const MetricSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.size(), 9u);
    for (std::size_t i = 1; i < snap.values().size(); ++i)
        EXPECT_LT(snap.values()[i - 1].first, snap.values()[i].first);

    EXPECT_EQ(snap.at("dram.ch0.reads"), 7.0);
    EXPECT_EQ(snap.find("dram.ch0.bogus"), nullptr);
}

TEST(MetricSeries, RecordsMonotonicEpochs)
{
    Component comp;
    MetricRegistry registry;
    comp.registerMetrics(registry, "c");

    MetricSeries series;
    comp.reads.inc();
    series.record(100, registry.snapshot());
    comp.reads.inc();
    series.record(200, registry.snapshot());

    EXPECT_EQ(series.size(), 2u);
    EXPECT_EQ(series.positions(),
              (std::vector<std::uint64_t>{100, 200}));
    EXPECT_EQ(series.value(0, "c.reads"), 1.0);
    EXPECT_EQ(series.value(1, "c.reads"), 2.0);
}

TEST(MetricSeriesDeath, NonIncreasingPositionIsFatal)
{
    Component comp;
    MetricRegistry registry;
    comp.registerMetrics(registry, "c");

    MetricSeries series;
    series.record(100, registry.snapshot());
    EXPECT_DEATH(series.record(100, registry.snapshot()),
                 "strictly increase");
}

TEST(CanonicalNumber, OneFormattingForAllReports)
{
    EXPECT_EQ(canonicalNumber(0.0), "0");
    EXPECT_EQ(canonicalNumber(-0.0), "0");
    EXPECT_EQ(canonicalNumber(42.0), "42");
    EXPECT_EQ(canonicalNumber(0.5), "0.5");
    EXPECT_EQ(canonicalNumber(1.0 / 3.0), "0.333333333333");
}

TEST(ReportTable, TextAndJsonShareCells)
{
    report::ReportTable table("demo", {"name", "value", "share"});
    table.row().cell("alpha").cell(3.14159, 2).percent(0.25);
    table.row().cell("beta").cell(std::uint64_t{7}).percent(0.5, 2);

    const std::string text = table.renderText();
    EXPECT_NE(text.find("3.14"), std::string::npos);
    EXPECT_NE(text.find("25.0%"), std::string::npos);
    EXPECT_NE(text.find("50.00%"), std::string::npos);

    JsonWriter json;
    table.writeJson(json);
    const std::string doc = json.str();
    // JSON carries the raw values, not the rounded text.
    EXPECT_NE(doc.find("3.14159"), std::string::npos);
    EXPECT_NE(doc.find("0.25"), std::string::npos);
    EXPECT_NE(doc.find("0.5"), std::string::npos);
}

TEST(RunReport, CanonicalJsonIsDeterministic)
{
    const auto build = [] {
        report::RunReport report("title", "Fig 0");
        report.setParam("scale", "128");
        report.setParam("seed", "1");
        report.addNote("a note");
        report::ReportTable &table =
            report.addTable("t", {"k", "v"});
        table.row().cell("x").cell(1.5, 1);
        report.setRunSpec("w/cfg", "workload=w ways=2");
        report.addRunValue("w/cfg", "speedup", 1.25);
        return report.toJson();
    };
    const std::string a = build();
    const std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"schema\": \"accord.run_report/1\""),
              std::string::npos);
    EXPECT_EQ(a.back(), '\n');
}

TEST(RunReportDeath, DuplicateTableNameIsFatal)
{
    report::RunReport report("title", "ref");
    report.addTable("t", {"a"});
    EXPECT_EXIT(report.addTable("t", {"a"}),
                testing::ExitedWithCode(1), "");
}

TEST(PolicyOptions, ToStringListsEveryKnobInFixedOrder)
{
    core::PolicyOptions options;
    EXPECT_EQ(options.toString(),
              "pip=0.85,k=2,gws=64,ptag=4,seed=42");
}

TEST(PolicyOptions, FromStringRoundTrips)
{
    core::PolicyOptions options;
    options.pip = 0.9;
    options.swsK = 3;
    options.gwsEntries = 128;
    options.partialTagBits = 6;
    options.seed = 7;

    const core::PolicyOptions parsed =
        core::PolicyOptions::fromString(options.toString());
    EXPECT_EQ(parsed.toString(), options.toString());
}

TEST(PolicyOptions, FromStringAcceptsSubsets)
{
    const core::PolicyOptions parsed =
        core::PolicyOptions::fromString("pip=0.7,seed=3");
    EXPECT_EQ(parsed.pip, 0.7);
    EXPECT_EQ(parsed.seed, 3u);
    EXPECT_EQ(parsed.swsK, 2u);       // default
    EXPECT_EQ(parsed.gwsEntries, 64u); // default
}

TEST(PolicyOptionsDeath, RejectsUnknownAndMalformed)
{
    EXPECT_EXIT(core::PolicyOptions::fromString("bogus=1"),
                testing::ExitedWithCode(1), "bogus");
    EXPECT_EXIT(core::PolicyOptions::fromString("pip"),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(core::PolicyOptions::fromString("pip=abc"),
                testing::ExitedWithCode(1), "");
    // One grammar with the other specs: every number is width- and
    // range-checked, and an error names the key.
    const std::pair<const char *, const char *> cases[] = {
        {"seed=-1", "'seed'"},     {"k=4294967298", "'k'"},
        {"gws=-1", "'gws'"},       {"gws=0", "'gws'"},
        {"gws=65537", "'gws'"},    {"gws=4294967295", "'gws'"},
        {"ptag=-3", "'ptag'"},     {"pip=2", "'pip'"},
        {"pip=inf", "'pip'"},      {"pip=nan", "'pip'"},
        {"pip=0.9,,k=2", "malformed policy option"}};
    for (const auto &[text, message] : cases) {
        EXPECT_EXIT(core::PolicyOptions::fromString(text),
                    testing::ExitedWithCode(1), message)
            << text;
    }
}

TEST(PolicySpec, ParseSplitsNameAndEmbeddedOptions)
{
    const auto [name, options] =
        core::parseSpec("pws+gws(pip=0.9,gws=128)");
    EXPECT_EQ(name, "pws+gws");
    EXPECT_EQ(options.pip, 0.9);
    EXPECT_EQ(options.gwsEntries, 128u);

    const auto [bare, defaults] = core::parseSpec("sws");
    EXPECT_EQ(bare, "sws");
    EXPECT_EQ(defaults.toString(),
              core::PolicyOptions{}.toString());
}

TEST(PolicySpec, CanonicalSpecRoundTrips)
{
    const std::string canon = core::canonicalSpec("pws+gws(pip=0.9)");
    EXPECT_EQ(canon,
              "pws+gws(pip=0.9,k=2,gws=64,ptag=4,seed=42)");
    // Canonicalizing a canonical spec is the identity.
    EXPECT_EQ(core::canonicalSpec(canon), canon);
}

TEST(PolicySpec, EmbeddedOptionsReachTheFactory)
{
    core::CacheGeometry geom;
    geom.ways = 2;
    geom.sets = 1024;
    // gws=8 shrinks the RIT/RLT: the spec's options must win over the
    // defaults for the storage to differ.
    const auto small = core::makePolicy("gws(gws=8)", geom);
    const auto big = core::makePolicy("gws(gws=256)", geom);
    EXPECT_LT(small->storageBits(), big->storageBits());
}

TEST(CanonicalConfigSpec, IdentifiesEveryResultAffectingKnob)
{
    sim::SystemConfig config;
    config.workload = "libq";
    const std::string spec = sim::canonicalConfigSpec(config);
    EXPECT_NE(spec.find("workload=libq"), std::string::npos);
    EXPECT_NE(spec.find("scale="), std::string::npos);
    EXPECT_NE(spec.find("seed="), std::string::npos);
    EXPECT_NE(spec.find("epoch="), std::string::npos);
    // jobs= never affects results, so it must not appear.
    EXPECT_EQ(spec.find("jobs="), std::string::npos);

    sim::SystemConfig other = config;
    other.seed = config.seed + 1;
    EXPECT_NE(sim::canonicalConfigSpec(other), spec);
}

TEST(SystemMetrics, FinalSnapshotAndEpochSeries)
{
    sim::SystemConfig config;
    config.workload = "libq";
    config.runTimed = false;
    config.scale = 4096;
    config.numCores = 2;
    config.warmPerCore = 2000;
    config.measurePerCore = 3000;
    config.epochEvery = 1000;

    const sim::SystemMetrics m = sim::runSystem(config);
    EXPECT_GT(m.finalMetrics.size(), 0u);
    EXPECT_EQ(m.finalMetrics.at("l4.lookup.hit_rate"), m.hitRate);

    // measure=3000/core over 2 cores = 6000 accesses; epochs every
    // 1000 accesses land on chunk boundaries, strictly increasing.
    EXPECT_GT(m.epochs.size(), 2u);
    const auto &positions = m.epochs.positions();
    for (std::size_t i = 1; i < positions.size(); ++i)
        EXPECT_LT(positions[i - 1], positions[i]);
    // The epoch paths match the final snapshot's paths.
    EXPECT_EQ(m.epochs.paths().size(), m.finalMetrics.size());
}

TEST(SystemMetrics, TimedEpochSeriesLandsOnTheSampleStride)
{
    sim::SystemConfig config;
    config.workload = "libq";
    config.scale = 4096;
    config.numCores = 2;
    config.warmPerCore = 2000;
    config.timedPerCore = 1500;
    config.epochEvery = 500;

    const sim::SystemMetrics m = sim::runSystem(config);
    ASSERT_FALSE(m.epochs.empty());

    // Timed samples land on the first 256-event boundary at or past
    // each epoch: every gap spans at least N completed reads, and each
    // position is the cores' completed-read total at its snapshot.
    const auto &positions = m.epochs.positions();
    EXPECT_GE(positions.front(), config.epochEvery);
    for (std::size_t i = 1; i < positions.size(); ++i)
        EXPECT_GE(positions[i] - positions[i - 1], config.epochEvery);
    for (std::size_t i = 0; i < positions.size(); ++i) {
        EXPECT_EQ(m.epochs.value(i, "core0.completed")
                      + m.epochs.value(i, "core1.completed"),
                  static_cast<double>(positions[i]));
    }
    EXPECT_LE(static_cast<double>(positions.back()),
              m.finalMetrics.at("core0.completed")
                  + m.finalMetrics.at("core1.completed"));

    std::vector<std::string> final_paths;
    for (const auto &entry : m.finalMetrics.values())
        final_paths.push_back(entry.first);
    EXPECT_EQ(m.epochs.paths(), final_paths);
}

TEST(SystemMetrics, EpochSamplingOffByDefault)
{
    sim::SystemConfig config;
    config.workload = "libq";
    config.runTimed = false;
    config.scale = 4096;
    config.numCores = 1;
    config.warmPerCore = 500;
    config.measurePerCore = 500;

    const sim::SystemMetrics m = sim::runSystem(config);
    EXPECT_TRUE(m.epochs.empty());
    EXPECT_GT(m.finalMetrics.size(), 0u);
}
