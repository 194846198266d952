/**
 * @file
 * Flight-recorder telemetry tests: deterministic heartbeat cadence
 * (byte-identical canonical streams across jobs= counts), the
 * flush-per-record kill-survivability contract, interval resolution,
 * per-run stream naming, the EventQueue high-water/spill counters the
 * heartbeats sample, and the System-level contract that telemetry is
 * opt-in and never changes simulation results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/telemetry/telemetry.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

using namespace accord;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/**
 * Remove every `"host":{...}` object (the declared volatile
 * partition) from one record line.  Host objects are flat — the
 * writer never nests inside them — so brace matching is trivial.
 */
std::string
stripHost(std::string line)
{
    for (std::size_t at = line.find("\"host\":{");
         at != std::string::npos; at = line.find("\"host\":{", at)) {
        const std::size_t close = line.find('}', at);
        EXPECT_NE(close, std::string::npos);
        std::size_t begin = at;
        if (begin > 0 && line[begin - 1] == ',')
            --begin;
        line.erase(begin, close + 1 - begin);
    }
    return line;
}

std::vector<std::string>
canonicalStream(const std::string &path)
{
    std::vector<std::string> lines = splitLines(slurp(path));
    for (std::string &line : lines)
        line = stripHost(std::move(line));
    return lines;
}

sim::SystemConfig
telemetryConfig(const std::string &path)
{
    sim::SystemConfig config;
    config.workload = "libq";
    config.numCores = 2;
    config.scale = 1024;
    config.warmPerCore = 5000;
    config.timedPerCore = 300;
    config.telemetryPath = path;
    config.telemetryInterval = 2000;
    return config;
}

} // namespace

// --- interval resolution -------------------------------------------

TEST(TelemetryConfig, ExplicitIntervalWins)
{
    telemetry::TelemetryConfig config;
    config.interval = 123;
    EXPECT_EQ(config.resolvedInterval(0), 123u);
    EXPECT_EQ(config.resolvedInterval(1'000'000'000), 123u);
}

TEST(TelemetryConfig, AutoIntervalScalesWithRunLength)
{
    telemetry::TelemetryConfig config;
    // Short or unknown-length runs use the floor cadence.
    EXPECT_EQ(config.resolvedInterval(0),
              telemetry::TelemetryConfig::kDefaultInterval);
    EXPECT_EQ(config.resolvedInterval(1000),
              telemetry::TelemetryConfig::kDefaultInterval);
    // Long runs stretch the cadence so heartbeat count stays bounded
    // (~kAutoHeartbeats per run) no matter how long the run is.
    const std::uint64_t total = 640'000'000;
    EXPECT_EQ(config.resolvedInterval(total),
              total / telemetry::TelemetryConfig::kAutoHeartbeats);
}

TEST(TelemetryConfig, EnabledMeansNonEmptyPath)
{
    telemetry::TelemetryConfig config;
    EXPECT_FALSE(config.enabled());
    config.path = "/tmp/t.jsonl";
    EXPECT_TRUE(config.enabled());
}

// --- FlightRecorder unit behavior ----------------------------------

TEST(FlightRecorder, FlushesEveryRecordForKillSurvivability)
{
    const std::string path =
        testing::TempDir() + "accord_telem_flush.jsonl";
    telemetry::TelemetryConfig config;
    config.path = path;
    config.interval = 10;
    telemetry::FlightRecorder::Header header;
    header.spec = "unit test";
    telemetry::FlightRecorder recorder(config, header);

    telemetry::HeartbeatSample sample;
    sample.phase = "measure";
    sample.position = 10;
    recorder.heartbeat(sample);

    // The stream must be readable NOW, while the recorder is alive
    // and no finish() has run — that is what a killed run leaves.
    const std::vector<std::string> lines = splitLines(slurp(path));
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"t\":\"hdr\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"t\":\"hb\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(FlightRecorder, CadenceAdvancesFromCrossingNotGrid)
{
    const std::string path =
        testing::TempDir() + "accord_telem_cadence.jsonl";
    telemetry::TelemetryConfig config;
    config.path = path;
    config.interval = 100;
    telemetry::FlightRecorder recorder(
        config, telemetry::FlightRecorder::Header{});

    EXPECT_FALSE(recorder.due(99));
    EXPECT_TRUE(recorder.due(100));
    // A chunked caller overshoots to 250; the next heartbeat is due
    // at 350 (crossing + interval), so no double-fire at 300.
    telemetry::HeartbeatSample sample;
    sample.position = 250;
    recorder.heartbeat(sample);
    EXPECT_FALSE(recorder.due(300));
    EXPECT_TRUE(recorder.due(350));
    std::remove(path.c_str());
}

TEST(FlightRecorder, DestructorClosesAnUnfinishedStream)
{
    const std::string path =
        testing::TempDir() + "accord_telem_dtor.jsonl";
    {
        telemetry::TelemetryConfig config;
        config.path = path;
        telemetry::FlightRecorder recorder(
            config, telemetry::FlightRecorder::Header{});
    }
    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"t\":\"end\""), std::string::npos);
    std::remove(path.c_str());
}

// --- EventQueue telemetry counters ---------------------------------

TEST(EventQueueTelemetry, OccupancyPeakTracksHighWater)
{
    EventQueue eq;
    EXPECT_EQ(eq.occupancyPeak(), 0u);
    eq.scheduleAfter(1, [] {});
    eq.scheduleAfter(2, [] {});
    eq.scheduleAfter(3, [] {});
    EXPECT_EQ(eq.occupancyPeak(), 3u);
    while (eq.step()) {
    }
    // Draining does not lower the high-water mark.
    EXPECT_EQ(eq.occupancyPeak(), 3u);
}

TEST(EventQueueTelemetry, OverflowSpillsCountBeyondHorizon)
{
    EventQueue eq;
    EXPECT_EQ(eq.overflowSpills(), 0u);
    eq.scheduleAfter(1, [] {});
    EXPECT_EQ(eq.overflowSpills(), 0u);
    eq.scheduleAfter(EventQueue::kBuckets + 10, [] {});
    EXPECT_EQ(eq.overflowSpills(), 1u);
    while (eq.step()) {
    }
    EXPECT_EQ(eq.overflowSpills(), 1u);
}

// --- per-run stream naming -----------------------------------------

TEST(PerRunTelemetryPath, KeepsCompoundExtensionIntact)
{
    EXPECT_EQ(sim::perRunTelemetryPath("out.telemetry.jsonl", 3),
              "out.run3.telemetry.jsonl");
    EXPECT_EQ(sim::perRunTelemetryPath("dir/x.telemetry.jsonl", 0),
              "dir/x.run0.telemetry.jsonl");
}

TEST(PerRunTelemetryPath, FallsBackToTracePathRule)
{
    EXPECT_EQ(sim::perRunTelemetryPath("out.jsonl", 2),
              "out.run2.jsonl");
    EXPECT_EQ(sim::perRunTelemetryPath("stream", 1), "stream.run1");
}

// --- System integration --------------------------------------------

TEST(SystemTelemetry, DisabledRunWritesNothingAndStaysNeutral)
{
    const std::string path =
        testing::TempDir() + "accord_telem_neutral.jsonl";
    sim::SystemConfig off = telemetryConfig("");
    sim::SystemConfig on = telemetryConfig(path);
    const sim::SystemMetrics a = sim::runSystem(off);
    const sim::SystemMetrics b = sim::runSystem(on);

    // Telemetry is pure observability: identical simulated outcome.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_DOUBLE_EQ(a.hitRate, b.hitRate);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.eqOccupancyPeak, b.eqOccupancyPeak);
    EXPECT_EQ(a.eqOverflowSpills, b.eqOverflowSpills);
    EXPECT_FALSE(std::ifstream(telemetryConfig("").telemetryPath)
                     .is_open());
    std::remove(path.c_str());
}

TEST(SystemTelemetry, EpochsAndTelemetryTogetherStayNeutral)
{
    // Both samplers share one sampling point in the timed loop; with
    // both on, the simulated outcome matches a run with both off.
    const std::string path =
        testing::TempDir() + "accord_telem_epochs.jsonl";
    sim::SystemConfig on = telemetryConfig(path);
    on.epochEvery = 100;
    const sim::SystemMetrics a = sim::runSystem(telemetryConfig(""));
    const sim::SystemMetrics b = sim::runSystem(on);

    EXPECT_FALSE(b.epochs.empty());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_DOUBLE_EQ(a.hitRate, b.hitRate);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.eqOccupancyPeak, b.eqOccupancyPeak);
    std::remove(path.c_str());
}

TEST(SystemTelemetry, StreamCarriesHeaderHeartbeatsAndEnd)
{
    const std::string path =
        testing::TempDir() + "accord_telem_stream.jsonl";
    const sim::SystemMetrics m =
        sim::runSystem(telemetryConfig(path));

    const std::vector<std::string> lines = splitLines(slurp(path));
    ASSERT_GE(lines.size(), 3u);
    EXPECT_NE(lines.front().find("\"schema\":\"accord.telemetry/1\""),
              std::string::npos);
    EXPECT_NE(lines.front().find("\"volatile_container\":\"host\""),
              std::string::npos);
    for (std::size_t i = 1; i + 1 < lines.size(); ++i)
        EXPECT_NE(lines[i].find("\"t\":\"hb\""), std::string::npos);
    EXPECT_NE(lines.back().find("\"t\":\"end\""), std::string::npos);
    // End-of-run gauges agree with the run report: one source of
    // truth (the EventQueue counters) feeds both.
    EXPECT_NE(lines.back().find(
                  "\"eq_occupancy_peak\":"
                  + std::to_string(m.eqOccupancyPeak)),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(SystemTelemetry, IntervalBeyondRunLengthYieldsOneEndRecord)
{
    const std::string path =
        testing::TempDir() + "accord_telem_longint.jsonl";
    sim::SystemConfig config = telemetryConfig(path);
    config.telemetryInterval = 1'000'000'000;
    sim::runSystem(config);

    const std::vector<std::string> lines = splitLines(slurp(path));
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"t\":\"hdr\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"t\":\"end\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(SystemTelemetry, CanonicalStreamByteIdenticalAcrossJobCounts)
{
    // Two telemetry runs as one batch: each gets its own .runN
    // stream, and after stripping the volatile host objects the
    // streams must not depend on the job count.
    const std::string path =
        testing::TempDir() + "accord_telem_jobs.telemetry.jsonl";
    std::vector<sim::SystemConfig> configs;
    configs.push_back(telemetryConfig(path));
    configs.push_back(telemetryConfig(path));
    configs.back().seed = 7;

    sim::runConfigs(configs, 1);
    std::vector<std::vector<std::string>> serial;
    for (std::size_t i = 0; i < configs.size(); ++i)
        serial.push_back(canonicalStream(
            sim::perRunTelemetryPath(path, i)));

    sim::runConfigs(configs, 3);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string run = sim::perRunTelemetryPath(path, i);
        EXPECT_EQ(serial[i], canonicalStream(run))
            << "canonical stream for run " << i
            << " depends on the job count";
        std::remove(run.c_str());
    }
    // Different seeds produce different canonical streams (the strip
    // removes host noise, not information).
    EXPECT_NE(serial[0], serial[1]);
}
