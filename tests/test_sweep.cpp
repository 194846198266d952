/**
 * @file
 * Determinism and plumbing tests for the parallel sweep runner: the
 * same sweep must produce bit-identical results for any job count,
 * because every run seeds its RNGs from (seed, workload, config)
 * rather than from scheduling order.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

using namespace accord;

namespace
{

/** Small-scale overrides shared by every sweep in this file. */
Config
fastCli(unsigned jobs)
{
    Config cli;
    cli.parseArg("scale=4096");
    cli.parseArg("cores=2");
    cli.parseArg("warm=3000");
    cli.parseArg("timed=200");
    cli.parseArg("measure=500");
    cli.parseArg("jobs=" + std::to_string(jobs));
    return cli;
}

const std::vector<std::string> kWorkloads = {"libq", "mcf", "nekbone"};
const std::vector<std::string> kConfigs = {"2way-pws+gws",
                                           "2way-rand"};

} // namespace

TEST(SweepRunner, ResolveJobs)
{
    EXPECT_EQ(sim::resolveJobs(1), 1u);
    EXPECT_EQ(sim::resolveJobs(8), 8u);
    EXPECT_GE(sim::resolveJobs(0), 1u);
}

TEST(SweepRunner, ReadsJobsOverrideFromCli)
{
    const sim::SweepRunner serial(fastCli(1));
    EXPECT_EQ(serial.jobs(), 1u);
    const sim::SweepRunner wide(fastCli(8));
    EXPECT_EQ(wide.jobs(), 8u);
}

TEST(SweepRunner, JobsOverrideReachesSystemConfig)
{
    sim::SystemConfig config;
    sim::applyCliOverrides(config, fastCli(4));
    EXPECT_EQ(config.jobs, 4u);
}

// The headline guarantee: a 3-workload x 2-config timed sweep yields
// identical speedups for jobs=1 (the historical serial path) and
// jobs=8 (oversubscribed parallel fan-out).
TEST(SweepDeterminism, SpeedupsIdenticalForOneAndEightJobs)
{
    const bench::SpeedupSweep serial(kWorkloads, kConfigs, fastCli(1));
    const bench::SpeedupSweep wide(kWorkloads, kConfigs, fastCli(8));

    for (const std::string &config : kConfigs) {
        for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
            EXPECT_EQ(serial.speedup(config, w),
                      wide.speedup(config, w))
                << config << " on " << kWorkloads[w];
        }
        EXPECT_EQ(serial.gmean(config), wide.gmean(config)) << config;
    }
    for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
        EXPECT_EQ(serial.baseline(w).cycles, wide.baseline(w).cycles);
        EXPECT_EQ(serial.baseline(w).hitRate, wide.baseline(w).hitRate);
    }
}

// TSan-facing test: a 4-worker sweep must be race-free and still
// deterministic against the serial path.
TEST(SweepDeterminism, FourJobsMatchSerialFunctionalGrid)
{
    const bench::FunctionalSweep serial(kWorkloads, kConfigs, fastCli(1));
    const bench::FunctionalSweep wide(kWorkloads, kConfigs, fastCli(4));

    for (const std::string &config : kConfigs) {
        for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
            EXPECT_EQ(serial.metrics(config, w).hitRate,
                      wide.metrics(config, w).hitRate);
            EXPECT_EQ(serial.metrics(config, w).wpAccuracy,
                      wide.metrics(config, w).wpAccuracy);
        }
    }
}

// The report-layer replay of the jobs guarantee: serializing the SAME
// smoke sweep recorded at jobs=1 and jobs=3 must yield byte-identical
// run-report JSON — every metric of every run, not just the headline
// speedups.  This is the in-process twin of CI's refactor-equivalence
// gate (tools/check_equivalence.py --suite refactor, rtol 0).
TEST(SweepDeterminism, ReportBytesIdenticalForOneAndThreeJobs)
{
    const auto record = [](unsigned jobs) {
        const bench::SpeedupSweep sweep(kWorkloads, kConfigs,
                                        fastCli(jobs));
        report::RunReport report("jobs replay", "byte-identity test");
        sweep.record(report);
        return report.toJson();
    };

    EXPECT_EQ(record(1), record(3));
}

TEST(LogCapture, BuffersAndReplays)
{
    std::string captured;
    {
        ScopedLogCapture capture;
        warn("buffered %d", 42);
        inform("also buffered");
        captured = capture.take();
    }
    EXPECT_NE(captured.find("warn: buffered 42\n"), std::string::npos);
    EXPECT_NE(captured.find("info: also buffered\n"),
              std::string::npos);
    // After the capture ends, warn() writes to stderr again; this
    // must not crash and must not land in the old buffer.
    warn("uncaptured");
    EXPECT_EQ(captured.find("uncaptured"), std::string::npos);
}

TEST(LogCapture, CapturesNest)
{
    ScopedLogCapture outer;
    {
        ScopedLogCapture inner;
        warn("inner message");
        EXPECT_NE(inner.text().find("inner message"),
                  std::string::npos);
    }
    warn("outer message");
    EXPECT_EQ(outer.text().find("inner message"), std::string::npos);
    EXPECT_NE(outer.text().find("outer message"), std::string::npos);
}
