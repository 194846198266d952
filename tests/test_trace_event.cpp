/**
 * @file
 * Transaction tracer tests: id/event ordering invariants, ring
 * eviction at trace_cap, latency attribution into txn.* metrics,
 * deterministic balanced JSON, and the System-level contract that
 * tracing is opt-in (disabled runs emit nothing) and jobs-independent.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/trace_event/tracer.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

using namespace accord;
using namespace accord::trace_event;

namespace
{

Tracer
makeTracer(std::uint64_t cap = 0)
{
    TracerConfig config;
    config.cap = cap;
    return Tracer(config);
}

/** One full read transaction: lookup phase, probe, hit at `when`. */
TxnId
runHit(Tracer &tracer, Cycle start, Cycle end,
       RequestClass cls = RequestClass::HitPredict)
{
    const TxnId txn =
        tracer.begin(TxnKind::Read, /*core=*/0, /*line=*/0x40, start);
    tracer.phaseBegin(txn, Phase::Lookup, start);
    tracer.point(txn, Point::ProbeIssue, start, /*way=*/0);
    tracer.point(txn, Point::PredictCorrect, end, /*way=*/0);
    tracer.phaseEnd(txn, Phase::Lookup, end);
    tracer.complete(txn, cls, end);
    return txn;
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(needle);
         at != std::string::npos; at = text.find(needle, at + 1))
        ++count;
    return count;
}

} // namespace

// --- lifecycle invariants -------------------------------------------

TEST(Tracer, IdsAreMonotonicAndNeverNoTxn)
{
    Tracer tracer = makeTracer();
    TxnId last = kNoTxn;
    for (int i = 0; i < 5; ++i) {
        const TxnId txn =
            tracer.begin(TxnKind::Read, 0, 0x100, Cycle(i));
        EXPECT_NE(txn, kNoTxn);
        EXPECT_GT(txn, last);
        last = txn;
    }
    EXPECT_EQ(tracer.beganCount(), 5u);
    EXPECT_EQ(tracer.openCount(), 5u);
}

TEST(Tracer, EventsRecordInSequenceOrderWithBalancedPhases)
{
    Tracer tracer = makeTracer();
    const TxnId txn = runHit(tracer, 10, 74);

    const TxnRecord *record = tracer.find(txn);
    ASSERT_NE(record, nullptr);
    EXPECT_TRUE(record->completed);
    EXPECT_EQ(record->begin, 10u);
    EXPECT_EQ(record->end, 74u);
    EXPECT_EQ(record->cls, RequestClass::HitPredict);

    // Sequence numbers strictly increase in emission order, and the
    // phase begin/end events pair up.
    std::uint64_t last_seq = record->beginSeq;
    int phase_depth = 0;
    for (const Event &event : record->events) {
        EXPECT_GT(event.seq, last_seq);
        last_seq = event.seq;
        if (event.kind == EventKind::PhaseBegin)
            ++phase_depth;
        if (event.kind == EventKind::PhaseEnd) {
            --phase_depth;
            EXPECT_GE(phase_depth, 0);
        }
    }
    EXPECT_EQ(phase_depth, 0);
    EXPECT_GT(record->endSeq, last_seq);
}

TEST(Tracer, CompleteClosesTheTransaction)
{
    Tracer tracer = makeTracer();
    runHit(tracer, 0, 50);
    EXPECT_EQ(tracer.openCount(), 0u);
    ASSERT_EQ(tracer.completedRecords().size(), 1u);
}

// --- ring buffer ----------------------------------------------------

TEST(Tracer, RingEvictsOldestCompletedAtCap)
{
    Tracer tracer = makeTracer(/*cap=*/4);
    std::vector<TxnId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(runHit(tracer, Cycle(i * 100),
                             Cycle(i * 100 + 50)));

    EXPECT_EQ(tracer.evictedCount(), 6u);
    const auto records = tracer.completedRecords();
    ASSERT_EQ(records.size(), 4u);
    // Oldest-first, and exactly the newest four survive.
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i]->id, ids[6 + i]);
    EXPECT_EQ(tracer.find(ids[0]), nullptr);
    EXPECT_NE(tracer.find(ids[9]), nullptr);
}

TEST(Tracer, OpenTransactionsAreNeverEvicted)
{
    Tracer tracer = makeTracer(/*cap=*/2);
    const TxnId open =
        tracer.begin(TxnKind::Read, 0, 0x80, /*now=*/0);
    for (int i = 0; i < 6; ++i)
        runHit(tracer, Cycle(10 + i), Cycle(20 + i));

    EXPECT_EQ(tracer.openCount(), 1u);
    ASSERT_NE(tracer.find(open), nullptr);
    EXPECT_FALSE(tracer.find(open)->completed);
    EXPECT_EQ(tracer.completedRecords().size(), 2u);
}

TEST(Tracer, LateEventsForEvictedTransactionsAreDroppedAndCounted)
{
    Tracer tracer = makeTracer(/*cap=*/1);
    const TxnId first = runHit(tracer, 0, 50);
    runHit(tracer, 60, 110); // evicts `first`

    ASSERT_EQ(tracer.find(first), nullptr);
    tracer.point(first, Point::BankAct, 120);
    EXPECT_EQ(tracer.droppedEvents(), 1u);
}

TEST(Tracer, UncappedTracerRetainsEverything)
{
    Tracer tracer = makeTracer(/*cap=*/0);
    for (int i = 0; i < 100; ++i)
        runHit(tracer, Cycle(i), Cycle(i + 10));
    EXPECT_EQ(tracer.evictedCount(), 0u);
    EXPECT_EQ(tracer.completedRecords().size(), 100u);
}

// --- latency attribution -------------------------------------------

TEST(Tracer, BurstAttributionSplitsQueueAndService)
{
    Tracer tracer = makeTracer();
    const std::int32_t track =
        tracer.registerDeviceTrack(Device::Dram, /*channel=*/0);

    const TxnId txn = tracer.begin(TxnKind::Read, 0, 0x40, 0);
    tracer.phaseBegin(txn, Phase::Lookup, 0);
    // Enqueued at 0, picked at 30, data 60..72: 30 queue, 42 service.
    tracer.burst(txn, track, /*bank=*/3, /*row=*/7, /*isWrite=*/false,
                 /*rowHit=*/false, /*enqueuedAt=*/0, /*pickedAt=*/30,
                 /*actAt=*/30, /*casAt=*/44, /*dataStart=*/60,
                 /*dataEnd=*/72, 1, 0);
    tracer.phaseEnd(txn, Phase::Lookup, 100);
    tracer.complete(txn, RequestClass::HitPredict, 100);

    const ClassStats &stats =
        tracer.classStats(RequestClass::HitPredict);
    EXPECT_DOUBLE_EQ(stats.dramQueue.mean(), 30.0);
    EXPECT_DOUBLE_EQ(stats.dramService.mean(), 42.0);
    // Remainder: 100 total - 30 queue - 42 service.
    EXPECT_DOUBLE_EQ(stats.other.mean(), 28.0);
    EXPECT_EQ(stats.latency.count(), 1u);
}

TEST(Tracer, MetricsRegisterPerClassHistogramsWithP99)
{
    Tracer tracer = makeTracer();
    runHit(tracer, 0, 64);
    runHit(tracer, 100, 292, RequestClass::HitMispredict);

    MetricRegistry registry;
    tracer.registerMetrics(registry, "txn");
    const MetricSnapshot snapshot = registry.snapshot();

    EXPECT_DOUBLE_EQ(snapshot.at("txn.hit_predict.latency.count"),
                     1.0);
    EXPECT_DOUBLE_EQ(snapshot.at("txn.hit_predict.latency.mean"),
                     64.0);
    ASSERT_NE(snapshot.find("txn.hit_predict.latency.p50"), nullptr);
    ASSERT_NE(snapshot.find("txn.hit_predict.latency.p95"), nullptr);
    ASSERT_NE(snapshot.find("txn.hit_predict.latency.p99"), nullptr);
    ASSERT_NE(snapshot.find("txn.miss.phase.nvm_service.mean"),
              nullptr);
    EXPECT_DOUBLE_EQ(
        snapshot.at("txn.hit_mispredict.latency.count"), 1.0);
}

// --- JSON export ----------------------------------------------------

TEST(Tracer, JsonIsBalancedAndDeterministic)
{
    const auto build = [] {
        Tracer tracer = makeTracer();
        const std::int32_t track =
            tracer.registerDeviceTrack(Device::Dram, 0);
        for (int i = 0; i < 8; ++i) {
            const TxnId txn = tracer.begin(
                TxnKind::Read, unsigned(i % 2), 0x40 * i,
                Cycle(i * 10));
            tracer.phaseBegin(txn, Phase::Lookup, Cycle(i * 10));
            tracer.burst(txn, track, 1, 2, false, i % 2 != 0,
                         Cycle(i * 10), Cycle(i * 10 + 5),
                         i % 2 != 0 ? invalidCycle : Cycle(i * 10 + 5),
                         Cycle(i * 10 + 8), Cycle(i * 10 + 20),
                         Cycle(i * 10 + 32), 1, 0);
            tracer.phaseEnd(txn, Phase::Lookup, Cycle(i * 10 + 40));
            tracer.complete(txn, RequestClass::HitPredict,
                            Cycle(i * 10 + 40));
        }
        return tracer.toJson();
    };

    const std::string a = build();
    const std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_EQ(countOccurrences(a, "\"ph\": \"b\""),
              countOccurrences(a, "\"ph\": \"e\""));
    EXPECT_NE(a.find("\"clock\": \"sim-cycles\""), std::string::npos);
    EXPECT_NE(a.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Tracer, OpenTransactionsAreExcludedFromJson)
{
    Tracer tracer = makeTracer();
    tracer.begin(TxnKind::Read, 0, 0xabc, 0);
    const std::string json = tracer.toJson();

    EXPECT_EQ(countOccurrences(json, "\"ph\": \"b\""), 0u);
    EXPECT_NE(json.find("\"open_at_export\": 1"), std::string::npos);
}

TEST(Tracer, DisabledStyleEmptyTracerStillExportsValidShell)
{
    Tracer tracer = makeTracer();
    const std::string json = tracer.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"retained_txns\": 0"), std::string::npos);
}

// --- sweep path mangling -------------------------------------------

TEST(PerRunTracePath, InsertsRunIndexBeforeExtension)
{
    EXPECT_EQ(sim::perRunTracePath("out.json", 3), "out.run3.json");
    EXPECT_EQ(sim::perRunTracePath("a/b/out.json", 0),
              "a/b/out.run0.json");
}

TEST(PerRunTracePath, AppendsWhenNoUsableExtension)
{
    EXPECT_EQ(sim::perRunTracePath("trace", 2), "trace.run2");
    // The dot belongs to a directory, not an extension.
    EXPECT_EQ(sim::perRunTracePath("dir.d/trace", 1),
              "dir.d/trace.run1");
}

// --- System integration --------------------------------------------

namespace
{

sim::SystemConfig
tracedConfig(const std::string &path)
{
    sim::SystemConfig config;
    config.workload = "libq";
    config.numCores = 2;
    config.scale = 1024;
    config.warmPerCore = 5000;
    config.timedPerCore = 300;
    config.tracePath = path;
    return config;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST(SystemTrace, DisabledRunEmitsNothing)
{
    sim::SystemConfig config = tracedConfig("");
    const sim::SystemMetrics m = sim::runSystem(config);

    EXPECT_TRUE(m.traceJson.empty());
    for (const auto &[path, value] : m.finalMetrics.values())
        EXPECT_NE(path.rfind("txn.", 0), 0u)
            << "untraced run leaked metric " << path;
}

TEST(SystemTrace, EnabledRunWritesFileAndMetrics)
{
    const std::string path =
        testing::TempDir() + "accord_trace_system.json";
    const sim::SystemMetrics m = sim::runSystem(tracedConfig(path));

    ASSERT_FALSE(m.traceJson.empty());
    EXPECT_EQ(slurp(path), m.traceJson);
    EXPECT_GT(m.finalMetrics.at("txn.hit_predict.latency.count"), 0.0);
    ASSERT_NE(m.finalMetrics.find("txn.miss.latency.p99"), nullptr);
    ASSERT_NE(m.finalMetrics.find("txn.fill.phase.dram_queue.mean"),
              nullptr);
    std::remove(path.c_str());
}

TEST(SystemTrace, TracingDoesNotChangeSimulationResults)
{
    const std::string path =
        testing::TempDir() + "accord_trace_neutral.json";
    sim::SystemConfig untraced = tracedConfig("");
    const sim::SystemMetrics a = sim::runSystem(untraced);
    const sim::SystemMetrics b = sim::runSystem(tracedConfig(path));

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_DOUBLE_EQ(a.hitRate, b.hitRate);
    std::remove(path.c_str());
}

TEST(SystemTrace, TraceCapBoundsRetainedTransactions)
{
    const std::string path =
        testing::TempDir() + "accord_trace_cap.json";
    sim::SystemConfig config = tracedConfig(path);
    config.traceCap = 16;
    const sim::SystemMetrics m = sim::runSystem(config);

    EXPECT_NE(m.traceJson.find("\"retained_txns\": 16"),
              std::string::npos);
    EXPECT_NE(m.traceJson.find("\"evicted_txns\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(SystemTrace, ByteIdenticalAcrossJobCounts)
{
    // Two traced configs run as one batch: each run gets its own
    // .runN path, and the export must not depend on the job count.
    const std::string path =
        testing::TempDir() + "accord_trace_jobs.json";
    std::vector<sim::SystemConfig> configs;
    configs.push_back(tracedConfig(path));
    configs.push_back(tracedConfig(path));
    configs.back().seed = 7;

    const std::vector<sim::SystemMetrics> serial =
        sim::runConfigs(configs, 1);
    const std::vector<sim::SystemMetrics> parallel =
        sim::runConfigs(configs, 3);

    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].traceJson.empty());
        EXPECT_EQ(serial[i].traceJson, parallel[i].traceJson);
    }
    EXPECT_NE(serial[0].traceJson, serial[1].traceJson);
    std::remove(sim::perRunTracePath(path, 0).c_str());
    std::remove(sim::perRunTracePath(path, 1).c_str());
}
