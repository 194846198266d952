/**
 * @file
 * Host-side throughput harness: how fast does the simulator simulate?
 *
 * Unlike every other bench (which regenerates a paper table/figure and
 * must be byte-stable), this one measures wall-clock performance of
 * the engine itself: simulated demand reads per host second and —
 * for timed runs — discrete events executed per host second, across
 * three harness modes:
 *
 *   warm    functional-only run (untimed warm + measurement phases)
 *   timed   full timed run (the event-queue/controller hot path)
 *   traced  timed run with the transaction tracer attached
 *   replay  functional replay of an accord.trace/1 binary trace
 *           (trace decode + functional shell, no generator)
 *   telem   timed run with the flight recorder streaming heartbeats
 *           (telemetry-enabled cost; "timed" is the telemetry-off
 *           control, so timed/telem bounds the recorder overhead —
 *           the telemetry_overhead_frac run value records the ratio)
 *   paged   timed run with the storage backend forced paged
 *           (state_backend=paged at bench scale, where auto picks
 *           dense — so timed/paged bounds the paged read path's
 *           indirection cost; the paged_overhead_frac run value
 *           records the ratio)
 *
 * Each mode runs `reps=` times (default 3) and the report records the
 * best rep, so transient host noise cannot fake a regression.  The
 * committed baseline (BENCH_throughput.json) and the CI gate
 * (tools/check_perf_regression.py) build on the `*_per_sec_best`
 * run values emitted here; docs/PERFORMANCE.md explains the policy.
 *
 * The wall-clock values obviously differ host-to-host and run-to-run,
 * so this bench is deliberately NOT part of the report-stability or
 * refactor-equivalence gates.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "trace/bintrace.hpp"
#include "trace/generator.hpp"

using namespace accord;

namespace
{

/** One harness mode: which phases run and whether tracing is on. */
struct Mode
{
    const char *name;
    bool timed;
    bool traced;
    bool replay;
    bool telemetry;
    bool paged;
};

constexpr Mode kModes[] = {
    {"warm", false, false, false, false, false},
    {"timed", true, false, false, false, false},
    {"traced", true, true, false, false, false},
    {"replay", false, false, true, false, false},
    {"telem", true, false, false, true, false},
    {"paged", true, false, false, false, true},
};

/**
 * Record a bounded accord.trace/1 trace from the workload's synthetic
 * model, so the replay mode times trace decode + functional shell on
 * the same stream the other modes generate inline.
 */
void
recordReplayTrace(const std::string &path, const std::string &workload,
                  std::uint64_t records, std::uint64_t scale)
{
    const auto &spec = *trace::coreAssignment(workload, 1)[0];
    const auto params = trace::generatorParams(spec, 0, 1, scale, 1);
    trace::WorkloadGen gen(params);
    trace::WritebackMixer mixer(gen, spec.wbFrac, 2048, 7);
    trace::BinTraceWriter writer(path);
    for (std::uint64_t i = 0; i < records; ++i)
        writer.append(mixer.next());
    writer.close();
}

/** One repetition's wall-clock measurements. */
struct Rep
{
    double wallSec = 0.0;
    double reads = 0.0;
    double events = 0.0;

    double readsPerSec() const
        { return wallSec > 0.0 ? reads / wallSec : 0.0; }
    double eventsPerSec() const
        { return wallSec > 0.0 ? events / wallSec : 0.0; }
};

/** Run one configuration once and time it end to end. */
Rep
timeOne(const sim::SystemConfig &config)
{
    // accord-lint: allow(wallclock) host-side timing harness; wall
    // time never feeds a canonical run report
    const auto start = std::chrono::steady_clock::now();
    const sim::SystemMetrics m = sim::runSystem(config);
    // accord-lint: allow(wallclock) host-side timing harness
    const auto stop = std::chrono::steady_clock::now();

    Rep rep;
    rep.wallSec = std::chrono::duration<double>(stop - start).count();
    rep.reads = static_cast<double>(m.cacheStats.readHits.total());
    rep.events = static_cast<double>(m.eventsExecuted);
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv,
        "Host throughput: simulated reads/sec and events/sec",
        "performance harness (no paper figure)");

    const std::string workload =
        rep.cli().getString("workload", "libq");
    const std::string config_name =
        rep.cli().getString("config", "2way-pws+gws");
    const unsigned reps = rep.cli().getUint32("reps", 3);
    const std::uint64_t trace_records =
        rep.cli().getUint("trace_records", 4'000'000);

    const std::uint64_t scale = rep.cli().getUint("scale", 128);
    const std::string trace_path = "/tmp/accord_bench_replay_"
        + std::to_string(::getpid()) + ".trc";

    std::vector<sim::SystemConfig> configs;
    for (const Mode &mode : kModes) {
        sim::SystemConfig config =
            sim::namedConfig(workload, config_name);
        config.runTimed = mode.timed;
        if (mode.traced) {
            // Exercise the tracer hot path without keeping (or
            // writing) the full trace: bounded ring, bit-bucket sink.
            config.tracePath = "/dev/null";
            config.traceCap = 4096;
        }
        sim::applyCliOverrides(config, rep.cli());
        if (mode.telemetry) {
            // Heartbeats at the default cadence into a bit-bucket:
            // times the recorder hot path (sampling + JSON encode +
            // flush) without leaving a stream behind.
            config.telemetryPath = "/dev/null";
            config.telemetryInterval = 0;
        }
        if (mode.replay) {
            // Cold single-pass replay striped over the cores: decode
            // throughput plus the functional shell, nothing else.
            config.runTimed = false;
            config.warmPerCore = 0;
            config.measurePerCore = 0;
            config.trafficSpec =
                "trace(file=" + trace_path + ",loop=0,stripe=1)";
        }
        if (mode.paged) {
            // Force the paged storage backend at bench scale (where
            // auto picks dense): times the paged read path's page
            // indirection against the dense "timed" control.
            config.stateBackend = dramcache::StateBackend::Paged;
        }
        configs.push_back(std::move(config));
    }
    // Every key is read: reject a typo before recording the trace.
    rep.cli().checkConsumed();
    recordReplayTrace(trace_path, workload, trace_records, scale);

    report::ReportTable &table = rep.table(
        "throughput",
        {"mode", "rep", "wall_s", "reads", "reads/s", "events",
         "events/s"});

    double timed_best_rps = 0.0;
    double telem_best_rps = 0.0;
    double paged_best_rps = 0.0;

    for (std::size_t m = 0; m < std::size(kModes); ++m) {
        const Mode &mode = kModes[m];
        const sim::SystemConfig &config = configs[m];
        Rep best;
        for (unsigned r = 0; r < reps; ++r) {
            const Rep sample = timeOne(config);
            table.row()
                .cell(std::string(mode.name))
                .cell(static_cast<std::uint64_t>(r))
                .cell(sample.wallSec, 3)
                .cell(sample.reads, 0)
                .cell(sample.readsPerSec(), 0)
                .cell(sample.events, 0)
                .cell(sample.eventsPerSec(), 0);
            if (sample.readsPerSec() > best.readsPerSec())
                best = sample;
        }
        table.row()
            .cell(std::string(mode.name) + " best")
            .cell(static_cast<std::uint64_t>(reps))
            .cell(best.wallSec, 3)
            .cell(best.reads, 0)
            .cell(best.readsPerSec(), 0)
            .cell(best.events, 0)
            .cell(best.eventsPerSec(), 0);

        // The regression gate keys off these run values; the spec
        // documents the simulated configuration they were measured on.
        const std::string key =
            workload + "/" + std::string(mode.name);
        report::RunReport &report = rep.report();
        report.setRunSpec(key, sim::canonicalConfigSpec(config));
        report.addRunValue(key, "reps",
                           static_cast<double>(reps));
        report.addRunValue(key, "wall_s_best", best.wallSec);
        report.addRunValue(key, "reads_per_sec_best",
                           best.readsPerSec());
        if (mode.timed)
            report.addRunValue(key, "events_per_sec_best",
                               best.eventsPerSec());
        if (std::string(mode.name) == "timed")
            timed_best_rps = best.readsPerSec();
        if (mode.telemetry)
            telem_best_rps = best.readsPerSec();
        if (mode.paged)
            paged_best_rps = best.readsPerSec();
    }

    // Informational (not gated — the name avoids the *_per_sec_best
    // suffix): fraction of timed throughput lost with the flight
    // recorder on.  The contract is <= 1%; the hard floor is already
    // enforced by the telem mode's own reads_per_sec_best gate.
    if (timed_best_rps > 0.0 && telem_best_rps > 0.0) {
        const std::string key = workload + "/telem";
        rep.report().addRunValue(
            key, "telemetry_overhead_frac",
            1.0 - telem_best_rps / timed_best_rps);
    }

    // Same shape for the storage layer: fraction of timed throughput
    // lost with the paged backend forced (informational; the paged
    // mode's own reads_per_sec_best is the gated floor).
    if (timed_best_rps > 0.0 && paged_best_rps > 0.0) {
        const std::string key = workload + "/paged";
        rep.report().addRunValue(
            key, "paged_overhead_frac",
            1.0 - paged_best_rps / timed_best_rps);
    }

    std::remove(trace_path.c_str());
    rep.note("best-of-%u reps per mode; regression gate: "
             "tools/check_perf_regression.py", reps);
    return rep.finish();
}
