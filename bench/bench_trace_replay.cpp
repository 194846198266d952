/**
 * @file
 * Sampled-vs-full replay accuracy: does SimPoint-style sampling
 * (trace/sample.hpp) reproduce full-stream statistics at a small
 * fraction of the events?
 *
 * For each workload the bench replays the same bounded request stream
 * twice through the functional pipeline — once in full, once through
 * SampledSource — and reports the measured hit rates, the replayed
 * event ratio, and the hit-rate error in percentage points.  Both
 * runs are fully deterministic (no wall clock anywhere), so the run
 * report is byte-stable and diffable against a golden baseline
 * (tests/baselines/, tools/check_equivalence.py --suite replay).
 *
 * By default the stream is the synthetic model bounded to records=
 * requests; point tracefile= at an accord.trace/1 file to evaluate
 * sampling accuracy on a recorded trace instead.  Both runs consume
 * the first warm= records as an identical (unmeasured) warm phase —
 * the full run via warmPerCore, the sampled run because its prewarm
 * span replays exactly those records first — so the comparison is
 * steady state vs. steady state.  Keep prewarm == warm when
 * overriding samplespec=, or the warm phase will eat into the
 * selected windows.
 *
 * The default run (10M records) is the headline demonstration:
 * sampled replay within 2pp of the full-stream hit rate at under 5%
 * of its measured events, for every default workload (docs/TRACES.md
 * discusses the methodology and its limits).
 */

#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace accord;

namespace
{

/** Split a comma-separated workload list. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::string rest = text;
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        items.push_back(rest.substr(0, comma));
        rest = comma == std::string::npos ? std::string()
                                          : rest.substr(comma + 1);
    }
    return items;
}

} // namespace

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv,
        "Sampled replay accuracy: SimPoint-style sampling vs. full "
        "replay",
        "sampling validation (no paper figure)");

    const std::vector<std::string> workloads =
        splitList(rep.cli().getString("workloads", "libq,omnet,mcf"));
    const std::string config_name =
        rep.cli().getString("config", "2way-pws+gws");
    const std::uint64_t records =
        rep.cli().getUint("records", 10'000'000);
    const std::uint64_t warm =
        rep.cli().getUint("warm", records * 2 / 5);
    const std::string tracefile =
        rep.cli().getString("tracefile", "");
    const std::string sample_spec = rep.cli().getString(
        "samplespec",
        "window=4096,clusters=12,rate=0.02,warmup=1024,prewarm="
            + std::to_string(warm));

    report::ReportTable &replay_table = rep.table(
        "replay",
        {"workload", "mode", "accesses", "hit-rate", "wp-acc"});
    report::ReportTable &sampling_table = rep.table(
        "sampling",
        {"workload", "full_acc", "sampled_acc", "event_ratio",
         "hitrate_delta_pp"});

    // A full and a sampled run per workload, in one batch.
    std::vector<sim::SystemConfig> configs;
    for (const std::string &workload : workloads) {
        // Both runs replay the same bounded stream, single-core, to
        // exhaustion.  The warm phase consumes the first warm=
        // records in both: the full run via warmPerCore directly, the
        // sampled run because its prewarm span replays exactly those
        // records first — so measurement starts from identical cache
        // state and the comparison is steady-state vs. steady-state.
        sim::SystemConfig config =
            sim::namedConfig(workload, config_name);
        config.runTimed = false;
        config.numCores = 1;
        config.warmPerCore = warm;
        config.measurePerCore = 0;
        sim::applyCliOverrides(config, rep.cli());
        config.trafficSpec = tracefile.empty()
            ? "synthetic(limit=" + std::to_string(records) + ")"
            : "trace(file=" + tracefile + ",loop=0,stripe=0)";
        config.sampleSpec.clear();
        configs.push_back(config);
        config.sampleSpec = sample_spec;
        configs.push_back(config);
    }
    const std::vector<sim::SystemMetrics> metrics =
        sim::runBatch(configs, rep.cli());

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::string &workload = workloads[w];
        const sim::SystemMetrics &full = metrics[2 * w];
        const sim::SystemMetrics &sampled = metrics[2 * w + 1];

        const auto ratio = full.accessesExecuted > 0
            ? static_cast<double>(sampled.accessesExecuted)
                / static_cast<double>(full.accessesExecuted)
            : 0.0;
        const double delta_pp =
            (sampled.hitRate - full.hitRate) * 100.0;

        replay_table.row()
            .cell(workload)
            .cell("full")
            .cell(full.accessesExecuted)
            .percent(full.hitRate)
            .percent(full.wpAccuracy);
        replay_table.row()
            .cell(workload)
            .cell("sampled")
            .cell(sampled.accessesExecuted)
            .percent(sampled.hitRate)
            .percent(sampled.wpAccuracy);
        sampling_table.row()
            .cell(workload)
            .cell(full.accessesExecuted)
            .cell(sampled.accessesExecuted)
            .cell(ratio, 4)
            .cell(delta_pp, 3);

        bench::recordRun(rep.report(), workload + "/full",
                         configs[2 * w], full);
        bench::recordRun(rep.report(), workload + "/sampled",
                         configs[2 * w + 1], sampled);
        rep.report().addRunValue(workload + "/sampled", "event_ratio",
                                 ratio);
        rep.report().addRunValue(workload + "/sampled",
                                 "hitrate_delta_pp", delta_pp);
    }

    rep.note("sampled replay spec: %s", sample_spec.c_str());
    return rep.finish();
}
