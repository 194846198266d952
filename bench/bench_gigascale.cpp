/**
 * @file
 * Gigascale harness: the paper's full-scale system point — a 4GB DRAM
 * cache in front of 128GB PCM-class main memory — run WITHOUT the
 * footprint/cache scaling every other bench applies (DESIGN.md §2).
 *
 * At scale=1 the tag store alone spans 64M lines; a dense backend
 * would commit ~600MB of host memory before the first access.  The
 * paged state backend (src/common/paged_table.hpp) materializes only
 * the pages the bounded warm/timed quotas actually touch, so the full
 * fig12 point fits in a small, committed RSS budget.  This bench is
 * the proof: it runs the direct-mapped baseline plus one ACCORD
 * configuration at full scale through the sweep pool, reports the
 * fig12 speedup point, and records the resident-state footprint
 * against the dense-equivalent bytes in the volatile host partition.
 *
 * tools/check_memory_footprint.py validates the telemetry streams
 * (telemetry=<path>) against the committed budget
 * (tests/baselines/BUDGET_gigascale.json); the weekly CI gigascale
 * job wires the two together.
 *
 * Wall-clock-free, but the RSS numbers are host observations: like
 * bench_throughput, this bench is NOT part of the report-stability or
 * refactor-equivalence gates.
 */

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/telemetry/telemetry.hpp"

using namespace accord;

namespace
{

/**
 * Host bytes a dense backend would commit for this config's per-line
 * state: one 8B tag word (tag, valid and dirty packed) per line, plus
 * 8B LRU stamps per line for the LRU ablation.  Policy tables are
 * excluded, so the ratio resident/dense the budget gates on is
 * conservative (the denominator is an underestimate).
 */
std::uint64_t
denseEquivalentBytes(const sim::SystemConfig &config)
{
    const std::uint64_t lines = config.cacheBytes() / 64;
    std::uint64_t per_line = 8;
    if (config.replacement == dramcache::L4Replacement::Lru)
        per_line += 8;
    return lines * per_line;
}

} // namespace

int
main(int argc, char **argv)
{
    // The paper's unscaled geometry unless scale= says otherwise; the
    // banner, params.scale and the note name the scale the runs use.
    constexpr std::uint64_t kFullScale = 1;
    report::Reporter rep(
        argc, argv,
        "Gigascale: full-scale 4GB/128GB-PCM fig12 point in bounded "
        "RSS",
        "Fig 12 (one full-scale point, unscaled geometry)", kFullScale);

    const std::string workload =
        rep.cli().getString("workload", "libq");
    const std::string config_name =
        rep.cli().getString("config", "2way-pws+gws");

    // Full scale, bounded quotas: the point of the bench is the
    // geometry, not the stream length.  Quotas are deliberately small
    // enough that the touched-page footprint stays well inside the
    // committed budget; every default yields to the CLI.
    const auto atFullScale = [&rep](sim::SystemConfig config) {
        config.scale = kFullScale;
        config.numCores = 4;
        config.warmPerCore = 40000;
        config.timedPerCore = 12000;
        config.runTimed = true;
        sim::applyCliOverrides(config, rep.cli());
        return config;
    };

    sim::SystemConfig base =
        atFullScale(sim::baselineConfig(workload));
    sim::SystemConfig accord =
        atFullScale(sim::namedConfig(workload, config_name));

    const std::vector<sim::SystemMetrics> metrics =
        sim::SweepRunner(rep.cli())
            .runConfigs({base, accord});
    const double speedup = sim::weightedSpeedup(metrics[1], metrics[0]);

    report::ReportTable &table = rep.table(
        "gigascale",
        {"run", "hit_rate", "resident_state_mb", "dense_equiv_mb",
         "resident_frac"});
    const std::pair<const char *, const sim::SystemConfig &> runs[] = {
        {"dm", base},
        {config_name.c_str(), accord},
    };
    for (std::size_t i = 0; i < 2; ++i) {
        const sim::SystemMetrics &m = metrics[i];
        const double dense =
            static_cast<double>(denseEquivalentBytes(runs[i].second));
        const double resident =
            static_cast<double>(m.residentStateBytes);
        table.row()
            .cell(std::string(runs[i].first))
            .percent(m.hitRate)
            .cell(resident / (1024.0 * 1024.0), 1)
            .cell(dense / (1024.0 * 1024.0), 1)
            .percent(dense > 0.0 ? resident / dense : 0.0);

        const std::string key =
            workload + "/" + std::string(runs[i].first);
        bench::recordRun(rep.report(), key, runs[i].second, m);
        rep.report().addRunHostValue(key, "dense_state_bytes", dense);
        rep.report().addRunHostValue(
            key, "resident_state_fraction",
            dense > 0.0 ? resident / dense : 0.0);
        // End-of-batch RSS: genuinely volatile, and recorded as such.
        rep.report().addRunHostValue(
            key, "rss_kb_after",
            static_cast<double>(telemetry::currentRssKb()));
    }
    rep.report().addRunValue(workload + "/" + config_name, "speedup",
                             speedup);

    rep.note("%s on %s at scale=%llu: speedup %.3f over dm",
             config_name.c_str(), workload.c_str(),
             static_cast<unsigned long long>(accord.scale), speedup);
    rep.note("budget gate: tools/check_memory_footprint.py against "
             "tests/baselines/BUDGET_gigascale.json");
    return rep.finish();
}
