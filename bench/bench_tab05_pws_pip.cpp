/**
 * @file
 * Table V: hit rate, way-prediction accuracy, and speedup of PWS as a
 * function of the preferred-way install probability (PIP).
 *
 * Expected shape (paper): hit rate nearly flat through PIP=85% then
 * collapses to direct-mapped at 100%; accuracy tracks PIP; speedup
 * peaks around PIP=85%.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Table V: PWS sensitivity to PIP",
        "Table V (hit rate / WP accuracy / speedup vs PIP)");
    const Config &cli = rep.cli();

    const auto workloads = trace::mainWorkloadNames();
    const double pips[] = {0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 1.00};

    // Timed baselines once per workload, then per PIP and workload a
    // functional run (stable hit/accuracy numbers) and a timed run
    // (the speedup).
    std::vector<sim::SystemConfig> configs;
    for (const auto &workload : workloads)
        configs.push_back(sim::resolve(workload, "dm", true, cli));
    for (const double pip : pips) {
        for (const auto &workload : workloads) {
            for (const bool timed : {false, true}) {
                sim::SystemConfig config =
                    sim::resolve(workload, "2way-pws", timed, cli);
                config.policyOpts.pip = pip;
                configs.push_back(std::move(config));
            }
        }
    }
    const std::vector<sim::SystemMetrics> metrics =
        sim::runBatch(configs, cli);

    report::ReportTable &table = rep.table(
        "pws_pip", {"organization", "hit-rate", "wp-acc", "speedup"});
    std::size_t i = workloads.size();
    for (const double pip : pips) {
        std::vector<double> hits, accs, speedups;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const sim::SystemMetrics &fm = metrics[i++];
            const sim::SystemMetrics &tm = metrics[i++];
            hits.push_back(fm.hitRate);
            accs.push_back(fm.wpAccuracy);
            speedups.push_back(sim::weightedSpeedup(tm, metrics[w]));
        }
        char label[48];
        if (pip >= 1.0)
            std::snprintf(label, sizeof label,
                          "direct-mapped (PIP=100%%)");
        else
            std::snprintf(label, sizeof label, "2-way PWS (PIP=%.0f%%)",
                          pip * 100);
        table.row()
            .cell(label)
            .percent(amean(hits))
            .percent(amean(accs))
            .cell(geomean(speedups), 3);
    }
    return rep.finish();
}
