/**
 * @file
 * Workload atlas: characterize every main-evaluation workload on the
 * functional model — hit rate at 1/2/4/8 ways, associativity
 * sensitivity, and GWS/PWS prediction accuracy.  Useful both as a
 * regression view of the synthetic workload models and as a template
 * for characterizing your own access streams.
 *
 * Usage: workload_atlas [scale=64] [measure=30000] [all=1]
 */

#include <cstdio>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "trace/workloads.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);

    const auto names = cli.getBool("all", false)
        ? trace::allWorkloadNames()
        : trace::mainWorkloadNames();

    // One batch: every characterization config of each workload.
    const std::vector<std::string> configs = {
        "dm", "2way-rand", "4way-rand", "8way-rand",
        "2way-pws", "2way-gws", "2way-pws+gws"};
    std::vector<sim::SystemConfig> runs;
    for (const auto &workload : names) {
        for (const auto &name : configs)
            runs.push_back(sim::resolve(workload, name, false, cli));
    }
    const std::vector<sim::SystemMetrics> metrics =
        sim::runBatch(runs, cli);

    TextTable table({"workload", "dm", "2way", "4way", "8way",
                     "assoc-gain", "pws-acc", "gws-acc", "accord-acc"});

    std::vector<double> dm_rates, w8_rates;
    for (std::size_t w = 0; w < names.size(); ++w) {
        const sim::SystemMetrics *m = &metrics[w * configs.size()];
        const auto &dm = m[0], &w2 = m[1], &w4 = m[2], &w8 = m[3];
        const auto &pws = m[4], &gws = m[5], &acc = m[6];

        dm_rates.push_back(dm.hitRate);
        w8_rates.push_back(w8.hitRate);

        table.row()
            .cell(names[w])
            .percent(dm.hitRate)
            .percent(w2.hitRate)
            .percent(w4.hitRate)
            .percent(w8.hitRate)
            .percent(w8.hitRate - dm.hitRate)
            .percent(pws.wpAccuracy)
            .percent(gws.wpAccuracy)
            .percent(acc.wpAccuracy);
    }
    table.row()
        .cell("amean")
        .percent(amean(dm_rates))
        .cell("")
        .cell("")
        .percent(amean(w8_rates))
        .percent(amean(w8_rates) - amean(dm_rates))
        .cell("")
        .cell("")
        .cell("");
    table.print();
    return 0;
}
