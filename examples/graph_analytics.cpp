/**
 * @file
 * Graph-analytics case study (the workload class the paper's intro
 * motivates): run the six GAP workloads (PageRank, connected
 * components, betweenness centrality on twitter and web graphs)
 * against the direct-mapped baseline, 2-way ACCORD, and ACCORD with
 * SWS(8,2), reporting speedup, hit rate, prediction accuracy, and
 * memory-system energy.
 *
 * Graph workloads are the hard case for Ganged Way-Steering: their
 * sparse, pointer-chasing access patterns defeat the Recent Lookup
 * Table, so ACCORD must fall back on PWS — this example shows the
 * framework staying robust (no degradation) where GWS alone would
 * hurt.
 *
 * Usage: graph_analytics [scale=128] [timed=6000] ...
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

    const std::vector<std::string> graphs = {"pr_twi", "cc_twi",
                                             "bc_twi", "pr_web",
                                             "cc_web", "bc_web"};

    // One batch: per graph the baseline, then both ACCORD designs.
    const char *configs[] = {"dm", "2way-pws+gws", "8way-sws+gws"};
    std::vector<sim::SystemConfig> runs;
    for (const auto &workload : graphs) {
        for (const char *name : configs)
            runs.push_back(sim::resolve(workload, name, true, cli));
    }
    const std::vector<sim::SystemMetrics> metrics =
        sim::runBatch(runs, cli);

    TextTable table({"workload", "config", "speedup", "hit-rate",
                     "wp-acc", "energy vs dm"});

    std::vector<double> accord_speedups, sws_speedups;
    for (std::size_t w = 0; w < graphs.size(); ++w) {
        const sim::SystemMetrics &dm = metrics[3 * w];
        for (std::size_t c = 1; c < 3; ++c) {
            const sim::SystemMetrics &m = metrics[3 * w + c];
            const double speedup = sim::weightedSpeedup(m, dm);
            (c == 1 ? accord_speedups : sws_speedups).push_back(speedup);
            table.row()
                .cell(graphs[w])
                .cell(configs[c])
                .cell(speedup, 3)
                .percent(m.hitRate)
                .percent(m.wpAccuracy)
                .cell(m.energy.totalJ / dm.energy.totalJ, 3);
        }
    }
    table.print();

    std::printf("\nGAP gmean speedup: ACCORD 2-way %.3f, "
                "ACCORD SWS(8,2) %.3f\n",
                geomean(accord_speedups), geomean(sws_speedups));
    std::printf("Note how way-prediction accuracy stays ~80%%+ via the "
                "PWS fallback even though\nthe sparse access pattern "
                "defeats region-level (GWS) tracking.\n");
    return 0;
}
