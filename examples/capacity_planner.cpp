/**
 * @file
 * Capacity-planning study: how much stacked-DRAM cache does a hybrid
 * HBM+NVM memory system need, and how much does ACCORD's associativity
 * buy at each size?
 *
 * Sweeps the (full-scale) cache size from 1GB to 8GB for a chosen
 * workload and prints hit rate, average read latency, and the speedup
 * of ACCORD SWS(8,2) over the direct-mapped design of the same size —
 * the trade a system architect actually evaluates (cf. paper Table
 * VIII).
 *
 * Usage: capacity_planner [workload=mix2] [scale=128] ...
 */

#include <cstdio>
#include <iterator>
#include <utility>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const std::string workload = cli.getString("workload", "mix2");

    // One batch: per cache size the baseline, then ACCORD.
    const std::uint64_t sizes_gb[] = {1, 2, 4, 8};
    std::vector<sim::SystemConfig> runs;
    for (const std::uint64_t gb : sizes_gb) {
        for (const char *name : {"dm", "8way-sws+gws"}) {
            sim::SystemConfig config =
                sim::resolve(workload, name, true, cli);
            config.fullCacheBytes = gb << 30;
            runs.push_back(std::move(config));
        }
    }
    const std::vector<sim::SystemMetrics> metrics =
        sim::runBatch(runs, cli);

    std::printf("capacity planning for workload '%s'\n\n",
                workload.c_str());

    auto read_latency = [](const sim::SystemMetrics &m) {
        const auto &s = m.cacheStats;
        const double hit = s.readHits.rate();
        return hit * s.readHitLatency.mean()
            + (1.0 - hit) * s.readMissLatency.mean();
    };

    TextTable table({"cache size", "dm hit", "accord hit",
                     "dm read lat", "accord read lat",
                     "accord speedup"});
    for (std::size_t i = 0; i < std::size(sizes_gb); ++i) {
        const sim::SystemMetrics &dm = metrics[2 * i];
        const sim::SystemMetrics &m = metrics[2 * i + 1];
        table.row()
            .cell(std::to_string(sizes_gb[i]) + "GB")
            .percent(dm.hitRate)
            .percent(m.hitRate)
            .cell(read_latency(dm), 0)
            .cell(read_latency(m), 0)
            .cell(sim::weightedSpeedup(m, dm), 3);
    }
    table.print();
    std::printf("\n(latencies in CPU cycles at 3 GHz; sizes are "
                "full-scale equivalents, simulated at 1/scale)\n");
    return 0;
}
