/**
 * @file
 * Table VIII: sensitivity of ACCORD's speedup to DRAM cache size
 * (1GB to 8GB at full scale, footprints held constant).
 *
 * Expected shape (paper): speedup shrinks monotonically as the cache
 * grows (13.6% at 1GB down to 8.6% at 8GB) because larger caches
 * absorb more of the working set and leave less for associativity.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Table VIII: sensitivity to cache size",
        "Table VIII (ACCORD SWS(8,2) speedup vs 1/2/4/8 GB cache)");
    const Config &cli = rep.cli();

    // Per cache size and workload: the baseline, then ACCORD.
    const auto workloads = trace::mainWorkloadNames();
    const std::uint64_t sizes_gb[] = {1, 2, 4, 8};
    std::vector<sim::SystemConfig> configs;
    for (const std::uint64_t gb : sizes_gb) {
        for (const auto &workload : workloads) {
            for (const char *name : {"dm", "8way-sws+gws"}) {
                sim::SystemConfig config =
                    sim::resolve(workload, name, true, cli);
                config.fullCacheBytes = gb << 30;
                configs.push_back(std::move(config));
            }
        }
    }
    const std::vector<sim::SystemMetrics> metrics =
        sim::runBatch(configs, cli);

    report::ReportTable &table = rep.table(
        "cache_size", {"cache size", "accord speedup (gmean)"});
    std::size_t i = 0;
    for (const std::uint64_t gb : sizes_gb) {
        std::vector<double> speedups;
        for (std::size_t w = 0; w < workloads.size(); ++w, i += 2)
            speedups.push_back(
                sim::weightedSpeedup(metrics[i + 1], metrics[i]));
        table.row()
            .cell(std::to_string(gb) + ".0GB")
            .cell(geomean(speedups), 3);
    }
    return rep.finish();
}
