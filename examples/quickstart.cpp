/**
 * @file
 * Quickstart: compare the direct-mapped DRAM cache against 2-way
 * ACCORD (PWS+GWS) on one workload and print the headline metrics.
 *
 * Usage: quickstart [workload=libq] [scale=64] [timed=6000] ...
 * (key=value overrides; see sim::applyCliOverrides)
 */

#include <cstdio>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const std::string workload = cli.getString("workload", "libq");

    // Resolve both runs and reject a mistyped key before simulating.
    // The runs are serial, so trace= or telemetry= names one file,
    // which the ACCORD run writes last.
    const sim::SystemConfig dm_config =
        sim::resolve(workload, "dm", true, cli);
    const sim::SystemConfig accord_config =
        sim::resolve(workload, "2way-pws+gws", true, cli);
    cli.checkConsumed();

    std::printf("workload: %s\n\n", workload.c_str());

    const sim::SystemMetrics dm = sim::runSystem(dm_config);
    const sim::SystemMetrics accord2 = sim::runSystem(accord_config);

    TextTable table({"config", "hit-rate", "wp-acc", "xfers/read",
                     "speedup", "sram-bytes"});
    table.row()
        .cell("direct-mapped")
        .percent(dm.hitRate)
        .cell("n/a")
        .cell(dm.transfersPerRead, 2)
        .cell(1.0, 3)
        .cell(std::uint64_t{0});
    table.row()
        .cell("ACCORD 2-way (PWS+GWS)")
        .percent(accord2.hitRate)
        .percent(accord2.wpAccuracy)
        .cell(accord2.transfersPerRead, 2)
        .cell(sim::weightedSpeedup(accord2, dm), 3)
        .cell(accord2.policyStorageBits / 8);
    table.print();
    return 0;
}
