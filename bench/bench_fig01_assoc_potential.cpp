/**
 * @file
 * Figure 1: the associativity opportunity and the cost of naive
 * lookup.  (a) hit rate at 1/2/4/8 ways; (b) speedup of a parallel
 * lookup design; (c) speedup of an idealized set-associative design
 * with the bandwidth and latency of a direct-mapped cache.
 *
 * Expected shape (paper): hit rate 74% -> 80% from 1 to 8 ways;
 * parallel lookup DEGRADES performance at higher associativity while
 * the idealized design gains ~21% at 8 ways.
 */

#include "bench_common.hpp"

using namespace accord;
using bench::SpeedupSweep;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Figure 1: impact of set associativity",
        "Fig 1(a) hit rate, Fig 1(b) parallel lookup, Fig 1(c) "
        "idealized lookup");
    const Config &cli = rep.cli();

    const auto workloads = trace::mainWorkloadNames();

    // (a) hit rate by associativity (functional, long streams).
    {
        const bench::FunctionalSweep sweep(
            workloads, {"dm", "2way-rand", "4way-rand", "8way-rand"},
            cli);
        report::ReportTable &table = rep.table(
            "hit_rate_vs_ways", {"ways", "hit-rate (amean)"});
        const char *labels[4] = {"1-way", "2-way", "4-way", "8-way"};
        for (std::size_t i = 0; i < 4; ++i) {
            table.row().cell(labels[i]).percent(sweep.mean(
                sweep.configs()[i],
                [](const sim::SystemMetrics &m) { return m.hitRate; }));
        }
    }

    // (b)+(c) speedups of parallel and idealized designs.
    {
        SpeedupSweep sweep(workloads,
                           {"2way-parallel", "4way-parallel",
                            "8way-parallel", "2way-ideal", "4way-ideal",
                            "8way-ideal"},
                           cli);
        report::ReportTable &table = rep.table(
            "lookup_speedup",
            {"ways", "parallel (b)", "idealized (c)"});
        table.row()
            .cell("2-way")
            .cell(sweep.gmean("2way-parallel"), 3)
            .cell(sweep.gmean("2way-ideal"), 3);
        table.row()
            .cell("4-way")
            .cell(sweep.gmean("4way-parallel"), 3)
            .cell(sweep.gmean("4way-ideal"), 3);
        table.row()
            .cell("8-way")
            .cell(sweep.gmean("8way-parallel"), 3)
            .cell(sweep.gmean("8way-ideal"), 3);
    }

    return rep.finish();
}
