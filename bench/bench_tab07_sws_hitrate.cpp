/**
 * @file
 * Table VII: hit rate of the ACCORD designs as associativity grows
 * with Skewed Way-Steering.
 *
 * Expected shape (paper): DM 74.2% < ACCORD 2-way 77.3% < SWS(4,2)
 * 77.7% < SWS(8,2) 77.9% < full 8-way 79.7% — SWS recovers about a
 * third of the 2-way -> 8-way gap at two-probe miss-confirmation cost.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Table VII: hit rate of ACCORD designs",
        "Table VII (DM / ACCORD 2-way / SWS(4,2) / SWS(8,2) / 8-way)");

    const std::vector<std::string> configs = {
        "dm", "2way-pws+gws", "4way-sws+gws", "8way-sws+gws",
        "8way-rand"};
    const char *labels[] = {"direct-mapped", "ACCORD (2-way)",
                            "SWS(4,2)", "SWS(8,2)", "8-way"};

    const bench::FunctionalSweep sweep(trace::mainWorkloadNames(),
                                       configs, rep.cli());

    report::ReportTable &table = rep.table(
        "sws_hit_rate", {"organization", "hit-rate (amean)",
                         "miss-confirm probes"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<double> hits;
        double probes = 0.0;
        for (std::size_t w = 0; w < sweep.workloads().size(); ++w) {
            const auto &m = sweep.metrics(configs[c], w);
            hits.push_back(m.hitRate);
            probes += m.cacheStats.probesPerRead.max();
        }
        table.row()
            .cell(labels[c])
            .percent(amean(hits))
            .cell(probes
                      / static_cast<double>(sweep.workloads().size()),
                  1);
    }
    return rep.finish();
}
