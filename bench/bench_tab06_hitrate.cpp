/**
 * @file
 * Table VI: hit-rate impact of way steering on a 2-way cache.
 *
 * Expected shape (paper): direct-mapped 74.2%, unbiased 2-way 77.5%,
 * PWS 77.2% (trades a sliver of hit rate for predictability), GWS
 * 77.7%, PWS+GWS 77.3%.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Table VI: hit rate under way steering",
        "Table VI (DM / 2-way random / PWS / GWS / PWS+GWS hit rate)");

    const std::vector<std::string> configs = {
        "dm", "2way-rand", "2way-pws", "2way-gws", "2way-pws+gws"};
    const char *labels[] = {"direct-mapped", "2-way rand", "2-way PWS",
                            "2-way GWS", "2-way PWS+GWS"};

    const bench::FunctionalSweep sweep(trace::mainWorkloadNames(),
                                       configs, rep.cli());

    report::ReportTable &table =
        rep.table("hit_rate", {"organization", "hit-rate (amean)"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        table.row().cell(labels[c]).percent(sweep.mean(
            configs[c],
            [](const sim::SystemMetrics &m) { return m.hitRate; }));
    }
    sweep.record(rep.report());
    return rep.finish();
}
