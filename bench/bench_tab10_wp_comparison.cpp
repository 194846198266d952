/**
 * @file
 * Table X: accuracy/storage comparison of the CA-cache, MRU and
 * partial-tag predictors, and ACCORD at 2/4/8 ways.
 *
 * Expected shape (paper): CA-cache ~85% first-probe rate (2-way
 * equivalent only); MRU decays 86->63% with ways; partial tags decay
 * 97->81%; ACCORD holds ~90% at every associativity because SWS keeps
 * the prediction problem 2-way.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Table X: way-predictor comparison",
        "Table X (CA-cache / MRU / Partial-Tag / ACCORD accuracy)");
    const bench::FunctionalSweep sweep(
        trace::mainWorkloadNames(),
        {"ca", "2way-mru", "2way-ptag", "2way-pws+gws", "4way-mru",
         "4way-ptag", "4way-sws+gws", "8way-mru", "8way-ptag",
         "8way-sws+gws"},
        rep.cli());
    const auto meanAccuracy = [&sweep](const std::string &config) {
        return sweep.mean(config, [](const sim::SystemMetrics &m) {
            return m.wpAccuracy;
        });
    };

    report::ReportTable &table = rep.table(
        "wp_comparison", {"ways", "ca-cache", "mru", "ptag", "accord"});

    const double ca2 = meanAccuracy("ca");
    for (unsigned ways : {2u, 4u, 8u}) {
        const std::string w = std::to_string(ways);
        const std::string accord =
            ways == 2 ? "2way-pws+gws" : w + "way-sws+gws";
        table.row().cell(w + "-way");
        if (ways == 2)
            table.percent(ca2);
        else
            table.cell("n/a");
        table
            .percent(meanAccuracy(w + "way-mru"))
            .percent(meanAccuracy(w + "way-ptag"))
            .percent(meanAccuracy(accord));
    }
    rep.note("CA-cache first-probe hit rate (2-way equivalent): "
             "%.1f%%", ca2 * 100.0);
    rep.note("Storage (4GB cache): CA 0MB, MRU 4MB, partial-tag 32MB, "
             "ACCORD 320 bytes (see bench_tab09).");

    return rep.finish();
}
