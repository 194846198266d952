/**
 * @file
 * Figure 13: speedup of extending ACCORD to higher associativity with
 * Skewed Way-Steering.
 *
 * Expected shape (paper): SWS(8,2) > SWS(4,2) > ACCORD 2-way on
 * average (10.6% / ~9% / 7.3%), with sphinx degrading slightly under
 * SWS(8,2) because it is already cache-resident and only sees the
 * extra bandwidth / row-buffer pressure.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Figure 13: ACCORD with Skewed Way-Steering",
        "Fig 13 (ACCORD 2-way / SWS(4,2) / SWS(8,2) speedup)");

    const bench::SpeedupSweep sweep(trace::mainWorkloadNames(),
                                    {"2way-pws+gws", "4way-sws+gws",
                                     "8way-sws+gws"},
                                    rep.cli());
    sweep.addTable(rep, "sws_speedup");
    sweep.record(rep.report());

    return rep.finish();
}
