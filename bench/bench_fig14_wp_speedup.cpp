/**
 * @file
 * Figure 14: speedup of way predictors and ACCORD for a 2-way cache.
 *
 * Expected shape (paper): ACCORD (320B SRAM) matches partial-tag (32MB
 * SRAM) and MRU (4MB SRAM) performance; the CA-cache degrades average
 * performance (-3.7%) because its swaps burn bandwidth even on
 * workloads that gain nothing from associativity.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Figure 14: way-predictor speedups (2-way)",
        "Fig 14 (CA-cache / MRU / Partial-Tag / ACCORD speedup)");

    const bench::SpeedupSweep sweep(trace::mainWorkloadNames(),
                                    {"ca", "2way-mru", "2way-ptag",
                                     "2way-pws+gws"},
                                    rep.cli());
    sweep.addTable(rep, "wp_speedup");
    sweep.record(rep.report());
    rep.note("SRAM cost on the full 4GB cache: CA-cache 0, MRU 4MB, "
             "partial-tag 32MB, ACCORD 320 bytes.");

    return rep.finish();
}
