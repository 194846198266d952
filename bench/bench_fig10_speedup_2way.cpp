/**
 * @file
 * Figure 10: speedup of 2-way DRAM cache designs over the
 * direct-mapped baseline, per workload.
 *
 * Expected shape (paper): parallel lookup wastes bandwidth and serial
 * lookup pays latency; PWS ~5.6%, GWS ~6.8% (but loses on low-spatial
 * workloads like mcf), PWS+GWS ~7.3%, close to the ~10.2% bound of
 * perfect way prediction.
 */

#include "bench_common.hpp"

using namespace accord;

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Figure 10: 2-way DRAM cache speedup",
        "Fig 10 (parallel / serial / PWS / GWS / PWS+GWS / perfect)");

    const bench::SpeedupSweep sweep(trace::mainWorkloadNames(),
                                    {"2way-parallel", "2way-serial",
                                     "2way-pws", "2way-gws",
                                     "2way-pws+gws", "2way-perfect"},
                                    rep.cli());
    sweep.addTable(rep, "speedup_2way");
    sweep.record(rep.report());

    return rep.finish();
}
