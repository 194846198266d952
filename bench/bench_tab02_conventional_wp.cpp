/**
 * @file
 * Table II: accuracy and storage of conventional way predictors on a
 * 4GB DRAM cache at 2/4/8 ways.
 *
 * Expected shape (paper): random ~50/25/12.5%; MRU ~86/74/63% with 4MB
 * of SRAM; 4-bit partial tags ~97/92/81% with 32MB.  Storage is
 * computed for the FULL 4GB geometry regardless of the run scale.
 */

#include "bench_common.hpp"
#include "core/factory.hpp"

using namespace accord;

namespace
{

/** SRAM bytes a policy needs on the paper's full 4GB cache. */
std::uint64_t
fullScaleStorageBytes(const std::string &spec, unsigned ways)
{
    core::CacheGeometry geom;
    geom.ways = ways;
    geom.sets = (4ULL << 30) / lineSize / ways;
    core::PolicyOptions opts;
    const auto policy = core::makePolicy(spec, geom, opts);
    return policy->storageBits() / 8;
}

std::string
humanBytes(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1ULL << 20))
        std::snprintf(buf, sizeof buf, "%.0fMB",
                      static_cast<double>(bytes) / (1 << 20));
    else if (bytes >= 1024)
        std::snprintf(buf, sizeof buf, "%.0fKB",
                      static_cast<double>(bytes) / 1024);
    else
        std::snprintf(buf, sizeof buf, "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Table II: conventional way predictors",
        "Table II (accuracy and storage of Rand/MRU/Partial-Tag on a "
        "4GB cache)");
    const bench::FunctionalSweep sweep(
        trace::mainWorkloadNames(),
        {"2way-rand", "2way-mru", "2way-ptag", "4way-rand", "4way-mru",
         "4way-ptag", "8way-rand", "8way-mru", "8way-ptag"},
        rep.cli());
    const auto accuracy = [&sweep](unsigned ways, const char *spec) {
        return sweep.mean(
            std::to_string(ways) + "way-" + spec,
            [](const sim::SystemMetrics &m) { return m.wpAccuracy; });
    };

    report::ReportTable &table = rep.table(
        "conventional_wp", {"ways", "rand acc", "mru acc", "ptag acc",
                            "rand SRAM", "mru SRAM", "ptag SRAM"});
    for (unsigned ways : {2u, 4u, 8u}) {
        table.row()
            .cell(std::to_string(ways) + "-way")
            .percent(accuracy(ways, "rand"))
            .percent(accuracy(ways, "mru"))
            .percent(accuracy(ways, "ptag"))
            .cell("0B")
            .cell(humanBytes(fullScaleStorageBytes("mru", ways)))
            .cell(humanBytes(fullScaleStorageBytes("ptag", ways)));
    }
    return rep.finish();
}
