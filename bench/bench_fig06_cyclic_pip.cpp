/**
 * @file
 * Figure 6: hit rate of the cyclic-reference kernel (a,b)^N on a 2-way
 * cache under PWS, sweeping N and the preferred-way install
 * probability (PIP).
 *
 * Expected shape (paper): PIP=50% (unbiased) converges fastest;
 * PIP=70/80% track it closely; PIP=90% needs more iterations but
 * eventually learns to use both ways; a direct-mapped cache would stay
 * at 0%.
 */

#include <memory>

#include "bench_common.hpp"
#include "core/factory.hpp"
#include "dramcache/controller.hpp"
#include "nvm/nvm_system.hpp"
#include "trace/generator.hpp"

using namespace accord;

namespace
{

/** Hit rate of (a,b)^N pairs under PWS with the given PIP. */
double
cyclicHitRate(unsigned iterations, double pip, std::uint64_t seed)
{
    EventQueue eq;
    nvm::NvmSystem nvm(eq);

    dramcache::DramCacheParams params;
    params.capacityBytes = 1ULL << 20;
    params.ways = 2;

    core::CacheGeometry geom;
    geom.ways = 2;
    geom.sets = params.capacityBytes / lineSize / 2;

    core::PolicyOptions opts;
    opts.pip = pip;
    opts.seed = seed;
    auto policy = core::makePolicy("pws", geom, opts);

    dramcache::DramCacheController cache(params, std::move(policy),
                                         dram::hbmCacheTiming(), eq,
                                         nvm);

    trace::CyclicPairGen gen(geom.sets, iterations, seed * 31 + 7);
    // Enough pairs for a stable estimate.
    const std::uint64_t pairs = 2000;
    for (std::uint64_t i = 0; i < pairs * 2 * iterations; ++i)
        cache.warmRead(gen.next().line);
    return cache.stats().readHits.rate();
}

} // namespace

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Figure 6: cyclic-reference kernel vs PIP",
        "Fig 6 (hit rate of (a,b)^N under PWS for PIP=50..90%)");
    const std::uint64_t seed = rep.cli().getUint("seed", 1);
    rep.cli().checkConsumed();

    const double pips[] = {0.50, 0.70, 0.80, 0.90};
    report::ReportTable &table = rep.table(
        "cyclic_hit_rate", {"N", "PIP=50%", "PIP=70%", "PIP=80%",
                            "PIP=90%", "PIP=100%"});
    for (unsigned n : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
        table.row().cell(std::to_string(n));
        for (const double pip : pips)
            table.percent(cyclicHitRate(n, pip, seed));
        // PIP=100% degenerates into a direct-mapped cache: pairs whose
        // tags share a preferred way (half of them) thrash forever, so
        // the curve saturates near 50% instead of learning to ~100%.
        table.percent(cyclicHitRate(n, 1.0, seed));
    }
    return rep.finish();
}
