/**
 * @file
 * DRAM-cache configuration and statistics.
 *
 * Split out of the controller header so the organization strategies
 * and the pure access-plan core can consume them without depending on
 * the timed transaction engine.
 */

#ifndef ACCORD_DRAMCACHE_PARAMS_HPP
#define ACCORD_DRAMCACHE_PARAMS_HPP

#include <cstdint>
#include <string>

#include "common/metrics/registry.hpp"
#include "common/stats.hpp"
#include "dramcache/enums.hpp"
#include "dramcache/layout.hpp"

namespace accord::dramcache
{

/** DRAM cache configuration. */
struct DramCacheParams
{
    std::uint64_t capacityBytes = 256ULL << 20;
    unsigned ways = 1;
    Organization org = Organization::SetAssoc;
    LookupMode lookup = LookupMode::Predicted;

    /** Writebacks carry DCP way bits and skip the probe (II-B3). */
    bool dcpWayBits = true;

    /** Victim selection for unsteered installs (LRU ablation). */
    L4Replacement replacement = L4Replacement::Random;

    /** Way placement in the array (row-co-located vs striped). */
    LayoutMode layout = LayoutMode::RowCoLocated;

    /**
     * Backend for the tag store and the other per-set state tables
     * (common/paged_table.hpp).  Auto resolves per table by size, so
     * results are identical across backends by construction and only
     * the host memory footprint changes.
     */
    StateBackend stateBackend = StateBackend::Auto;

    std::uint64_t seed = 7;

    /**
     * Run an invariant audit every this many demand reads when checks
     * are compiled in (Debug, ACCORD_CHECKS, or sanitizer builds); 0
     * disables the periodic sweep.  Each firing audits a bounded slice
     * of sets (rotating through the whole array over successive
     * firings) so the amortized cost stays O(1) per access even for
     * gigascale caches.  Release builds compile the hook out entirely.
     */
    std::uint32_t auditInterval = 4096;
};

/** Controller statistics. */
struct DramCacheStats
{
    Ratio readHits;

    /** First-probe-correct ratio over read hits. */
    Ratio wayPrediction;

    /** Line transfers on the stacked-DRAM bus. */
    Counter cacheReadTransfers;
    Counter cacheWriteTransfers;

    Counter nvmReads;
    Counter nvmWrites;

    Counter writebacksToCache;
    Counter writebacksToNvm;

    /** Probe transfers spent locating writeback targets (no-DCP mode). */
    Counter writebackProbeTransfers;

    /**
     * Writebacks whose DCP way bits were stale.  Routing reads the tag
     * store, so this stays 0; it is kept registered (l4.wb.dcp_stale)
     * so committed reports keep their shape.
     */
    Counter dcpStaleWritebacks;

    /** CA-cache swap operations. */
    Counter swaps;

    /** Replacement-state update writes (LRU-in-DRAM ablation). */
    Counter replacementUpdateWrites;

    Average probesPerRead;
    Average readHitLatency;
    Average readMissLatency;

    /** All stacked-DRAM transfers per demand read (bandwidth bloat). */
    double transfersPerRead() const;

    void reset();

    /**
     * Register every member under `prefix`: lookup + way_prediction
     * (Ratio), the transfer/writeback counters, the latency/probe
     * averages, and a transfers_per_read gauge.
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_PARAMS_HPP
