/**
 * @file
 * DRAM-cache organization enums and their canonical string tokens.
 *
 * The token functions here are the single source of truth for every
 * enum <-> string rendering in the simulator: describe() strings,
 * canonical run-report config specs, and the name-keyed organization
 * factory all share them, so a new mode added here is automatically
 * spelled the same everywhere.
 */

#ifndef ACCORD_DRAMCACHE_ENUMS_HPP
#define ACCORD_DRAMCACHE_ENUMS_HPP

#include <cstdint>

#include "dramcache/layout.hpp"

namespace accord
{
enum class StorageMode : std::uint8_t;
} // namespace accord

namespace accord::dramcache
{

/** How lookups locate a line within a set (Section II-C). */
enum class LookupMode
{
    Serial,     ///< probe ways one by one in a fixed order
    Parallel,   ///< stream all candidate ways per access
    Predicted,  ///< probe the predicted way first, then the rest
    Ideal,      ///< magic 1-transfer hit AND miss (Fig 1c bound)
};

/** Overall array organization. */
enum class Organization
{
    SetAssoc,       ///< ways==1 gives the direct-mapped baseline
    ColumnAssoc,    ///< hash-rehash with swap-to-primary (CA-cache)
};

/** Victim selection when no way policy steers installs. */
enum class L4Replacement
{
    /** Update-free random replacement (the paper's choice, II-B4). */
    Random,

    /**
     * True LRU.  Because the replacement state lives with the tags in
     * DRAM, every hit pays an extra line write to update it — the
     * paper's footnote 2 measures this costing ~9% vs random.
     */
    Lru,
};

/**
 * Backend for per-set cache state (tag store, predictor tables, LRU
 * stamps) — see common/paged_table.hpp.  Auto, what every bench and
 * example runs, resolves by geometry: dense below the paged-storage
 * threshold, paged above it, so 1/128 bench runs stay dense while
 * full-gigascale runs page lazily.  Dense and Paged force one mode
 * for every table; only code sets them (tests, bench_throughput's
 * paged mode), never a CLI key.
 */
enum class StateBackend
{
    Dense,  ///< eager dense vectors (the historical representation)
    Paged,  ///< lazily-materialized fixed-size pages
    Auto,   ///< pick by table size (autoStorageMode)
};

/** Canonical token ("serial", "parallel", "predicted", "ideal"). */
const char *toToken(LookupMode mode);

/** Canonical token ("set_assoc", "ca"). */
const char *toToken(Organization org);

/** Canonical token ("random", "lru"). */
const char *toToken(L4Replacement repl);

/** Canonical token ("row_co_located", "way_striped"). */
const char *toToken(LayoutMode layout);

/** Concrete storage mode for a table of `slots` under `backend`. */
StorageMode resolveStorageMode(StateBackend backend,
                               std::uint64_t slots);

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_ENUMS_HPP
