/**
 * @file
 * Conventional way predictors the paper compares against (Sections
 * II-D and VII): MRU prediction, partial-tag prediction, and a perfect
 * oracle bound.
 *
 * These predict independently of the install policy, so they pair with
 * unbiased random installs — which is exactly why they need per-set or
 * per-line SRAM state that does not scale to gigascale caches
 * (Table II: 4MB for MRU, 32MB for 4-bit partial tags on a 4GB cache).
 */

#ifndef ACCORD_CORE_PREDICTORS_HPP
#define ACCORD_CORE_PREDICTORS_HPP

#include <functional>
#include <optional>

#include "common/paged_table.hpp"
#include "common/rng.hpp"
#include "core/way_policy.hpp"

namespace accord::core
{

/**
 * Storage mode for a predictor table: an explicit mode forces it
 * (SystemConfig::stateBackend off Auto), nullopt resolves per table
 * by size (autoStorageMode), keeping bench-scale tables dense.
 */
using TableStorage = std::optional<StorageMode>;

/** MRU way prediction: one most-recently-used way id per set. */
class MruPolicy : public WayPolicy
{
  public:
    MruPolicy(const CacheGeometry &geom, std::uint64_t seed,
              TableStorage storage = std::nullopt);

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    void onHit(const LineRef &ref, unsigned way) override;
    void onInstall(const LineRef &ref, unsigned way) override;
    std::uint64_t storageBits() const override;
    std::uint64_t residentStateBytes() const override;
    std::string name() const override { return "mru"; }
    void audit(InvariantAuditor &auditor) const override;

  private:
    PagedColumn<std::uint8_t> mru;  // [set]
    Rng rng;
};

/**
 * Partial-tag way prediction: a few tag bits per line; the first way
 * whose partial tag matches is probed first.  Accuracy degrades with
 * associativity because of false partial matches.
 */
class PartialTagPolicy : public WayPolicy
{
  public:
    PartialTagPolicy(const CacheGeometry &geom, unsigned tag_bits,
                     std::uint64_t seed,
                     TableStorage storage = std::nullopt);

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    void onInstall(const LineRef &ref, unsigned way) override;
    std::uint64_t storageBits() const override;
    std::uint64_t residentStateBytes() const override;
    std::string name() const override { return "ptag"; }
    void audit(InvariantAuditor &auditor) const override;

  private:
    std::uint8_t partialOf(const LineRef &ref) const;

    unsigned tag_bits;
    std::uint8_t tag_mask;
    PagedColumn<std::uint8_t> tags;     // [set * ways + way]
    PagedColumn<std::uint8_t> valid;    // [set * ways + way]
    Rng rng;
};

/**
 * Perfect way prediction: an oracle that always probes the resident
 * way first (upper bound in Fig 10).  The oracle callback is wired to
 * the cache's tag store by the controller; misses still pay full
 * confirmation.
 */
class PerfectPolicy : public WayPolicy
{
  public:
    /** Returns the resident way of the line, or -1 if absent. */
    using Oracle = std::function<int(const LineRef &)>;

    PerfectPolicy(const CacheGeometry &geom, std::uint64_t seed);

    /** Install the oracle; must be set before the first predict(). */
    void setOracle(Oracle oracle) { oracle_ = std::move(oracle); }

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    std::string name() const override { return "perfect"; }

  private:
    Oracle oracle_;
    Rng rng;
};

} // namespace accord::core

#endif // ACCORD_CORE_PREDICTORS_HPP
