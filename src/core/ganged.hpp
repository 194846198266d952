/**
 * @file
 * Ganged Way-Steering (GWS, paper Section IV-C).
 *
 * GWS coordinates install decisions across the sets spanned by a 4KB
 * region: the first missing line of a region picks a way (via the base
 * policy) and subsequent installs from that region follow it (Recent
 * Install Table).  Prediction tracks the last way seen per region
 * (Recent Lookup Table).  Two 64-entry tables -> 320 bytes of SRAM.
 *
 * GWS is a decorator: it wraps any base policy (unbiased random for
 * plain "GWS", PWS for "PWS+GWS", SWS for the high-associativity
 * ACCORD) and defers to it on table misses.
 */

#ifndef ACCORD_CORE_GANGED_HPP
#define ACCORD_CORE_GANGED_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/way_policy.hpp"

namespace accord::core
{

/**
 * Small fully-associative exact-LRU table mapping region id -> way.
 *
 * Models the paper's RIT and RLT.  Hardware scans its 64 entries in
 * parallel; here an open-addressed index (linear probing, load <= 1/2,
 * backward-shift delete) finds a region's slot and an intrusive
 * doubly linked recency list orders the slots, so lookup, insert and
 * LRU eviction are O(1) at any table size.  Slot positions are not
 * observable: callers see only which regions are tracked and the
 * eviction order.  The four arrays are sized at construction;
 * lookup() and insert() never allocate.
 */
class RegionTable
{
  public:
    /** Largest table the index's 32-bit slot ids support. */
    static constexpr unsigned kMaxEntries = 1u << 16;

    explicit RegionTable(unsigned entries);

    /** Way recorded for the region, if tracked; refreshes LRU. */
    std::optional<unsigned> lookup(std::uint64_t region);

    /** Record (or update) the way for a region, evicting LRU. */
    void insert(std::uint64_t region, unsigned way);

    unsigned entries() const
        { return static_cast<unsigned>(regions_.size()); }

    /** Valid entries (for tests). */
    unsigned occupancy() const { return live_; }

    /**
     * Record table-consistency violations: capacity above the
     * configured bound, stored ways >= maxWays, duplicate regions, a
     * recency list that does not link every live slot exactly once,
     * or an index that disagrees with the slots.  `label`
     * distinguishes RIT from RLT in the report.
     */
    void audit(InvariantAuditor &auditor, const char *label,
               unsigned maxWays, unsigned maxEntries) const;

    /** Host bytes backing the slots and the index. */
    std::uint64_t residentStateBytes() const;

  private:
    friend struct RegionTablePeer; // corrupts state in audit tests

    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** A slot's neighbours in the recency list, or kNone. */
    struct Link
    {
        std::uint32_t prev = kNone; ///< toward the MRU end
        std::uint32_t next = kNone; ///< toward the LRU end
    };

    /** Home bucket of a region in the index. */
    std::uint32_t home(std::uint64_t region) const;

    /** Bucket holding `region`'s slot, or the empty bucket ending
     *  its probe run. */
    std::uint32_t bucketOf(std::uint64_t region) const;

    /** Empty a bucket, shifting its probe run back over the hole. */
    void eraseBucket(std::uint32_t bucket);

    void unlink(std::uint32_t slot);
    void pushFront(std::uint32_t slot);

    // Slot state, one entry per slot; slots [0, live_) are in use.
    std::vector<std::uint64_t> regions_;
    std::vector<Link> links_;
    std::vector<std::uint8_t> ways_;
    std::vector<std::uint32_t> index_; ///< bucket -> slot, or kNone
    std::uint32_t mask_ = 0;
    unsigned shift_ = 0;
    std::uint32_t live_ = 0;
    std::uint32_t head_ = kNone; ///< most recently used
    std::uint32_t tail_ = kNone; ///< least recently used
};

/** Configuration for GWS tables. */
struct GangedParams
{
    unsigned ritEntries = 64;
    unsigned rltEntries = 64;

    /** Region tag bits assumed for the storage estimate (paper: 19). */
    unsigned regionTagBits = 19;
};

/** Ganged Way-Steering decorator over a base policy. */
class GangedPolicy : public WayPolicy
{
  public:
    GangedPolicy(std::unique_ptr<WayPolicy> base,
                 const GangedParams &params);

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    std::uint64_t candidates(const LineRef &ref) const override;
    void onHit(const LineRef &ref, unsigned way) override;
    void onMiss(const LineRef &ref) override;
    void onInstall(const LineRef &ref, unsigned way) override;
    std::uint64_t storageBits() const override;
    std::uint64_t residentStateBytes() const override;
    std::string name() const override;
    void audit(InvariantAuditor &auditor) const override;
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const override;

    /** Fraction of predictions served by the RLT (for analysis). */
    double rltCoverage() const;

    WayPolicy &base() { return *base_; }

  private:
    std::unique_ptr<WayPolicy> base_;
    GangedParams params;
    RegionTable rit;
    RegionTable rlt;
    std::uint64_t rlt_hits = 0;
    std::uint64_t predictions = 0;
};

} // namespace accord::core

#endif // ACCORD_CORE_GANGED_HPP
