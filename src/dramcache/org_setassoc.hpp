/**
 * @file
 * Set-associative organization (ways==1 is the direct-mapped baseline).
 *
 * Owns everything specific to tag-matched way placement: the probe
 * plans (via the access-plan core), way-policy feedback, steered and
 * unsteered victim selection (random or the LRU-in-DRAM ablation),
 * and install/eviction bookkeeping.
 */

#ifndef ACCORD_DRAMCACHE_ORG_SETASSOC_HPP
#define ACCORD_DRAMCACHE_ORG_SETASSOC_HPP

#include <cstdint>

#include "common/paged_table.hpp"
#include "common/rng.hpp"
#include "dramcache/organization.hpp"

namespace accord::dramcache
{

/**
 * Set-associative / direct-mapped strategy.  `final`, so the timed
 * engine's calls through a SetAssocOrg pointer bind statically
 * (non-virtual, inlinable).
 */
class SetAssocOrg final : public OrgStrategy
{
  public:
    explicit SetAssocOrg(const OrgContext &ctx);

    void planRead(LineAddr line, AccessPlan &plan) override;
    void planDemandLocate(LineAddr line, AccessPlan &plan) override;
    void onReadHit(const HitContext &hit) override;
    void onReadMiss(const core::LineRef &ref) override;
    void installAfterMiss(LineAddr line, bool timed,
                          trace_event::TxnId parent) override;
    DcpTarget dcpTarget(LineAddr line) const override;
    void auditRange(InvariantAuditor &auditor, std::uint64_t firstSet,
                    std::uint64_t lastSet) const override;
    void auditFull(InvariantAuditor &auditor) const override;
    std::uint64_t residentStateBytes() const override;
    std::string describe() const override;

    /** Array geometry for the given params (validates ways/sets). */
    static core::CacheGeometry geometryFor(const DramCacheParams &params);

  private:
    /** What an install did, for the timed path to mirror on devices. */
    struct InstallResult
    {
        unsigned way = 0;
        bool victimDirty = false;
        LineAddr victimLine = 0;
    };

    /** Shared install bookkeeping (tag store, policy, counters). */
    InstallResult installLine(const core::LineRef &ref);

    /** Victim way for an unsteered install (random or LRU). */
    unsigned unsteeredVictim(const core::LineRef &ref);

    /**
     * LRU bookkeeping on a hit: stamps the way and charges the
     * in-DRAM replacement-state write (timed path issues it too).
     */
    void touchReplacement(const core::LineRef &ref, unsigned way,
                          bool timed, trace_event::TxnId txn);

    Rng install_rng;

    /** Per-line recency stamps for the LRU ablation (empty if unused). */
    PagedColumn<std::uint64_t> lru_stamps;
    std::uint64_t lru_clock = 0;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_ORG_SETASSOC_HPP
