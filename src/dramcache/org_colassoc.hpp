/**
 * @file
 * Column-associative (hash-rehash) organization — the CA-cache
 * baseline of paper Section VII.
 *
 * Every line has a primary slot and a pair slot (primary XOR half the
 * array).  Lookups probe primary then pair; a pair-slot hit swaps the
 * line back to its primary so hot lines converge there.  Installs
 * displace the primary occupant into the pair slot.
 */

#ifndef ACCORD_DRAMCACHE_ORG_COLASSOC_HPP
#define ACCORD_DRAMCACHE_ORG_COLASSOC_HPP

#include <cstdint>

#include "dramcache/organization.hpp"

namespace accord::dramcache
{

/** Column-associative / hash-rehash strategy. */
class ColAssocOrg final : public OrgStrategy
{
  public:
    explicit ColAssocOrg(const OrgContext &ctx);

    void planRead(LineAddr line, AccessPlan &plan) override;
    void planDemandLocate(LineAddr line, AccessPlan &plan) override;
    void afterReadHit(const HitContext &hit) override;
    void installAfterMiss(LineAddr line, bool timed,
                          trace_event::TxnId parent) override;
    DcpTarget dcpTarget(LineAddr line) const override;
    void auditRange(InvariantAuditor &auditor, std::uint64_t firstSlot,
                    std::uint64_t lastSlot) const override;
    std::string describe() const override;

    /** Array geometry: one line per slot, ways forced to 1. */
    static core::CacheGeometry geometryFor(const DramCacheParams &params);

  private:
    std::uint64_t primarySlot(LineAddr line) const;
    std::uint64_t pairSlot(std::uint64_t slot) const;
    bool slotHolds(std::uint64_t slot, LineAddr line) const;

    /** Swap the two slots' contents. */
    void swapSlots(std::uint64_t primary, std::uint64_t secondary);

    std::uint64_t ca_pair_mask = 0;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_ORG_COLASSOC_HPP
