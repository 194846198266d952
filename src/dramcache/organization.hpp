/**
 * @file
 * The Organization strategy interface of the DRAM cache.
 *
 * An Organization decides WHERE lines live and WHAT state changes on
 * each outcome: probe placement (via the access-plan core), hit
 * bookkeeping (policy feedback, replacement state), install/eviction,
 * and writeback routing.  The controller keeps the WHEN: event
 * scheduling, device issue, tracing, and latency stats.
 *
 * The concrete strategies (set-associative, column-associative) are
 * chosen by switches on DramCacheParams::org in organization.cpp
 * (orgGeometry(), makeOrganization()); adding an organization is one
 * enum value and one case in each, and never touches the controller
 * or the plan core.
 */

#ifndef ACCORD_DRAMCACHE_ORGANIZATION_HPP
#define ACCORD_DRAMCACHE_ORGANIZATION_HPP

#include <functional>
#include <memory>
#include <string>

#include "common/invariant_auditor.hpp"
#include "common/trace_event/trace_event.hpp"
#include "core/way_policy.hpp"
#include "dram/mem_op.hpp"
#include "dramcache/access_plan.hpp"
#include "dramcache/params.hpp"
#include "dramcache/tag_store.hpp"

namespace accord::dramcache
{

/**
 * Timed-device services the controller lends its organization:
 * everything an install or swap needs to mirror functional state
 * changes onto the stacked-DRAM array and the NVM below it.  The
 * functional path never calls these (timed == false everywhere).
 */
class OrgServices
{
  public:
    /** Issue a timed read/write of one way unit of a set. */
    virtual void cacheOp(std::uint64_t set, unsigned way, bool is_write,
                         dram::MemCallback on_complete = {},
                         bool priority = false,
                         trace_event::TxnId txn = trace_event::kNoTxn)
        = 0;

    /** Timed line write to the NVM main memory. */
    virtual void nvmWrite(LineAddr line, dram::MemCallback on_complete,
                          trace_event::TxnId txn)
        = 0;

    /**
     * Start a posted Fill trace transaction (kNoTxn when the parent
     * read is untraced) and return a completion-callback factory:
     * each call registers one member op, and the transaction
     * completes when the last member finishes.
     */
    virtual std::function<dram::MemCallback()>
    beginFillGroup(trace_event::TxnId parent, LineAddr line,
                   trace_event::TxnId &fill_txn)
        = 0;

  protected:
    ~OrgServices() = default;
};

/** Shared state an organization operates on, owned by the controller. */
struct OrgContext
{
    const DramCacheParams &params;
    const core::CacheGeometry &geom;
    TagStore &tags;
    DramCacheStats &stats;
    core::WayPolicy *policy;
    OrgServices &services;
};

/** One resolved read hit, as the engine reports it to the strategy. */
struct HitContext
{
    LineAddr line = 0;
    std::uint64_t set = 0;
    unsigned way = 0;
    unsigned probeIndex = 0;
    bool timed = false;
    trace_event::TxnId trace = trace_event::kNoTxn;
};

/** Where DCP way bits route a writeback: the slot holding the line. */
struct DcpTarget
{
    std::uint64_t set = 0;
    unsigned way = 0;
    bool present = false;
};

/** A cache organization strategy (set-assoc, CA, ...). */
class OrgStrategy
{
  public:
    explicit OrgStrategy(const OrgContext &ctx) : ctx_(ctx) {}
    virtual ~OrgStrategy() = default;

    OrgStrategy(const OrgStrategy &) = delete;
    OrgStrategy &operator=(const OrgStrategy &) = delete;

    /** Fill `plan` with the lookup plan for a demand read of `line`. */
    virtual void planRead(LineAddr line, AccessPlan &plan) = 0;

    /**
     * Fill `plan` with the probe plan for locating `line` on a
     * writeback without DCP way bits: always a chained sweep,
     * independent of the lookup mode.
     */
    virtual void planDemandLocate(LineAddr line, AccessPlan &plan) = 0;

    /**
     * A read hit resolved: update policy feedback and replacement
     * state.  Runs before the engine completes the transaction.
     */
    virtual void onReadHit(const HitContext &hit) { (void)hit; }

    /**
     * Post-completion hit work off the critical path (the CA-cache
     * swap-to-primary).  Runs after the demand read's callback.
     */
    virtual void afterReadHit(const HitContext &hit) { (void)hit; }

    /** A read miss confirmed (policy feedback). */
    virtual void onReadMiss(const core::LineRef &ref) { (void)ref; }

    /**
     * Install `line` after a confirmed miss: functional tag/stat
     * updates always; array writes and victim writebacks mirrored on
     * the devices when `timed`.
     */
    virtual void installAfterMiss(LineAddr line, bool timed,
                                  trace_event::TxnId parent)
        = 0;

    /**
     * The slot holding `line`, read from the tag store.  DCP way bits
     * only ever record where the L4 holds a line, so writeback routing
     * needs no copy of them.
     */
    virtual DcpTarget dcpTarget(LineAddr line) const = 0;

    /**
     * Organization-specific invariants over sets [firstSet, lastSet)
     * — the bounded slice the periodic self-audit rotates.
     */
    virtual void auditRange(InvariantAuditor &auditor,
                            std::uint64_t firstSet,
                            std::uint64_t lastSet) const
    {
        (void)auditor;
        (void)firstSet;
        (void)lastSet;
    }

    /** Full-sweep invariants (adds global checks auditRange cannot see). */
    virtual void auditFull(InvariantAuditor &auditor) const
    {
        auditRange(auditor, 0, ctx_.geom.sets);
    }

    /**
     * Host bytes backing organization-private per-set state beyond
     * the shared tag store (e.g. the LRU-ablation recency stamps).
     */
    virtual std::uint64_t residentStateBytes() const { return 0; }

    /** Short human description ("dm", "2-way pws+gws predicted"). */
    virtual std::string describe() const = 0;

  protected:
    OrgContext ctx_;
};

/** Array geometry the organization `params.org` imposes on `params`. */
core::CacheGeometry orgGeometry(const DramCacheParams &params);

/** Build the strategy `ctx.params.org` names over the shared state. */
std::unique_ptr<OrgStrategy> makeOrganization(const OrgContext &ctx);

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_ORGANIZATION_HPP
