#include "dramcache/org_setassoc.hpp"

#include <cstdio>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "core/predictors.hpp"
#include "dramcache/audit.hpp"
#include "dramcache/enums.hpp"

namespace accord::dramcache
{

core::CacheGeometry
SetAssocOrg::geometryFor(const DramCacheParams &params)
{
    core::CacheGeometry geom;
    if (params.ways == 0 || params.ways > kMaxWays
        || !isPow2(params.ways))
        fatal("dram cache: ways must be a power of two in [1,64]");
    geom.ways = params.ways;
    geom.sets = params.capacityBytes / lineSize / params.ways;
    if (!isPow2(geom.sets))
        fatal("dram cache: set count must be a power of two");
    return geom;
}

SetAssocOrg::SetAssocOrg(const OrgContext &ctx)
    : OrgStrategy(ctx), install_rng(ctx.params.seed ^ 0x1e57a11ULL)
{
    if (ctx_.params.replacement == L4Replacement::Lru) {
        ACCORD_ASSERT(!ctx_.policy,
                      "LRU replacement is the unsteered ablation; it "
                      "cannot be combined with a way policy");
        lru_stamps.reset(ctx_.geom.lines(),
                         resolveStorageMode(ctx_.params.stateBackend,
                                            ctx_.geom.lines()),
                         0);
    }
    if (ctx_.policy) {
        ACCORD_ASSERT(ctx_.policy->geometry().sets == ctx_.geom.sets
                          && ctx_.policy->geometry().ways
                              == ctx_.geom.ways,
                      "policy geometry mismatch");
        // Wire the oracle for the perfect-prediction bound.
        if (auto *perfect =
                dynamic_cast<core::PerfectPolicy *>(ctx_.policy)) {
            TagStore &tags = ctx_.tags;
            perfect->setOracle([&tags](const core::LineRef &ref) {
                return tags.findWay(ref.set, ref.tag);
            });
        }
    }
}

ACCORD_HOT void
SetAssocOrg::planRead(LineAddr line, AccessPlan &plan)
{
    planLookup(core::LineRef::make(line, ctx_.geom), ctx_.policy,
               ctx_.geom, ctx_.params.lookup, plan);
}

void
SetAssocOrg::planDemandLocate(LineAddr line, AccessPlan &plan)
{
    planLocate(core::LineRef::make(line, ctx_.geom), ctx_.policy,
               ctx_.geom, plan);
}

ACCORD_HOT void
SetAssocOrg::onReadHit(const HitContext &hit)
{
    const auto ref = core::LineRef::make(hit.line, ctx_.geom);
    if (ctx_.policy)
        ctx_.policy->onHit(ref, hit.way);
    touchReplacement(ref, hit.way, hit.timed, hit.trace);
}

ACCORD_HOT void
SetAssocOrg::onReadMiss(const core::LineRef &ref)
{
    if (ctx_.policy)
        ctx_.policy->onMiss(ref);
}

ACCORD_HOT unsigned
SetAssocOrg::unsteeredVictim(const core::LineRef &ref)
{
    if (ctx_.geom.ways == 1)
        return 0;
    if (ctx_.params.replacement == L4Replacement::Random)
        return static_cast<unsigned>(install_rng.below(ctx_.geom.ways));

    // LRU: prefer an invalid way, else the oldest stamp.
    unsigned best = 0;
    std::uint64_t best_stamp = ~std::uint64_t{0};
    for (unsigned way = 0; way < ctx_.geom.ways; ++way) {
        if (!ctx_.tags.valid(ref.set, way))
            return way;
        const std::uint64_t stamp =
            lru_stamps.read(ref.set * ctx_.geom.ways + way);
        if (stamp < best_stamp) {
            best_stamp = stamp;
            best = way;
        }
    }
    return best;
}

ACCORD_HOT void
SetAssocOrg::touchReplacement(const core::LineRef &ref, unsigned way,
                              bool timed, trace_event::TxnId txn)
{
    if (ctx_.params.replacement != L4Replacement::Lru)
        return;
    // A hit implies the way was installed, so its stamp page is
    // already resident; this never allocates on the hit path.
    // accord-lint: allow(hot-paged-materialize) hit stamps touch
    // already-resident pages
    lru_stamps.materializeSlot(ref.set * ctx_.geom.ways + way)
        = ++lru_clock;
    // The recency state lives in the DRAM array next to the tags:
    // updating it on a hit costs a line write (paper footnote 2).
    ctx_.stats.replacementUpdateWrites.inc();
    ctx_.stats.cacheWriteTransfers.inc();
    if (timed)
        ctx_.services.cacheOp(ref.set, way, true, {}, false, txn);
}

ACCORD_HOT SetAssocOrg::InstallResult
SetAssocOrg::installLine(const core::LineRef &ref)
{
    // Two overlapping misses to one line (cores sharing a hashed
    // region, or a re-reference inside the MLP window) can both reach
    // the fill path; the second fill must not create a duplicate copy.
    // It still writes the resident copy in place.
    if (const int existing = ctx_.tags.findWay(ref.set, ref.tag);
        existing >= 0) {
        ctx_.stats.cacheWriteTransfers.inc();   // the fill write
        return {static_cast<unsigned>(existing), false, 0};
    }

    const unsigned way = ctx_.policy ? ctx_.policy->install(ref)
                                     : unsteeredVictim(ref);

    if (ctx_.params.replacement == L4Replacement::Lru) {
        // Fill-side stamp write: materializes at most one page per
        // page lifetime, amortized over the installs that land there.
        // accord-lint: allow(hot-paged-materialize) install-side
        // materialization is amortized
        lru_stamps.materializeSlot(ref.set * ctx_.geom.ways + way)
            = ++lru_clock;
    }

    const TagStore::Victim victim =
        ctx_.tags.install(ref.set, way, ref.tag, false);
    if (ctx_.policy)
        ctx_.policy->onInstall(ref, way);

    ctx_.stats.cacheWriteTransfers.inc();   // the fill write

    InstallResult result;
    result.way = way;
    if (victim.valid && victim.dirty) {
        ctx_.stats.nvmWrites.inc();
        result.victimDirty = true;
        result.victimLine = (victim.tag << ctx_.geom.setBits()) | ref.set;
    }
    return result;
}

ACCORD_HOT void
SetAssocOrg::installAfterMiss(LineAddr line, bool timed,
                              trace_event::TxnId parent)
{
    // Fill off the critical path: functional install now, the array
    // write and any victim writeback posted on the devices when
    // timed.  The fill is its own trace transaction (the demand read
    // already completed) grouped over its member ops.
    trace_event::TxnId fill_txn = trace_event::kNoTxn;
    auto member = ctx_.services.beginFillGroup(parent, line, fill_txn);
    const auto ref = core::LineRef::make(line, ctx_.geom);
    const InstallResult fill = installLine(ref);
    if (timed)
        ctx_.services.cacheOp(ref.set, fill.way, true, member(), false,
                              fill_txn);
    if (fill.victimDirty && timed)
        ctx_.services.nvmWrite(fill.victimLine, member(), fill_txn);
}

ACCORD_HOT DcpTarget
SetAssocOrg::dcpTarget(LineAddr line) const
{
    const auto ref = core::LineRef::make(line, ctx_.geom);
    const int way = ctx_.tags.findWay(ref.set, ref.tag);
    DcpTarget target;
    target.set = ref.set;
    target.way = way >= 0 ? static_cast<unsigned>(way) : 0;
    target.present = way >= 0;
    return target;
}

void
SetAssocOrg::auditRange(InvariantAuditor &auditor,
                        std::uint64_t firstSet,
                        std::uint64_t lastSet) const
{
    if (ctx_.policy) {
        auditPlacementRange(ctx_.tags, *ctx_.policy, auditor, firstSet,
                            lastSet);
        // Policy tables are global, not per-set; audit them once per
        // rotation instead of once per window.
        if (firstSet == 0)
            ctx_.policy->audit(auditor);
    }
}

void
SetAssocOrg::auditFull(InvariantAuditor &auditor) const
{
    if (ctx_.policy) {
        auditPlacement(ctx_.tags, *ctx_.policy, auditor);
        ctx_.policy->audit(auditor);
    }
}

std::uint64_t
SetAssocOrg::residentStateBytes() const
{
    return lru_stamps.residentBytes();
}

std::string
SetAssocOrg::describe() const
{
    if (ctx_.geom.ways == 1)
        return "direct-mapped";
    char buf[128];
    std::snprintf(buf, sizeof buf, "%u-way %s %s", ctx_.geom.ways,
                  ctx_.policy ? ctx_.policy->name().c_str() : "rand",
                  toToken(ctx_.params.lookup));
    return buf;
}

} // namespace accord::dramcache
