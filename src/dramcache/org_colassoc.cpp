#include "dramcache/org_colassoc.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"
#include "dramcache/audit.hpp"

namespace accord::dramcache
{

core::CacheGeometry
ColAssocOrg::geometryFor(const DramCacheParams &params)
{
    core::CacheGeometry geom;
    geom.ways = 1;
    geom.sets = params.capacityBytes / lineSize;
    if (!isPow2(geom.sets))
        fatal("dram cache: set count must be a power of two");
    return geom;
}

ColAssocOrg::ColAssocOrg(const OrgContext &ctx) : OrgStrategy(ctx)
{
    ACCORD_ASSERT(!ctx_.policy, "CA-cache does not take a way policy");
    ACCORD_ASSERT(ctx_.params.replacement == L4Replacement::Random,
                  "LRU ablation applies to set-associative mode");
    ACCORD_ASSERT(ctx_.geom.sets >= 2, "CA-cache needs >= 2 slots");
    ca_pair_mask = ctx_.geom.sets >> 1;
}

std::uint64_t
ColAssocOrg::primarySlot(LineAddr line) const
{
    return line & (ctx_.geom.sets - 1);
}

std::uint64_t
ColAssocOrg::pairSlot(std::uint64_t slot) const
{
    return slot ^ ca_pair_mask;
}

bool
ColAssocOrg::slotHolds(std::uint64_t slot, LineAddr line) const
{
    // CA mode stores full line addresses as tags.
    return ctx_.tags.holds(slot, 0, line);
}

void
ColAssocOrg::planRead(LineAddr line, AccessPlan &plan)
{
    const std::uint64_t primary = primarySlot(line);
    planCaLookup(line, primary, pairSlot(primary), plan);
}

void
ColAssocOrg::planDemandLocate(LineAddr line, AccessPlan &plan)
{
    // Same primary-then-pair sweep as a demand read.
    planRead(line, plan);
}

void
ColAssocOrg::afterReadHit(const HitContext &hit)
{
    if (hit.probeIndex == 0)
        return;
    // Swap-to-primary off the critical path.
    const std::uint64_t primary = primarySlot(hit.line);
    const std::uint64_t secondary = pairSlot(primary);
    swapSlots(primary, secondary);
    if (hit.timed) {
        ctx_.services.cacheOp(primary, 0, true, {}, false, hit.trace);
        ctx_.services.cacheOp(secondary, 0, true, {}, false, hit.trace);
    }
}

void
ColAssocOrg::swapSlots(std::uint64_t primary, std::uint64_t secondary)
{
    TagStore &tags = ctx_.tags;
    const bool p_valid = tags.valid(primary, 0);
    const bool s_valid = tags.valid(secondary, 0);
    const std::uint64_t p_line = p_valid ? tags.tag(primary, 0) : 0;
    const std::uint64_t s_line = s_valid ? tags.tag(secondary, 0) : 0;
    const bool p_dirty = p_valid && tags.dirty(primary, 0);
    const bool s_dirty = s_valid && tags.dirty(secondary, 0);

    if (s_valid)
        tags.install(primary, 0, s_line, s_dirty);
    else
        tags.invalidate(primary, 0);
    if (p_valid)
        tags.install(secondary, 0, p_line, p_dirty);
    else
        tags.invalidate(secondary, 0);

    // Both slots are rewritten: two line transfers.
    ctx_.stats.cacheWriteTransfers.inc(2);
    ctx_.stats.swaps.inc();
}

void
ColAssocOrg::installAfterMiss(LineAddr line, bool timed,
                              trace_event::TxnId parent)
{
    const std::uint64_t primary = primarySlot(line);
    const std::uint64_t secondary = pairSlot(primary);

    // The posted install is one Fill trace transaction spanning the
    // relocation write, any victim writeback, and the fill write.
    trace_event::TxnId fill_txn = trace_event::kNoTxn;
    auto member = ctx_.services.beginFillGroup(parent, line, fill_txn);

    // Two overlapping misses to one line can both reach the fill
    // path; the second fill writes the resident copy in place instead
    // of relocating it into the pair slot (a duplicate copy).
    if (const DcpTarget held = dcpTarget(line); held.present) {
        ctx_.stats.cacheWriteTransfers.inc();   // the fill write
        if (timed)
            ctx_.services.cacheOp(held.set, 0, true, member(), false,
                                  fill_txn);
        return;
    }

    // Displace the primary occupant to the secondary slot, evicting
    // whatever lived there; the new line always lands at primary.
    TagStore &tags = ctx_.tags;
    const bool old_valid = tags.valid(primary, 0);
    if (old_valid) {
        const std::uint64_t old_line = tags.tag(primary, 0);
        const bool old_dirty = tags.dirty(primary, 0);
        const TagStore::Victim evicted =
            tags.install(secondary, 0, old_line, old_dirty);
        ctx_.stats.cacheWriteTransfers.inc();   // the relocation write
        if (timed)
            ctx_.services.cacheOp(secondary, 0, true, member(), false,
                                  fill_txn);
        if (evicted.valid && evicted.dirty) {
            ctx_.stats.nvmWrites.inc();
            if (timed)
                ctx_.services.nvmWrite(evicted.tag, member(), fill_txn);
        }
    }

    tags.install(primary, 0, line, false);
    ctx_.stats.cacheWriteTransfers.inc();       // the fill write
    if (timed)
        ctx_.services.cacheOp(primary, 0, true, member(), false,
                              fill_txn);
}

DcpTarget
ColAssocOrg::dcpTarget(LineAddr line) const
{
    const std::uint64_t primary = primarySlot(line);
    DcpTarget target;
    for (const std::uint64_t slot : {primary, pairSlot(primary)}) {
        if (slotHolds(slot, line)) {
            target.set = slot;
            target.present = true;
            break;
        }
    }
    return target;
}

void
ColAssocOrg::auditRange(InvariantAuditor &auditor,
                        std::uint64_t firstSlot,
                        std::uint64_t lastSlot) const
{
    auditCaSlotRange(ctx_.tags, ca_pair_mask, auditor, firstSlot,
                     lastSlot);
}

std::string
ColAssocOrg::describe() const
{
    return "ca-cache";
}

} // namespace accord::dramcache
