/**
 * @file
 * The pure lookup-decision core of the DRAM cache.
 *
 * Given a line, a tag-store view, the way policy, and the lookup mode,
 * planLookup() fills a caller-owned, side-effect-free AccessPlan:
 * which array slots to probe, in what order, with what issue shape,
 * and what each outcome costs in line transfers.  Both the untimed warm shell and
 * the timed transaction engine execute the SAME plan, so the
 * functional and timed paths cannot diverge by construction — the
 * drift the old duplicated `switch (params.lookup)` blocks allowed.
 *
 * This header owns the probe-count bound: every probe sequence fits in
 * kMaxWays steps, and geometries are validated against it at
 * construction instead of each caller re-declaring the magic array.
 */

#ifndef ACCORD_DRAMCACHE_ACCESS_PLAN_HPP
#define ACCORD_DRAMCACHE_ACCESS_PLAN_HPP

#include <array>
#include <cstdint>

#include "core/way_policy.hpp"
#include "dramcache/tag_store.hpp"

namespace accord::dramcache
{

enum class LookupMode;

/** Hard upper bound on probes per access (and ways per set). */
inline constexpr unsigned kMaxWays = 64;

/** How the probes of a plan go to the device. */
enum class IssueShape
{
    /** One probe at a time; each checks live tags before the next. */
    Chained,

    /** All probes issued at once; hit position fixed at issue. */
    Broadside,

    /** One magic probe resolves hit and miss alike (Ideal bound). */
    Single,
};

/**
 * One array slot a lookup may touch.  No member initializers: a plan
 * writes and reads only its first probeCount steps, so building one
 * never clears the whole probe array.
 */
struct ProbeStep
{
    /** Array set (a CA plan probes two different slots). */
    std::uint64_t set;

    /** Way within the set. */
    unsigned way;

    /** Tag value that means "hit" at this slot. */
    std::uint64_t matchTag;

    /** Way argument for trace points (CA reports the slot index). */
    unsigned traceWay;
};

/** Where a plan's probes found the line. */
struct HitLocation
{
    /** Probe index of the hit, or -1 when the line is absent. */
    int index = -1;

    /** Way holding the line (valid when index >= 0). */
    unsigned way = 0;
};

/**
 * A side-effect-free lookup decision: probe sequence plus the
 * transfer accounting both execution shells share.  Only the first
 * probeCount steps are meaningful; the planners set every field they
 * use, so one plan object can be refilled for each access.
 */
struct AccessPlan
{
    core::LineRef ref;
    IssueShape shape = IssueShape::Chained;
    std::array<ProbeStep, kMaxWays> probes;
    unsigned probeCount = 0;

    /** Line transfers a hit at probe index `index` costs. */
    unsigned
    hitTransfers(unsigned index) const
    {
        switch (shape) {
          case IssueShape::Broadside: return probeCount;
          case IssueShape::Single: return 1;
          case IssueShape::Chained: break;
        }
        return index + 1;
    }

    /** Line transfers a miss costs (full confirmation sweep). */
    unsigned
    missTransfers() const
    {
        return shape == IssueShape::Single ? 1 : probeCount;
    }

    /** Whether a hit at probe index `index` counts as predicted. */
    static bool
    predictedAt(unsigned index)
    {
        return index == 0;
    }
};

/** True when the tag store currently holds the step's line. */
inline bool
stepHits(const ProbeStep &step, const TagStore &tags)
{
    return tags.holds(step.set, step.way, step.matchTag);
}

/**
 * Resolve a plan against the current tag state.  Chained and
 * Broadside plans scan their probe sequence; a Single plan consults
 * the tag store directly (the magic probe sees the whole set).
 */
HitLocation resolve(const AccessPlan &plan, const TagStore &tags);

/**
 * Plan a set-associative lookup into `plan`: probe order (predicted
 * way first, then the remaining policy candidates) plus the issue
 * shape and transfer accounting of `mode`.  This function is the ONE
 * place that dispatches on LookupMode.
 */
void planLookup(const core::LineRef &ref, core::WayPolicy *policy,
                const core::CacheGeometry &geom, LookupMode mode,
                AccessPlan &plan);

/**
 * Plan a set-associative locate sweep (writeback routing without DCP
 * way bits) into `plan`: always chained over the full candidate
 * order, regardless of the demand-lookup mode.
 */
void planLocate(const core::LineRef &ref, core::WayPolicy *policy,
                const core::CacheGeometry &geom, AccessPlan &plan);

/**
 * Plan a column-associative lookup into `plan`: primary slot then its
 * pair slot, chained, with full line addresses as match tags.
 */
void planCaLookup(LineAddr line, std::uint64_t primary,
                  std::uint64_t secondary, AccessPlan &plan);

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_ACCESS_PLAN_HPP
