#include "dramcache/access_plan.hpp"

#include <bit>

#include "common/log.hpp"
#include "dramcache/enums.hpp"

namespace accord::dramcache
{

namespace
{

/**
 * Candidate probe order for a set-associative line: the predicted way
 * first, then the remaining candidate ways ascending.
 */
unsigned
probeOrder(const core::LineRef &ref, core::WayPolicy *policy,
           const core::CacheGeometry &geom,
           std::array<unsigned, kMaxWays> &order)
{
    if (geom.ways == 1) {
        order[0] = 0;
        return 1;
    }

    std::uint64_t mask =
        policy ? policy->candidates(ref) : geom.allWaysMask();
    unsigned first;
    if (policy) {
        first = policy->predict(ref);
        if (!(mask & (std::uint64_t{1} << first))) {
            // A prediction outside the candidate set cannot be probed;
            // fall back to the lowest candidate.
            first = static_cast<unsigned>(std::countr_zero(mask));
        }
    } else {
        first = static_cast<unsigned>(std::countr_zero(mask));
    }

    unsigned count = 0;
    order[count++] = first;
    mask &= ~(std::uint64_t{1} << first);
    while (mask != 0) {
        const unsigned way =
            static_cast<unsigned>(std::countr_zero(mask));
        order[count++] = way;
        mask &= mask - 1;
    }
    return count;
}

/** Fill a set-associative plan's probe steps from a way order. */
void
fillSteps(AccessPlan &plan, const std::array<unsigned, kMaxWays> &order,
          unsigned count)
{
    plan.probeCount = count;
    for (unsigned i = 0; i < count; ++i) {
        plan.probes[i].set = plan.ref.set;
        plan.probes[i].way = order[i];
        plan.probes[i].matchTag = plan.ref.tag;
        plan.probes[i].traceWay = order[i];
    }
}

} // namespace

HitLocation
resolve(const AccessPlan &plan, const TagStore &tags)
{
    HitLocation loc;
    if (plan.shape == IssueShape::Single) {
        // The magic probe sees the whole set, wherever the line sits.
        const int way = tags.findWay(plan.ref.set, plan.ref.tag);
        if (way >= 0) {
            loc.index = 0;
            loc.way = static_cast<unsigned>(way);
        }
        return loc;
    }
    for (unsigned i = 0; i < plan.probeCount; ++i) {
        if (stepHits(plan.probes[i], tags)) {
            loc.index = static_cast<int>(i);
            loc.way = plan.probes[i].way;
            return loc;
        }
    }
    return loc;
}

void
planLookup(const core::LineRef &ref, core::WayPolicy *policy,
           const core::CacheGeometry &geom, LookupMode mode,
           AccessPlan &plan)
{
    ACCORD_ASSERT(geom.ways <= kMaxWays,
                  "geometry exceeds the plan-core way bound");
    plan.ref = ref;

    std::array<unsigned, kMaxWays> order;
    const unsigned count = probeOrder(ref, policy, geom, order);

    switch (mode) {
      case LookupMode::Serial:
      case LookupMode::Predicted:
        // Both probe one way at a time in candidate order; Predicted
        // differs only in how the policy picked the first way.
        plan.shape = IssueShape::Chained;
        fillSteps(plan, order, count);
        break;
      case LookupMode::Parallel:
        plan.shape = IssueShape::Broadside;
        fillSteps(plan, order, count);
        break;
      case LookupMode::Ideal:
        plan.shape = IssueShape::Single;
        plan.probeCount = 1;
        plan.probes[0].set = ref.set;
        plan.probes[0].way = 0;
        plan.probes[0].matchTag = ref.tag;
        plan.probes[0].traceWay = 0;
        break;
    }
}

void
planLocate(const core::LineRef &ref, core::WayPolicy *policy,
           const core::CacheGeometry &geom, AccessPlan &plan)
{
    ACCORD_ASSERT(geom.ways <= kMaxWays,
                  "geometry exceeds the plan-core way bound");
    plan.ref = ref;
    plan.shape = IssueShape::Chained;
    std::array<unsigned, kMaxWays> order;
    const unsigned count = probeOrder(ref, policy, geom, order);
    fillSteps(plan, order, count);
}

void
planCaLookup(LineAddr line, std::uint64_t primary,
             std::uint64_t secondary, AccessPlan &plan)
{
    // CA slots index a ways==1 geometry: set = slot, tag = full line.
    plan.ref.line = line;
    plan.ref.set = primary;
    plan.ref.tag = line;
    plan.shape = IssueShape::Chained;
    plan.probeCount = 2;
    plan.probes[0] = {primary, 0, line, 0};
    plan.probes[1] = {secondary, 0, line, 1};
}

} // namespace accord::dramcache
