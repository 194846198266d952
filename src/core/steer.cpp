#include "core/steer.hpp"

#include <cstdio>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace accord::core
{

unsigned
preferredWay(const LineRef &ref, unsigned ways)
{
    return static_cast<unsigned>(ref.tag & (ways - 1));
}

WayList
alternateWays(const LineRef &ref, unsigned ways, unsigned count)
{
    ACCORD_ASSERT(isPow2(ways) && ways >= 2 && ways <= WayList::kCapacity,
                  "ways must be pow2 in [2, 64]");
    ACCORD_ASSERT(count >= 1 && count < ways, "bad alternate count");

    const unsigned way_bits = floorLog2(ways);
    const unsigned preferred = preferredWay(ref, ways);

    WayList alts;

    // Scan way_bits-sized groups above the preferred-way group.
    for (unsigned lo = way_bits; lo + way_bits <= 64 && alts.size() < count;
         lo += way_bits) {
        const auto group =
            static_cast<unsigned>(bits(ref.tag, lo, way_bits));
        if (group != preferred && !alts.contains(group))
            alts.push_back(group);
    }

    // Rare case: not enough distinct groups in the tag; pad
    // deterministically with rotations of the preferred way.
    for (unsigned i = 1; alts.size() < count && i < ways; ++i) {
        const unsigned w = (preferred + i) & (ways - 1);
        if (!alts.contains(w))
            alts.push_back(w);
    }
    return alts;
}

UnbiasedPolicy::UnbiasedPolicy(const CacheGeometry &geom,
                               std::uint64_t seed)
    : WayPolicy(geom), rng(seed)
{
}

unsigned
UnbiasedPolicy::predict(const LineRef &)
{
    return static_cast<unsigned>(rng.below(geom_.ways));
}

unsigned
UnbiasedPolicy::install(const LineRef &)
{
    return static_cast<unsigned>(rng.below(geom_.ways));
}

PwsPolicy::PwsPolicy(const CacheGeometry &geom, double pip,
                     std::uint64_t seed)
    : WayPolicy(geom), pip_(pip), rng(seed)
{
    ACCORD_ASSERT(pip >= 0.0 && pip <= 1.0, "PIP must be a probability");
}

unsigned
PwsPolicy::predict(const LineRef &ref)
{
    return preferredWay(ref, geom_.ways);
}

unsigned
PwsPolicy::install(const LineRef &ref)
{
    const unsigned preferred = preferredWay(ref, geom_.ways);
    if (geom_.ways == 1 || rng.chance(pip_))
        return preferred;
    // Uniform over the other ways.
    const auto skip = rng.below(geom_.ways - 1);
    const unsigned way = static_cast<unsigned>(skip);
    return way >= preferred ? way + 1 : way;
}

std::string
PwsPolicy::name() const
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "pws%.0f", pip_ * 100.0);
    return buf;
}

SwsPolicy::SwsPolicy(const CacheGeometry &geom, unsigned k, double pip,
                     std::uint64_t seed)
    : WayPolicy(geom), k_(k), pip_(pip), rng(seed)
{
    ACCORD_ASSERT(k >= 2 && k <= geom.ways,
                  "SWS needs 2 <= k <= ways");
}

unsigned
SwsPolicy::predict(const LineRef &ref)
{
    return preferredWay(ref, geom_.ways);
}

unsigned
SwsPolicy::install(const LineRef &ref)
{
    const unsigned preferred = preferredWay(ref, geom_.ways);
    if (rng.chance(pip_))
        return preferred;
    const auto alts = alternateWays(ref, geom_.ways, k_ - 1);
    return alts[rng.below(alts.size())];
}

std::uint64_t
SwsPolicy::candidates(const LineRef &ref) const
{
    return (std::uint64_t{1} << preferredWay(ref, geom_.ways))
        | alternateWays(ref, geom_.ways, k_ - 1).mask();
}

std::string
SwsPolicy::name() const
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "sws(%u,%u)", geom_.ways, k_);
    return buf;
}

} // namespace accord::core
