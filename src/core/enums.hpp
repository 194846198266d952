/**
 * @file
 * Core-side request vocabulary and its canonical string tokens.
 *
 * Mirrors dramcache/enums.hpp for the traffic layer: the request-kind
 * tokens here are the single source of truth for every enum <-> string
 * rendering a TrafficSource or run report performs (describe()
 * strings, canonical source specs, the text-trace converter contract),
 * so a new kind added here is automatically spelled the same
 * everywhere.
 */

#ifndef ACCORD_CORE_ENUMS_HPP
#define ACCORD_CORE_ENUMS_HPP

#include <cstdint>

namespace accord::core
{

/** What a traffic-stream record asks of the DRAM cache. */
enum class RequestKind : std::uint8_t
{
    Demand,     ///< demand read (post-L3 miss reaching the L4)
    Writeback,  ///< dirty eviction from the level above
};

/** Canonical token ("demand", "writeback"). */
const char *toToken(RequestKind kind);

} // namespace accord::core

#endif // ACCORD_CORE_ENUMS_HPP
