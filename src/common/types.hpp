/**
 * @file
 * Fundamental simulator-wide types and constants.
 *
 * Everything in the simulator is expressed in terms of 64-byte cache
 * lines and CPU cycles.  Memory-side components convert to their own
 * clock domains internally (see dram/timing.hpp).
 */

#ifndef ACCORD_COMMON_TYPES_HPP
#define ACCORD_COMMON_TYPES_HPP

#include <cstdint>

/**
 * Hot-path purity annotation, enforced by tools/accord_analyzer.
 *
 * A function marked ACCORD_HOT must not (directly or one call level
 * deep) allocate on the heap, construct a std::function, materialize
 * a std::string, or make a virtual call on a base outside the
 * analyzer's allowlist (see docs/ANALYSIS.md for the rule catalog).
 * Both markers expand to nothing; the analyzer finds them by name.
 *
 * ACCORD_HOT_ALLOW(reason) is the function-level escape hatch: it
 * keeps the function in the hot set but suppresses purity findings
 * inside it, recording `reason`.  Prefer the line-level
 * `// accord-lint: allow(<rule>) <reason>` comment when only one
 * statement is exempt.
 */
#define ACCORD_HOT
#define ACCORD_HOT_ALLOW(reason)

namespace accord
{

/** Byte address in the physical address space. */
using Addr = std::uint64_t;

/** Address of a 64-byte line (byte address >> 6). */
using LineAddr = std::uint64_t;

/** Time in CPU cycles (3 GHz clock domain). */
using Cycle = std::uint64_t;

/** Invalid / not-present sentinel for cycles. */
inline constexpr Cycle invalidCycle = ~Cycle{0};

/** Cache line size used throughout the hierarchy (paper Section III-A). */
inline constexpr std::uint64_t lineSize = 64;
inline constexpr std::uint64_t lineShift = 6;

/** Region granularity used by Ganged Way-Steering (4 KB, Section IV-C2). */
inline constexpr std::uint64_t regionSize = 4096;
inline constexpr std::uint64_t regionShift = 12;

/** Lines per 4KB region. */
inline constexpr std::uint64_t linesPerRegion = regionSize / lineSize;

/** Convert a byte address to a line address. */
constexpr LineAddr
lineOf(Addr addr)
{
    return addr >> lineShift;
}

/** Convert a line address back to the byte address of its first byte. */
constexpr Addr
byteOf(LineAddr line)
{
    return line << lineShift;
}

/** Region id (4KB granularity) of a line address. */
constexpr std::uint64_t
regionOf(LineAddr line)
{
    return line >> (regionShift - lineShift);
}

} // namespace accord

#endif // ACCORD_COMMON_TYPES_HPP
