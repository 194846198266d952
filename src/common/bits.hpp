/**
 * @file
 * Bit-manipulation helpers shared by address-mapping code.
 */

#ifndef ACCORD_COMMON_BITS_HPP
#define ACCORD_COMMON_BITS_HPP

#include <bit>
#include <cstdint>

namespace accord
{

/** Extract bits [lo, lo+width) of value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned lo, unsigned width)
{
    if (width >= 64)
        return value >> lo;
    return (value >> lo) & ((std::uint64_t{1} << width) - 1);
}

/** True iff value is a power of two (and non-zero). */
constexpr bool
isPow2(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Floor of log2; requires value > 0. */
constexpr unsigned
floorLog2(std::uint64_t value)
{
    return 63u - static_cast<unsigned>(std::countl_zero(value));
}

/**
 * Mix the bits of a 64-bit value (SplitMix64 finalizer).
 *
 * Used wherever a cheap, high-quality, stateless hash of an address is
 * needed (e.g. skew hashes, synthetic trace scrambling).
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace accord

#endif // ACCORD_COMMON_BITS_HPP
