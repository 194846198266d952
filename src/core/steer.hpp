/**
 * @file
 * Stateless way-steering policies: unbiased random, Probabilistic
 * Way-Steering (PWS, Section IV-B), and Skewed Way-Steering (SWS,
 * Section V-A).
 *
 * All three derive the preferred way from the line's tag, so prediction
 * needs no storage at all; only the install bias differs.
 */

#ifndef ACCORD_CORE_STEER_HPP
#define ACCORD_CORE_STEER_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "core/way_policy.hpp"

namespace accord::core
{

/** Preferred way of a line: the low log2(ways) bits of its tag. */
unsigned preferredWay(const LineRef &ref, unsigned ways);

/**
 * Up to 64 distinct ways in insertion order, held inline so building
 * one never allocates.  The mask mirrors the members for O(1)
 * membership tests.
 */
class WayList
{
  public:
    static constexpr unsigned kCapacity = 64;

    void
    push_back(unsigned way)
    {
        ways_[size_++] = static_cast<std::uint8_t>(way);
        mask_ |= std::uint64_t{1} << way;
    }

    bool contains(unsigned way) const { return (mask_ >> way) & 1; }

    /** Bit w set for every member way w. */
    std::uint64_t mask() const { return mask_; }

    std::size_t size() const { return size_; }
    unsigned operator[](std::size_t i) const { return ways_[i]; }
    const std::uint8_t *begin() const { return ways_.data(); }
    const std::uint8_t *end() const { return ways_.data() + size_; }

    friend bool
    operator==(const WayList &a, const WayList &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<std::uint8_t, kCapacity> ways_{};
    std::size_t size_ = 0;
    std::uint64_t mask_ = 0;
};

/**
 * Alternate ways of a line under SWS.
 *
 * Scans log2(ways)-bit groups of the tag from above the preferred-way
 * group toward the MSB; the first `count` distinct values that differ
 * from the preferred way are the alternates.  If the tag runs out of
 * differing groups, the list is padded with (preferred + i) mod ways,
 * so an alternate always exists and never equals the preferred way.
 */
WayList alternateWays(const LineRef &ref, unsigned ways, unsigned count);

/**
 * Baseline conventional install: victim way chosen uniformly at random
 * (update-free random replacement), prediction uniformly random.
 */
class UnbiasedPolicy : public WayPolicy
{
  public:
    UnbiasedPolicy(const CacheGeometry &geom, std::uint64_t seed);

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    std::string name() const override { return "rand"; }

  private:
    Rng rng;
};

/**
 * Probabilistic Way-Steering.
 *
 * Installs into the preferred way with probability PIP (default 0.85),
 * else uniformly into one of the other ways; predicts the preferred
 * way.  PIP=1/ways reproduces unbiased random; PIP=1.0 degenerates into
 * a direct-mapped cache (Section IV-B).
 */
class PwsPolicy : public WayPolicy
{
  public:
    PwsPolicy(const CacheGeometry &geom, double pip, std::uint64_t seed);

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    std::string name() const override;

    double pip() const { return pip_; }

  private:
    double pip_;
    Rng rng;
};

/**
 * Skewed Way-Steering: SWS(N, k).
 *
 * Each line may live in its preferred way or one of (k-1) tag-hashed
 * alternates, so miss confirmation costs k probes instead of N.
 * Within the candidate set the install is PWS-biased toward the
 * preferred way.
 */
class SwsPolicy : public WayPolicy
{
  public:
    SwsPolicy(const CacheGeometry &geom, unsigned k, double pip,
              std::uint64_t seed);

    unsigned predict(const LineRef &ref) override;
    unsigned install(const LineRef &ref) override;
    std::uint64_t candidates(const LineRef &ref) const override;
    std::string name() const override;

    unsigned k() const { return k_; }

  private:
    unsigned k_;
    double pip_;
    Rng rng;
};

} // namespace accord::core

#endif // ACCORD_CORE_STEER_HPP
