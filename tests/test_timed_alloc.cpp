/**
 * @file
 * The steady-state timed read path performs no heap allocation.
 *
 * Built as its own executable because it replaces the global
 * operator new/delete.  The counting versions forward to malloc/free,
 * so the sanitizer builds still see every allocation.
 *
 * Each case warms a small cache with timed reads and writebacks over
 * a fixed line list — hits, mispredicts, and misses that evict dirty
 * victims — until every store the path uses (transactions, device
 * queues, event nodes, tag pages) has reached its working size, then
 * counts allocations over a few thousand more operations on the same
 * lines.  Explicit line lists keep the traffic source out of the
 * measurement.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "controller_fixture.hpp"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

} // namespace

// noinline: GCC otherwise sees free() on a pointer from operator new
// at inlined call sites and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *block) noexcept
{
    std::free(block);
}

[[gnu::noinline]] void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace
{

using namespace accord;
using dramcache::LookupMode;
using dramcache::Organization;

/** Reads in flight per batch, like one core's MLP window. */
constexpr std::size_t kBatch = 8;

dramcache::DramCacheParams
allocParams(unsigned ways, LookupMode lookup, Organization org)
{
    dramcache::DramCacheParams params;
    params.capacityBytes = 1ULL << 20;
    params.ways = ways;
    params.org = org;
    params.lookup = lookup;
    params.seed = 99;
    // The periodic self-audit builds an auditor and a description
    // string; it is a checking aid, not part of the read path.
    params.auditInterval = 0;
    return params;
}

/**
 * One pass over `lines` in batches of kBatch timed reads, every third
 * line also written back (so later evictions have dirty victims),
 * each batch run to quiescence.  Returns the operations issued and
 * adds the completed reads to `completed`.
 */
std::uint64_t
pass(test::MiniSystem &sys, const std::vector<LineAddr> &lines,
     std::uint64_t &completed)
{
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        sys->read(lines[i], [&completed](bool, Cycle) { ++completed; });
        ++ops;
        if (i % 3 == 0) {
            sys->writeback(lines[i]);
            ++ops;
        }
        if ((i + 1) % kBatch == 0 || i + 1 == lines.size())
            sys.eq.run();
    }
    return ops;
}

/**
 * Warm up, then count the allocations of `rounds` further passes.
 * Returns them; also checks the traffic really mixed hits and misses.
 */
std::uint64_t
steadyStateAllocations(test::MiniSystem &sys,
                       const std::vector<LineAddr> &lines)
{
    constexpr unsigned kWarmRounds = 30;
    constexpr unsigned kRounds = 30;
    std::uint64_t completed = 0;
    for (unsigned r = 0; r < kWarmRounds; ++r)
        pass(sys, lines, completed);

    const auto &stats = sys->stats();
    const std::uint64_t hits_before = stats.readHits.hits();
    const std::uint64_t reads_before = stats.readHits.total();
    std::uint64_t ops = 0;
    g_allocations = 0;
    g_counting = true;
    for (unsigned r = 0; r < kRounds; ++r)
        ops += pass(sys, lines, completed);
    g_counting = false;

    EXPECT_EQ(completed, (kWarmRounds + kRounds) * lines.size());
    const std::uint64_t hits = stats.readHits.hits() - hits_before;
    const std::uint64_t reads = stats.readHits.total() - reads_before;
    EXPECT_GE(ops, 2000u);
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, reads);
    EXPECT_GT(sys.nvm.writes(), 0u);
    EXPECT_TRUE(sys->quiesced());
    return g_allocations.load();
}

/**
 * ways + 1 lines in each of 24 sets: every set overflows, and the
 * lines span more regions than a GWS table tracks, so some installs
 * leave their predicted way.
 */
std::vector<LineAddr>
conflictingLines(const test::MiniSystem &sys, unsigned ways)
{
    std::vector<LineAddr> lines;
    for (std::uint64_t tag = 1; tag <= ways + 1; ++tag) {
        for (std::uint64_t set = 0; set < 24; ++set)
            lines.push_back(sys.lineFor(set * 64, tag));
    }
    return lines;
}

TEST(TimedAlloc, ChainedPredictedPathAllocatesNothing)
{
    test::MiniSystem sys(
        allocParams(2, LookupMode::Predicted, Organization::SetAssoc),
        "pws+gws");
    const auto lines = conflictingLines(sys, 2);
    EXPECT_EQ(steadyStateAllocations(sys, lines), 0u);
    EXPECT_LT(sys->stats().wayPrediction.hits(),
              sys->stats().readHits.hits())
        << "no mispredicted hit exercised the chained re-probe";
}

TEST(TimedAlloc, SkewedWaySteeringPathAllocatesNothing)
{
    // SWS narrows each lookup and non-preferred install to a
    // tag-hashed candidate list, built on every read.
    test::MiniSystem sys(
        allocParams(8, LookupMode::Predicted, Organization::SetAssoc),
        "sws+gws");
    const auto lines = conflictingLines(sys, 8);
    EXPECT_EQ(steadyStateAllocations(sys, lines), 0u);
    EXPECT_LT(sys->stats().wayPrediction.hits(),
              sys->stats().readHits.hits())
        << "no mispredicted hit exercised the chained re-probe";
}

TEST(TimedAlloc, BroadsidePathAllocatesNothing)
{
    test::MiniSystem sys(
        allocParams(4, LookupMode::Parallel, Organization::SetAssoc),
        "");
    const auto lines = conflictingLines(sys, 4);
    EXPECT_EQ(steadyStateAllocations(sys, lines), 0u);
}

TEST(TimedAlloc, SinglePathAllocatesNothing)
{
    test::MiniSystem sys(
        allocParams(4, LookupMode::Ideal, Organization::SetAssoc), "");
    const auto lines = conflictingLines(sys, 4);
    EXPECT_EQ(steadyStateAllocations(sys, lines), 0u);
}

TEST(TimedAlloc, ColumnAssociativePathAllocatesNothing)
{
    test::MiniSystem sys(
        allocParams(1, LookupMode::Serial, Organization::ColumnAssoc),
        "");
    // Lines a, b, a, c per primary slot: the second a hits in the
    // pair slot and swaps, and b and c keep evicting each other.
    const std::uint64_t slots = sys->geometry().sets;
    std::vector<LineAddr> lines;
    for (const std::uint64_t k : {0, 1, 0, 2}) {
        for (std::uint64_t slot = 0; slot < 16; ++slot)
            lines.push_back(slot * 41 + k * slots);
    }
    EXPECT_EQ(steadyStateAllocations(sys, lines), 0u);
    EXPECT_GT(sys->stats().swaps.value(), 0u);
}

} // namespace
