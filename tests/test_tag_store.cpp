/** @file Unit tests for the DRAM-cache tag store. */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dramcache/tag_store.hpp"

using namespace accord;
using namespace accord::dramcache;

namespace
{

core::CacheGeometry
geom(unsigned ways, std::uint64_t sets = 64)
{
    core::CacheGeometry g;
    g.ways = ways;
    g.sets = sets;
    return g;
}

} // namespace

TEST(TagStore, StartsEmpty)
{
    TagStore tags(geom(2));
    EXPECT_EQ(tags.occupancy(), 0u);
    EXPECT_EQ(tags.findWay(0, 5), -1);
    EXPECT_FALSE(tags.valid(0, 0));
}

TEST(TagStore, InstallAndFind)
{
    TagStore tags(geom(2));
    const auto victim = tags.install(3, 1, 0x77, false);
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(tags.findWay(3, 0x77), 1);
    EXPECT_EQ(tags.occupancy(), 1u);
    EXPECT_FALSE(tags.dirty(3, 1));
}

TEST(TagStore, InstallReportsVictim)
{
    TagStore tags(geom(2));
    tags.install(3, 1, 0x77, true);
    const auto victim = tags.install(3, 1, 0x88, false);
    EXPECT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(victim.tag, 0x77u);
    EXPECT_EQ(tags.occupancy(), 1u);
}

TEST(TagStore, MarkDirty)
{
    TagStore tags(geom(2));
    tags.install(0, 0, 1, false);
    tags.markDirty(0, 0);
    EXPECT_TRUE(tags.dirty(0, 0));
}

TEST(TagStore, Invalidate)
{
    TagStore tags(geom(2));
    tags.install(0, 0, 1, false);
    tags.invalidate(0, 0);
    EXPECT_EQ(tags.findWay(0, 1), -1);
    EXPECT_EQ(tags.occupancy(), 0u);
    tags.invalidate(0, 0);      // idempotent
    EXPECT_EQ(tags.occupancy(), 0u);
}

TEST(TagStore, LineAtRoundTrip)
{
    const auto g = geom(4, 256);
    TagStore tags(g);
    const LineAddr line = 0xABCDE;
    const auto ref = core::LineRef::make(line, g);
    tags.install(ref.set, 2, ref.tag, false);
    EXPECT_EQ(tags.lineAt(ref.set, 2), line);
}

TEST(TagStore, WaysAreIndependent)
{
    TagStore tags(geom(4));
    for (unsigned way = 0; way < 4; ++way)
        tags.install(5, way, 100 + way, way % 2 == 1);
    for (unsigned way = 0; way < 4; ++way) {
        EXPECT_EQ(tags.findWay(5, 100 + way), static_cast<int>(way));
        EXPECT_EQ(tags.dirty(5, way), way % 2 == 1);
    }
    EXPECT_EQ(tags.occupancy(), 4u);
}

TEST(TagStore, SetsAreIndependent)
{
    TagStore tags(geom(1, 16));
    tags.install(3, 0, 9, false);
    EXPECT_EQ(tags.findWay(4, 9), -1);
}

TEST(TagStore, DirtyLineStillFound)
{
    TagStore tags(geom(4));
    tags.install(7, 2, 0x55, false);
    tags.markDirty(7, 2);
    tags.install(7, 3, 0x66, true);
    EXPECT_EQ(tags.findWay(7, 0x55), 2);
    EXPECT_EQ(tags.findWay(7, 0x66), 3);
    EXPECT_TRUE(tags.holds(7, 2, 0x55));
    EXPECT_TRUE(tags.holds(7, 3, 0x66));
    EXPECT_FALSE(tags.holds(7, 2, 0x66));
    EXPECT_FALSE(tags.holds(7, 0, 0));     // never-written slot
    EXPECT_EQ(tags.tag(7, 2), 0x55u);
}

TEST(TagStore, WidestTagRoundTrips)
{
    // One set: the tag is the whole line address.
    TagStore tags(geom(2, 1));
    const std::uint64_t widest =
        (std::uint64_t{1} << TagStore::kTagBits) - 1;
    EXPECT_FALSE(tags.install(0, 1, widest, true).valid);
    EXPECT_EQ(tags.findWay(0, widest), 1);
    EXPECT_EQ(tags.tag(0, 1), widest);
    EXPECT_TRUE(tags.valid(0, 1));
    EXPECT_TRUE(tags.dirty(0, 1));

    tags.invalidate(0, 1);
    EXPECT_EQ(tags.findWay(0, widest), -1);
    EXPECT_FALSE(tags.valid(0, 1));
    EXPECT_FALSE(tags.dirty(0, 1));
    EXPECT_EQ(tags.occupancy(), 0u);

    tags.install(0, 1, widest, false);
    EXPECT_FALSE(tags.dirty(0, 1));
    tags.markDirty(0, 1);
    EXPECT_EQ(tags.findWay(0, widest), 1);
    const auto victim = tags.install(0, 1, 0, false);
    EXPECT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(victim.tag, widest);
    EXPECT_EQ(tags.findWay(0, 0), 1);
    EXPECT_FALSE(tags.dirty(0, 1));
}

TEST(TagStore, TooWideProbeNeverAliases)
{
    // A tag with bits above the field would shift onto a resident
    // word; it must miss instead.
    TagStore tags(geom(1, 1));
    tags.install(0, 0, 0x9, true);
    const std::uint64_t alias =
        0x9 | (std::uint64_t{1} << TagStore::kTagBits);
    EXPECT_EQ(tags.findWay(0, alias), -1);
    EXPECT_FALSE(tags.holds(0, 0, alias));
    EXPECT_FALSE(tags.holds(0, 0, 0x9 | (std::uint64_t{3} << 62)));
    EXPECT_TRUE(tags.holds(0, 0, 0x9));
}

TEST(TagStoreDeath, TooWideTagFatal)
{
    const std::uint64_t wide = std::uint64_t{1} << TagStore::kTagBits;
    TagStore one_set(geom(2, 1));
    EXPECT_EXIT(one_set.install(0, 0, wide, false),
                ::testing::ExitedWithCode(1), "4000000000000000");
    // Column-associative shape: one way, full line addresses as tags.
    TagStore ca(geom(1, 1024));
    EXPECT_EXIT(ca.install(17, 0, wide | 17, true),
                ::testing::ExitedWithCode(1),
                "tag 4000000000000011 for set 17");
}

TEST(TagStoreDeath, MarkDirtyInvalidPanics)
{
    TagStore tags(geom(2));
    EXPECT_DEATH(tags.markDirty(0, 0), "invalid");
}

TEST(TagStoreDeath, OutOfRangeWayPanics)
{
    TagStore tags(geom(2));
    EXPECT_DEATH(tags.install(0, 2, 1, false), "out of range");
}

/** Property sweep over geometries: occupancy accounting is exact. */
class TagStoreGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(TagStoreGeometry, OccupancyExactUnderChurn)
{
    const auto [ways, set_bits] = GetParam();
    const auto g = geom(ways, 1ULL << set_bits);
    TagStore tags(g);
    Rng rng(5);
    std::uint64_t expected = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t set = rng.below(g.sets);
        const unsigned way = static_cast<unsigned>(rng.below(ways));
        if (rng.chance(0.8)) {
            const auto victim =
                tags.install(set, way, rng.next() & 0xffff, false);
            if (!victim.valid)
                ++expected;
        } else {
            if (tags.valid(set, way))
                --expected;
            tags.invalidate(set, way);
        }
        ASSERT_EQ(tags.occupancy(), expected);
    }
    EXPECT_LE(tags.occupancy(), g.lines());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagStoreGeometry,
    ::testing::Values(std::make_pair(1u, 4u), std::make_pair(2u, 6u),
                      std::make_pair(4u, 8u), std::make_pair(8u, 10u)));
