/** @file Unit tests for the policy factory. */

#include <gtest/gtest.h>

#include "core/factory.hpp"

using namespace accord;
using namespace accord::core;

namespace
{

CacheGeometry
geom(unsigned ways)
{
    CacheGeometry g;
    g.ways = ways;
    g.sets = (16ULL << 20) / 64 / ways;
    return g;
}

} // namespace

TEST(Factory, BuildsEverySpec)
{
    for (const char *spec :
         {"rand", "pws", "gws", "pws+gws", "mru", "ptag", "perfect"}) {
        const auto policy = makePolicy(spec, geom(2));
        ASSERT_NE(policy, nullptr) << spec;
        EXPECT_EQ(policy->geometry().ways, 2u);
    }
    for (const char *spec : {"sws", "sws+gws"}) {
        const auto policy = makePolicy(spec, geom(8));
        ASSERT_NE(policy, nullptr) << spec;
    }
}

TEST(Factory, NamesAreStable)
{
    EXPECT_EQ(makePolicy("rand", geom(2))->name(), "rand");
    EXPECT_EQ(makePolicy("pws", geom(2))->name(), "pws85");
    EXPECT_EQ(makePolicy("gws", geom(2))->name(), "gws");
    EXPECT_EQ(makePolicy("pws+gws", geom(2))->name(), "pws85+gws");
    EXPECT_EQ(makePolicy("sws", geom(8))->name(), "sws(8,2)");
    EXPECT_EQ(makePolicy("sws+gws", geom(8))->name(), "sws(8,2)+gws");
    EXPECT_EQ(makePolicy("mru", geom(2))->name(), "mru");
    EXPECT_EQ(makePolicy("ptag", geom(2))->name(), "ptag");
    EXPECT_EQ(makePolicy("perfect", geom(2))->name(), "perfect");
}

TEST(Factory, OptionsArePassedThrough)
{
    PolicyOptions opts;
    opts.pip = 0.70;
    opts.swsK = 3;
    opts.gwsEntries = 16;
    EXPECT_EQ(makePolicy("pws", geom(2), opts)->name(), "pws70");
    EXPECT_EQ(makePolicy("sws", geom(8), opts)->name(), "sws(8,3)");
    // 2 tables x 16 entries x 21 bits.
    EXPECT_EQ(makePolicy("gws", geom(2), opts)->storageBits(),
              2u * 16u * 21u);
}

TEST(Factory, StorageBudgets)
{
    // ACCORD's full configuration stays within a few hundred bytes
    // while the conventional predictors blow up (paper Tables II/IX).
    EXPECT_EQ(makePolicy("pws", geom(2))->storageBits(), 0u);
    EXPECT_LE(makePolicy("pws+gws", geom(2))->storageBits() / 8, 340u);
    EXPECT_GT(makePolicy("mru", geom(2))->storageBits() / 8, 10000u);
    EXPECT_GT(makePolicy("ptag", geom(2))->storageBits() / 8, 100000u);
}

TEST(FactoryDeath, UnknownSpecIsFatal)
{
    EXPECT_EXIT(makePolicy("voodoo", geom(2)),
                ::testing::ExitedWithCode(1), "unknown way policy");
    // An SWS alternate count above the way count names the key.
    EXPECT_EXIT(makePolicy("sws(k=4)", geom(2)),
                ::testing::ExitedWithCode(1), "'k'");
    EXPECT_EXIT(makePolicy("sws+gws(k=16)", geom(8)),
                ::testing::ExitedWithCode(1), "'k'");
}
