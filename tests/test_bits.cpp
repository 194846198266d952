/** @file Unit tests for common/bits.hpp. */

#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/types.hpp"

using namespace accord;

TEST(Bits, ExtractBasic)
{
    EXPECT_EQ(bits(0xABCDULL, 0, 4), 0xDu);
    EXPECT_EQ(bits(0xABCDULL, 4, 4), 0xCu);
    EXPECT_EQ(bits(0xABCDULL, 8, 8), 0xABu);
    EXPECT_EQ(bits(0xABCDULL, 0, 16), 0xABCDu);
}

TEST(Bits, ExtractZeroWidth)
{
    EXPECT_EQ(bits(0xFFFFULL, 3, 0), 0u);
}

TEST(Bits, ExtractFullWidth)
{
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
    EXPECT_EQ(bits(~0ULL, 1, 64), ~0ULL >> 1);
}

TEST(Bits, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ULL << 40));
    EXPECT_FALSE(isPow2((1ULL << 40) + 1));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1ULL << 63), 63u);
}

TEST(Bits, Mix64Deterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(Bits, Mix64SpreadsLowBits)
{
    // Consecutive inputs should not produce consecutive outputs.
    int same_low_byte = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
        if ((mix64(i) & 0xff) == (mix64(i + 1) & 0xff))
            ++same_low_byte;
    }
    EXPECT_LT(same_low_byte, 16);
}

/** Property sweep: floorLog2 across powers of two and neighbours. */
class Log2Property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Log2Property, PowerOfTwoRoundTrip)
{
    const unsigned shift = GetParam();
    const std::uint64_t value = 1ULL << shift;
    EXPECT_EQ(floorLog2(value), shift);
    if (shift > 1) {
        EXPECT_EQ(floorLog2(value + 1), shift);
        EXPECT_EQ(floorLog2(value - 1), shift - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(AllShifts, Log2Property,
                         ::testing::Values(1u, 2u, 3u, 7u, 12u, 20u,
                                           31u, 32u, 47u, 62u));

TEST(Types, LineAndRegionConversions)
{
    const Addr addr = 0x12345678;
    EXPECT_EQ(lineOf(addr), addr >> 6);
    EXPECT_EQ(byteOf(lineOf(addr)), addr & ~0x3fULL);
    EXPECT_EQ(regionOf(lineOf(addr)), addr >> 12);
    EXPECT_EQ(linesPerRegion, 64u);
}
