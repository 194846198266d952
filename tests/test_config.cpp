/** @file Unit tests for the Config key/value table and parseSize. */

#include <gtest/gtest.h>

#include "common/config.hpp"

using namespace accord;

TEST(ParseSize, PlainDigits)
{
    bool ok = false;
    EXPECT_EQ(parseSize("1234", &ok), 1234u);
    EXPECT_TRUE(ok);
    // Exact above 2^53, where a double would round (to ...992).
    EXPECT_EQ(parseSize("9007199254740993", &ok), 9007199254740993ULL);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseSize("18446744073709551615", &ok), ~0ULL);
    EXPECT_TRUE(ok);
}

TEST(ParseSize, Suffixes)
{
    bool ok = false;
    EXPECT_EQ(parseSize("4k", &ok), 4096u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseSize("2M", &ok), 2ULL << 20);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseSize("4G", &ok), 4ULL << 30);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseSize("1T", &ok), 1ULL << 40);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseSize("16777215T", &ok), ~0ULL << 40);
    EXPECT_TRUE(ok);
}

TEST(ParseSize, HumanSuffixes)
{
    bool ok = false;
    EXPECT_EQ(parseSize("4GiB", &ok), 4ULL << 30);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseSize("256MB", &ok), 256ULL << 20);
    EXPECT_TRUE(ok);
}

TEST(ParseSize, FractionalBase)
{
    bool ok = false;
    EXPECT_EQ(parseSize("0.5k", &ok), 512u);
    EXPECT_TRUE(ok);
}

TEST(ParseSize, Malformed)
{
    bool ok = true;
    parseSize("abc", &ok);
    EXPECT_FALSE(ok);
    ok = true;
    parseSize("12Q", &ok);
    EXPECT_FALSE(ok);
    ok = true;
    parseSize("", &ok);
    EXPECT_FALSE(ok);
    // Values a uint64_t cannot hold: casting them is undefined.
    for (const char *text : {"-1", "nan", "inf", "1e30", "16777216T",
                             "18446744073709551616"}) {
        ok = true;
        parseSize(text, &ok);
        EXPECT_FALSE(ok) << text;
    }
}

TEST(Config, ParseArgAndGetters)
{
    Config c;
    EXPECT_TRUE(c.parseArg("alpha=3"));
    EXPECT_TRUE(c.parseArg("gamma=yes"));
    EXPECT_TRUE(c.parseArg("name=hello"));
    EXPECT_EQ(c.getUint("alpha", 0), 3u);
    EXPECT_TRUE(c.getBool("gamma", false));
    EXPECT_EQ(c.getString("name", ""), "hello");
}

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getUint("missing", 42), 42u);
    EXPECT_FALSE(c.getBool("missing", false));
    EXPECT_EQ(c.getString("missing", "d"), "d");
}

TEST(Config, MalformedArgRejected)
{
    Config c;
    EXPECT_FALSE(c.parseArg("noequals"));
    EXPECT_FALSE(c.parseArg("=value"));
}

TEST(Config, SizeSuffixInIntGetter)
{
    Config c;
    c.set("cap", "64M");
    EXPECT_EQ(c.getUint("cap", 0), 64ULL << 20);
}

TEST(Config, OverwriteKeepsLast)
{
    Config c;
    c.set("k", "1");
    c.set("k", "2");
    EXPECT_EQ(c.getUint("k", 0), 2u);
}

TEST(Config, HasReflectsExplicitKeys)
{
    Config c;
    EXPECT_FALSE(c.has("x"));
    c.set("x", "1");
    EXPECT_TRUE(c.has("x"));
}

TEST(ConfigDeath, UnconsumedKeyIsFatal)
{
    Config c;
    c.set("typo", "1");
    EXPECT_EXIT(c.checkConsumed(), ::testing::ExitedWithCode(1),
                "never used");
}

TEST(ConfigDeath, BadIntIsFatal)
{
    Config c;
    c.set("n", "xyz");
    EXPECT_EXIT(c.getUint("n", 0), ::testing::ExitedWithCode(1),
                "cannot parse");
}

TEST(ConfigDeath, BadBoolIsFatal)
{
    Config c;
    c.set("b", "maybe");
    EXPECT_EXIT(c.getBool("b", false), ::testing::ExitedWithCode(1),
                "cannot parse");
}

TEST(Config, CheckConsumedPassesWhenAllRead)
{
    Config c;
    c.set("a", "1");
    c.getUint("a", 0);
    c.checkConsumed();     // must not exit
}
