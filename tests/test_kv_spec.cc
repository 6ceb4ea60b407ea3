/**
 * @file
 * Tests for the one key=value grammar (sim/kv_spec.hh) and its value
 * readers, through every input that uses them: workload selectors,
 * power schedules and `triad:levels=N`. The death table feeds the same
 * malformed text to all three; each must die with a diagnostic that
 * names the input.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/power.hh"
#include "secpb/scheme.hh"
#include "sim/kv_spec.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"

using namespace secpb;

namespace
{

/** @p s with every POSIX extended-regex metacharacter escaped. */
std::string
literal(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::string(".^$|()[]{}*+?\\").find(c) != std::string::npos)
            out += '\\';
        out += c;
    }
    return out;
}

/** One grammar: how to wrap a pair list and what names it. */
struct Grammar
{
    const char *context;    ///< The diagnostic's name for the input.
    const char *prefix;     ///< Written before the pairs.
    const char *countKey;   ///< A key read as a count.
    const char *numberKey;  ///< A key read as a number.
    void (*parse)(const std::string &text);
};

const Grammar Grammars[] = {
    {"workload 'kv_wal'", "kv_wal:", "keys", "puts",
     [](const std::string &t) { makeWorkload(t, 1000, 1); }},
    {"power schedule", "", "cycles", "brownout",
     [](const std::string &t) { PowerScheduleSpec::parse(t); }},
    // levels is the scheme grammar's only key, and it is a count.
    {"scheme 'triad'", "triad:", "levels", "levels",
     [](const std::string &t) { parseSchemeSpec(t); }},
};

/** Replace each "K" in @p pattern with @p key. */
std::string
withKey(const std::string &pattern, const std::string &key)
{
    std::string out;
    for (char c : pattern)
        out += c == 'K' ? key : std::string(1, c);
    return out;
}

} // namespace

TEST(KvSpec, ParseKeepsNameAndPairsInOrder)
{
    KvSpec spec = KvSpec::parse("kv_wal:puts=0.8,keys=1024", "workload");
    EXPECT_EQ(spec.name, "kv_wal");
    ASSERT_EQ(spec.params.size(), 2u);
    EXPECT_EQ(spec.params[0].key, "puts");
    EXPECT_EQ(spec.params[0].value, "0.8");
    EXPECT_EQ(spec.params[1].key, "keys");
    EXPECT_EQ(spec.params[1].value, "1024");

    const KvSpec bare = KvSpec::parse("pstore", "workload");
    EXPECT_EQ(bare.name, "pstore");
    EXPECT_TRUE(bare.params.empty());

    // A bare pair list has no name; "" is the empty list.
    const KvSpec pairs = KvSpec::parsePairs("cycles=3", "power schedule");
    EXPECT_TRUE(pairs.name.empty());
    ASSERT_EQ(pairs.params.size(), 1u);
    EXPECT_TRUE(KvSpec::parsePairs("", "power schedule").params.empty());
}

TEST(KvSpec, SplitList)
{
    EXPECT_EQ(splitList("a,b,c", "list"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("one", "list"), (std::vector<std::string>{"one"}));
}

TEST(KvSpecDeath, SplitListRejectsEmptyItems)
{
    for (const char *text : {"", "a,,b", "a,", ",a"})
        EXPECT_EXIT(splitList(text, "bench: --scheme"),
                    ::testing::ExitedWithCode(1),
                    "bench: --scheme: empty entry in")
            << "'" << text << "'";
}

TEST(KvSpecDeath, MalformedTextDiesInEveryGrammar)
{
    setQuietLogging(true);
    struct Case
    {
        const char *pairs;  ///< "K" stands for the grammar's key.
        const char *why;    ///< The diagnostic after the input's name.
    };
    const Case grammar_cases[] = {
        {"K=2,K=3", "duplicate parameter 'K'"},
        {"K=2,,K=3", "empty entry in"},
        {"K=2,", "empty entry in"},
        {"K", "parameter 'K' is not key=value"},
        {"=2", "parameter '=2' is not key=value"},
        {"K=2,bogus=1", "unknown key 'bogus'"},
    };
    const char *const count_cases[] = {
        "-1", "+1", " 1", " 64", "1.5", "1e3", "0x40",
    };
    const char *const number_cases[] = {
        "nan", "inf", "0x1p-1", " 0.5", "-0.5", "1e999",
    };
    const char *not_a_count =
        ": not a decimal integer \\(must be plain non-negative digits\\)";

    for (const Grammar &g : Grammars) {
        auto expectDeath = [&g](const std::string &pairs,
                                const std::string &why) {
            const std::string text = g.prefix + pairs;
            EXPECT_EXIT(g.parse(text), ::testing::ExitedWithCode(1),
                        literal(g.context) + ": " + why)
                << "'" << text << "'";
        };
        for (const Case &c : grammar_cases)
            expectDeath(withKey(c.pairs, g.countKey),
                        literal(withKey(c.why, g.countKey)));
        // "parameter <key> '<value>'": the pair, and how it names it.
        auto value = [](const char *key, const std::string &v) {
            return std::make_pair(std::string(key) + "=" + v,
                                  "parameter " + std::string(key) + " '" +
                                      literal(v) + "'");
        };
        for (const char *v : count_cases) {
            const auto [pair, named] = value(g.countKey, v);
            expectDeath(pair, named + not_a_count);
        }
        // Past 2^64 - 1 no field can hold the count.
        const auto [huge, named] =
            value(g.countKey, "18446744073709551616");
        expectDeath(huge, named + ": out of range");
        for (const char *v : number_cases) {
            const auto [pair, named] = value(g.numberKey, v);
            const bool count = std::string(g.numberKey) == g.countKey;
            expectDeath(pair, named + (count ? not_a_count
                                             : ": not a finite non-negative "
                                               "decimal number"));
        }
    }
}

TEST(KvSpec, ValidSpellingsKeepTheirValues)
{
    const struct
    {
        const char *text;
        double value;
    } numbers[] = {
        {"0.5", 0.5}, {".5", 0.5}, {"5e-1", 0.5}, {"5E-1", 0.5},
        {"0.50", 0.5}, {"5.", 5.0}, {"1", 1.0}, {"0", 0.0},
    };
    for (const auto &n : numbers) {
        KvSpec kv = KvSpec::parsePairs(std::string("v=") + n.text, "t");
        EXPECT_EQ(kv.number("v", -1.0), n.value) << n.text;
        EXPECT_EQ(parseDecimalNumber("t", n.text), n.value) << n.text;
        if (n.value <= 1.0) {
            EXPECT_EQ(PowerScheduleSpec::parse(std::string("brownout=") +
                                               n.text)
                          .brownoutChance,
                      n.value)
                << n.text;
        }
    }

    const struct
    {
        const char *text;
        std::uint64_t value;
    } counts[] = {
        {"0", 0}, {"7", 7}, {"007", 7}, {"4294967295", 4294967295u},
        {"18446744073709551615", UINT64_MAX},
    };
    for (const auto &c : counts) {
        KvSpec kv = KvSpec::parsePairs(std::string("n=") + c.text, "t");
        EXPECT_EQ(kv.count<std::uint64_t>("n", 1), c.value) << c.text;
        EXPECT_EQ(parseDecimalU64("t", c.text), c.value) << c.text;
    }
    KvSpec narrow = KvSpec::parsePairs("n=4294967295", "t");
    EXPECT_EQ(narrow.count<unsigned>("n", 1), 4294967295u);

    EXPECT_EQ(PowerScheduleSpec::parse("min-instr=0010,max-instr=10")
                  .minInstructions,
              10u);
    SchemeParams params;
    EXPECT_EQ(parseSchemeSpec("triad:levels=064", &params), Scheme::Triad);
    EXPECT_EQ(params.triadLevels, 64u);
}

TEST(KvSpec, AbsentKeysFallBackAndFinishAcceptsReadKeys)
{
    KvSpec kv = KvSpec::parse("x:a=1,b=0.25,c=hello", "test");
    EXPECT_EQ(kv.count<unsigned>("a", 9), 1u);
    EXPECT_EQ(kv.count<unsigned>("absent", 9), 9u);
    EXPECT_EQ(kv.number("b", 2.0), 0.25);
    EXPECT_EQ(kv.number("absent", 2.0), 2.0);
    EXPECT_EQ(kv.text("c"), "hello");
    EXPECT_EQ(kv.text("absent"), "");
    EXPECT_TRUE(kv.has("a"));
    EXPECT_FALSE(kv.has("absent"));
    kv.finish();  // every key was read: nothing to reject
}
