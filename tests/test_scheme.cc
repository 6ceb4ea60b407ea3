/**
 * @file
 * Unit tests for the scheme definitions: traits encode Table II exactly,
 * names round-trip, and the early/late split is monotone across the
 * spectrum.
 */

#include <gtest/gtest.h>

#include "secpb/scheme.hh"

using namespace secpb;

TEST(Scheme, TraitsMatchTableII)
{
    // COBCM: only data write early.
    const SchemeTraits cobcm = schemeTraits(Scheme::Cobcm);
    EXPECT_TRUE(cobcm.secure);
    EXPECT_FALSE(cobcm.earlyCounter);
    EXPECT_FALSE(cobcm.earlyOtp);
    EXPECT_FALSE(cobcm.earlyBmt);
    EXPECT_FALSE(cobcm.earlyCiphertext);
    EXPECT_FALSE(cobcm.earlyMac);

    // OBCM: update counter.
    EXPECT_TRUE(schemeTraits(Scheme::Obcm).earlyCounter);
    EXPECT_FALSE(schemeTraits(Scheme::Obcm).earlyOtp);

    // BCM: counter + OTP.
    EXPECT_TRUE(schemeTraits(Scheme::Bcm).earlyOtp);
    EXPECT_FALSE(schemeTraits(Scheme::Bcm).earlyBmt);

    // CM: counter + OTP + BMT root.
    EXPECT_TRUE(schemeTraits(Scheme::Cm).earlyBmt);
    EXPECT_FALSE(schemeTraits(Scheme::Cm).earlyCiphertext);

    // M: everything but the MAC.
    EXPECT_TRUE(schemeTraits(Scheme::M).earlyCiphertext);
    EXPECT_FALSE(schemeTraits(Scheme::M).earlyMac);

    // NoGap: everything.
    EXPECT_TRUE(schemeTraits(Scheme::NoGap).earlyMac);

    // BBB: no security at all.
    EXPECT_FALSE(schemeTraits(Scheme::Bbb).secure);
}

TEST(Scheme, LazinessIsMonotone)
{
    // Walking the spectrum from COBCM to NoGap only ever turns early
    // bits ON (this is what makes it a spectrum).
    const Scheme order[] = {Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm,
                            Scheme::Cm, Scheme::M, Scheme::NoGap};
    auto count_early = [](Scheme s) {
        const SchemeTraits t = schemeTraits(s);
        return int(t.earlyCounter) + int(t.earlyOtp) + int(t.earlyBmt) +
               int(t.earlyCiphertext) + int(t.earlyMac);
    };
    for (unsigned i = 0; i + 1 < std::size(order); ++i)
        EXPECT_EQ(count_early(order[i]) + 1, count_early(order[i + 1]));
}

TEST(Scheme, DependencyOrderRespected)
{
    // The dependency graph (Fig. 4): anything early implies everything
    // it depends on is early. OTP needs the counter; ciphertext needs
    // the OTP; MAC needs the ciphertext; BMT needs the counter.
    for (Scheme s : {Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm, Scheme::Cm,
                     Scheme::M, Scheme::NoGap}) {
        const SchemeTraits t = schemeTraits(s);
        if (t.earlyOtp) {
            EXPECT_TRUE(t.earlyCounter) << schemeName(s);
        }
        if (t.earlyBmt) {
            EXPECT_TRUE(t.earlyCounter) << schemeName(s);
        }
        if (t.earlyCiphertext) {
            EXPECT_TRUE(t.earlyOtp) << schemeName(s);
        }
        if (t.earlyMac) {
            EXPECT_TRUE(t.earlyCiphertext) << schemeName(s);
        }
    }
}

TEST(Scheme, OnlySecWtSkipsCoalescing)
{
    for (Scheme s : {Scheme::Bbb, Scheme::Cobcm, Scheme::Obcm, Scheme::Bcm,
                     Scheme::Cm, Scheme::M, Scheme::NoGap})
        EXPECT_TRUE(schemeTraits(s).coalesceValueIndependent)
            << schemeName(s);
    EXPECT_FALSE(schemeTraits(Scheme::SecWt).coalesceValueIndependent);
}

TEST(Scheme, NamesRoundTrip)
{
    for (const SchemeTraits &row : SchemeTable) {
        EXPECT_EQ(parseScheme(row.name), row.scheme);
        EXPECT_STREQ(schemeName(row.scheme), row.name);
    }
    ASSERT_EQ(std::size(SchemeTable), 13u);
}

TEST(Scheme, NamesAreCanonicalLowercase)
{
    for (const SchemeTraits &row : SchemeTable) {
        const std::string name = row.name;
        for (char c : name)
            EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)))
                << name;
    }
}

TEST(SchemeDeath, LegacySpellingIsFatal)
{
    // Only canonical names parse; the diagnostic lists every one.
    EXPECT_DEATH(parseScheme("COBCM"),
                 "unknown scheme name 'COBCM' \\(valid: " +
                     allSchemeNames());
}

TEST(Scheme, ParseTriadLevelsSpec)
{
    SchemeParams params;
    EXPECT_EQ(parseSchemeSpec("triad:levels=3", &params), Scheme::Triad);
    EXPECT_EQ(params.triadLevels, 3u);
    EXPECT_EQ(schemeSpecName(Scheme::Triad, params), "triad:levels=3");
    EXPECT_EQ(schemeSpecName(Scheme::Cobcm, params), "cobcm");

    // Bare "triad" keeps the default.
    SchemeParams def;
    EXPECT_EQ(parseSchemeSpec("triad", &def), Scheme::Triad);
    EXPECT_EQ(def.triadLevels, 2u);
}

TEST(Scheme, BadSpecsAreFatal)
{
    EXPECT_DEATH(parseScheme("banana"), "unknown scheme");
    EXPECT_DEATH(parseSchemeSpec("cobcm:levels=2"), "takes no parameters");
    EXPECT_DEATH(parseSchemeSpec("triad:levels=0"), "triad level");
    EXPECT_DEATH(parseSchemeSpec("triad:levels=+3"), "triad level");
    EXPECT_DEATH(parseSchemeSpec("triad:levels= 3"), "triad level");
    EXPECT_DEATH(parseSchemeSpec("triad:depth=2"), "bad triad spec");
}

TEST(Scheme, ZooTraits)
{
    // SecPM: lazy BMT only; the counter persists with the data.
    const SchemeTraits secpm = schemeTraits(Scheme::Secpm);
    EXPECT_TRUE(secpm.secure);
    EXPECT_TRUE(secpm.earlyCounter);
    EXPECT_FALSE(secpm.earlyBmt);
    EXPECT_TRUE(secpm.earlyMac);

    // Triad: BCM-like runtime split.
    EXPECT_EQ(schemeTraits(Scheme::Triad).earlyOtp,
              schemeTraits(Scheme::Bcm).earlyOtp);
    EXPECT_FALSE(schemeTraits(Scheme::Triad).earlyBmt);

    // eADR: COBCM-lazy runtime.
    const SchemeTraits eadr = schemeTraits(Scheme::Eadr);
    EXPECT_TRUE(eadr.secure);
    EXPECT_FALSE(eadr.earlyCounter);
    EXPECT_FALSE(eadr.earlyMac);

    // Stream: NoGap-eager tuple.
    const SchemeTraits stream = schemeTraits(Scheme::Stream);
    EXPECT_TRUE(stream.earlyBmt);
    EXPECT_TRUE(stream.earlyMac);
    EXPECT_TRUE(stream.coalesceValueIndependent);
}

TEST(Scheme, SweepListCoversAllSixLaziestFirst)
{
    ASSERT_EQ(std::size(SecPbSchemes), 6u);
    EXPECT_EQ(SecPbSchemes[0], Scheme::Cobcm);
    EXPECT_EQ(SecPbSchemes[5], Scheme::NoGap);
}

TEST(Scheme, ZooExtendsTheSixWithRelatedWork)
{
    ASSERT_EQ(std::size(SchemeZoo), 10u);
    // Prefix is exactly the paper's six, same order.
    for (unsigned i = 0; i < std::size(SecPbSchemes); ++i)
        EXPECT_EQ(SchemeZoo[i], SecPbSchemes[i]);
    EXPECT_EQ(SchemeZoo[6], Scheme::Secpm);
    EXPECT_EQ(SchemeZoo[7], Scheme::Triad);
    EXPECT_EQ(SchemeZoo[8], Scheme::Eadr);
    EXPECT_EQ(SchemeZoo[9], Scheme::Stream);
    // Every zoo scheme is secure (the zoo sweeps the recovery verifier).
    for (Scheme s : SchemeZoo)
        EXPECT_TRUE(schemeTraits(s).secure) << schemeName(s);
}

TEST(Scheme, EachMechanicsColumnBelongsToOneZooRow)
{
    // The related-work designs differ from the paper's six in exactly one
    // mechanics column each; no other row turns it on.
    const struct
    {
        bool SchemeTraits::*column;
        Scheme owner;
    } columns[] = {
        {&SchemeTraits::wpqPersistDomain, Scheme::Sp},
        {&SchemeTraits::counterWriteThrough, Scheme::Secpm},
        {&SchemeTraits::partialBmtPersist, Scheme::Triad},
        {&SchemeTraits::flushesHierarchy, Scheme::Eadr},
        {&SchemeTraits::streamlinedIssue, Scheme::Stream},
    };
    for (const auto &c : columns)
        for (const SchemeTraits &row : SchemeTable)
            EXPECT_EQ(row.*c.column, row.scheme == c.owner) << row.name;
}
