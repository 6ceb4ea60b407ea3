/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "stats/json.hh"
#include "stats/stats.hh"

using namespace secpb;

TEST(Stats, ScalarAccumulates)
{
    StatGroup g("g");
    Scalar s(g, "s", "a scalar");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s = 10.0;
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
}

TEST(Stats, AverageComputesMean)
{
    StatGroup g("g");
    Average a(g, "a", "an average");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, GroupFullNameNests)
{
    StatGroup parent("system");
    StatGroup child("cache", &parent);
    EXPECT_EQ(child.fullName(), "system.cache");
}

TEST(Stats, DumpContainsAllStats)
{
    StatGroup parent("sys");
    StatGroup child("sub", &parent);
    Scalar s1(parent, "top_counter", "top");
    Scalar s2(child, "sub_counter", "sub");
    s1 += 7;
    s2 += 9;
    std::ostringstream os;
    parent.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("sys.top_counter"), std::string::npos);
    EXPECT_NE(text.find("sys.sub.sub_counter"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);
    EXPECT_NE(text.find("9"), std::string::npos);
}

TEST(Stats, FindLocatesByName)
{
    StatGroup g("g");
    Scalar s(g, "needle", "");
    EXPECT_EQ(g.find("needle"), &s);
    EXPECT_EQ(g.find("missing"), nullptr);
}

TEST(Stats, AverageWithZeroSamplesIsZeroNotNan)
{
    StatGroup g("g");
    Average a(g, "a", "");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    for (const auto &[suffix, value] : a.jsonFields())
        EXPECT_FALSE(std::isnan(value)) << suffix;
}

TEST(Stats, NanAndInfSerializeAsJsonNull)
{
    StatGroup g("g");
    Scalar nan_stat(g, "nan_stat", "");
    Scalar inf_stat(g, "inf_stat", "");
    nan_stat = std::numeric_limits<double>::quiet_NaN();
    inf_stat = std::numeric_limits<double>::infinity();

    std::ostringstream js;
    JsonWriter w(js, /*pretty=*/false);
    g.toJson(w);
    // JSON has no NaN/Infinity literal; both become null, keeping the
    // document parseable by any strict reader.
    EXPECT_EQ(js.str(), "{\"g.nan_stat\": null,\"g.inf_stat\": null}");
}

TEST(Stats, VisitStatsWalksTreeInRegistrationOrder)
{
    StatGroup root("sys");
    StatGroup child("secpb", &root);
    StatGroup grandchild("mdc", &child);
    Scalar s1(root, "a", "");
    Scalar s2(child, "b", "");
    Scalar s3(grandchild, "c", "");

    std::vector<std::string> seen;
    root.visitStats([&](const std::string &prefix, const StatBase &stat) {
        seen.push_back(prefix + stat.name());
    });
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "sys.a", "sys.secpb.b", "sys.secpb.mdc.c"}));
}

TEST(Stats, ToJsonEmitsFlatDottedObject)
{
    StatGroup root("sys");
    StatGroup child("sub", &root);
    Scalar s1(root, "x", "");
    Average a(child, "lat", "");
    s1 += 2;
    a.sample(4.0);
    a.sample(8.0);

    std::ostringstream ss;
    JsonWriter w(ss, /*pretty=*/false);
    root.toJson(w);
    EXPECT_EQ(ss.str(),
              "{\"sys.x\": 2,"
              "\"sys.sub.lat.mean\": 6,"
              "\"sys.sub.lat.count\": 2}");
}

TEST(Stats, FindByPathWalksChildGroups)
{
    StatGroup root("sys");
    StatGroup cores("cores0", &root);
    StatGroup sb("store_buffer", &cores);
    Scalar stalls(sb, "stalls", "");
    EXPECT_EQ(root.findByPath("cores0.store_buffer.stalls"), &stalls);
    EXPECT_EQ(root.findByPath("cores0.store_buffer.missing"), nullptr);
    EXPECT_EQ(root.findByPath("nonesuch.stalls"), nullptr);
    EXPECT_EQ(root.findByPath(""), nullptr);
    // Single-segment paths fall back to a direct stat lookup.
    Scalar direct(root, "direct", "");
    EXPECT_EQ(root.findByPath("direct"), &direct);
}

TEST(Stats, DestroyedMiddleChildLeavesEveryView)
{
    StatGroup root("sys");
    StatGroup first("a", &root);
    Scalar x(first, "x", "");
    auto middle = std::make_unique<StatGroup>("b", &root);
    Scalar y(*middle, "y", "");
    StatGroup last("c", &root);
    Scalar z(last, "z", "");
    ASSERT_EQ(root.findByPath("b.y"), &y);

    middle.reset();
    std::ostringstream text;
    root.dump(text);
    EXPECT_EQ(text.str().find("sys.b."), std::string::npos);
    EXPECT_NE(text.str().find("sys.c.z"), std::string::npos);
    std::ostringstream js;
    JsonWriter w(js, /*pretty=*/false);
    root.toJson(w);
    EXPECT_EQ(js.str(), "{\"sys.a.x\": 0,\"sys.c.z\": 0}");
    EXPECT_EQ(root.findByPath("b.y"), nullptr);
    EXPECT_EQ(root.findByPath("c.z"), &z);

    // A child added after the removal still lands at the end.
    StatGroup late("d", &root);
    Scalar w2(late, "w", "");
    std::vector<std::string> seen;
    root.visitStats([&](const std::string &prefix, const StatBase &stat) {
        seen.push_back(prefix + stat.name());
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"sys.a.x", "sys.c.z",
                                              "sys.d.w"}));
}

TEST(Stats, DestroyedLastChildLetsTheNextOneAppend)
{
    StatGroup root("sys");
    StatGroup first("a", &root);
    Scalar x(first, "x", "");
    {
        StatGroup gone("b", &root);
    }
    StatGroup next("c", &root);
    Scalar z(next, "z", "");
    EXPECT_EQ(root.findByPath("c.z"), &z);
    std::ostringstream js;
    JsonWriter w(js, /*pretty=*/false);
    root.toJson(w);
    EXPECT_EQ(js.str(), "{\"sys.a.x\": 0,\"sys.c.z\": 0}");
}

TEST(Stats, RegistrationOrderSurvivesInterleavedCreation)
{
    StatGroup root("sys");
    Scalar s1(root, "s1", "");
    StatGroup g1("g1", &root);
    Scalar s2(root, "s2", "");
    Scalar g1a(g1, "a", "");
    StatGroup g2("g2", &root);
    Scalar g2a(g2, "a", "");
    Scalar s3(root, "s3", "");
    Scalar g1b(g1, "b", "");
    StatGroup g1sub("sub", &g1);
    Scalar subx(g1sub, "x", "");
    Scalar g1c(g1, "c", "");

    std::vector<std::string> seen;
    root.visitStats([&](const std::string &prefix, const StatBase &stat) {
        seen.push_back(prefix + stat.name());
    });
    // Each group lists its own stats in registration order, then its
    // child groups in registration order.
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "sys.s1", "sys.s2", "sys.s3", "sys.g1.a",
                        "sys.g1.b", "sys.g1.c", "sys.g1.sub.x",
                        "sys.g2.a"}));
    EXPECT_EQ(root.findByPath("g1.sub.x"), &subx);
    EXPECT_EQ(root.findByPath("g2.a"), &g2a);
}
