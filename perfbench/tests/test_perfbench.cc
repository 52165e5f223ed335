/**
 * @file
 * Unit tests of the benchmark's own arithmetic and stream parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "service/http.hh"
#include "util.hh"

using namespace perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 0, 0.50), 50.0);
    EXPECT_EQ(percentile(v, 0, 0.99), 99.0);
    EXPECT_EQ(percentile(v, 0, 1.00), 100.0);
    EXPECT_EQ(percentile({7.0}, 0, 0.99), 7.0);
    EXPECT_TRUE(std::isnan(percentile({}, 0, 0.5)));
}

TEST(Percentile, FailuresRankAboveEveryLimit)
{
    std::vector<double> v;
    for (int i = 1; i <= 98; ++i)
        v.push_back(i);
    // 98 samples + 2 failures: p99 is rank 99, the first failure.
    EXPECT_TRUE(std::isinf(percentile(v, 2, 0.99)));
    // The median moves up by the failures' weight, never down.
    EXPECT_EQ(percentile(v, 2, 0.50), 50.0);
    EXPECT_EQ(percentile(v, 0, 0.50), 49.0);
    EXPECT_TRUE(std::isinf(percentile({}, 3, 0.5)));
}

TEST(SumOfBests, BestOfEachPartAcrossRoundRobinPasses)
{
    // Three passes of three parts: each part's best comes from a
    // different pass, so the sum beats every whole pass.
    const std::vector<std::vector<double>> passes = {
        {1.0, 5.0, 2.0}, {3.0, 1.0, 2.5}, {2.0, 4.0, 0.5}};
    EXPECT_EQ(partBests(passes), (std::vector<double>{1.0, 1.0, 0.5}));
    EXPECT_DOUBLE_EQ(sumOfBests(passes), 1.0 + 1.0 + 0.5);
    EXPECT_DOUBLE_EQ(sumOfBests({{2.0, 3.0}}), 5.0);
    EXPECT_TRUE(partBests({}).empty());
    EXPECT_TRUE(std::isnan(sumOfBests({})));
    EXPECT_TRUE(partBests({{1.0, 2.0}, {1.0}}).empty());
    EXPECT_TRUE(std::isnan(sumOfBests({{1.0, 2.0}, {1.0}})));
}

TEST(HostSpeed, FactorIsReferenceOverMedianSample)
{
    HostSpeed h;
    EXPECT_EQ(h.factor(), 1.0);
    const double ref = HostSpeed::referenceSeconds;
    // Half speed between bursts, with one sample stalled.
    for (double x : {3.0, 2.0, 9.0, 2.0, 2.5, 2.0})
        h.add(ref * x);
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_DOUBLE_EQ(h.median(), ref * 2.0);
    EXPECT_DOUBLE_EQ(h.best(), ref * 2.0);
    EXPECT_DOUBLE_EQ(h.factor(), 0.5);
    // More time in bursts moves the median, and the factor with it.
    h.add(ref * 2.5);
    h.add(ref * 2.5);
    EXPECT_DOUBLE_EQ(h.median(), ref * 2.5);
    EXPECT_DOUBLE_EQ(h.factor(), 0.4);
    h.sample(2);
    EXPECT_EQ(h.samples(), 10u);
    EXPECT_GT(calibrationKernel(), 0.0);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime)
{
    Spans s(true);
    const auto root = s.add("cell", 0.0, 10.0);
    // Overlapping children cover [1,4] and [6,7]: 4 s of the 10.
    s.add("child", 1.0, 3.0, root);
    s.add("child", 2.0, 4.0, root);
    s.add("child", 6.0, 7.0, root);
    // A child sticking out of its parent is clipped to [9,10].
    s.add("late", 9.0, 12.0, root);
    const auto self = s.selfSeconds();
    EXPECT_DOUBLE_EQ(self.at("cell"), 10.0 - 3.0 - 1.0 - 1.0);
    EXPECT_DOUBLE_EQ(self.at("child"), 2.0 + 2.0 + 1.0);
    EXPECT_DOUBLE_EQ(self.at("late"), 3.0);
}

TEST(Spans, DisabledRecordsNothing)
{
    Spans s;
    EXPECT_EQ(s.add("x", 0.0, 1.0), 0u);
    {
        ScopedSpan scoped(s, "y");
        EXPECT_EQ(scoped.id(), 0u);
    }
    EXPECT_TRUE(s.spans().empty());
}

TEST(Spans, ChromeTraceHoldsEverySpan)
{
    Spans s(true);
    const auto a = s.add("harness.session", 0.001, 0.002, 0, 7);
    s.add("harness.unit", 0.0012, 0.0018, a, 7);
    const std::string t = s.chromeTrace();
    EXPECT_NE(t.find("\"name\":\"harness.session\""), std::string::npos);
    EXPECT_NE(t.find("\"parent\":1,\"request\":7"), std::string::npos);
    EXPECT_NE(t.find("\"ts\":1000.000,\"dur\":1000.000"), std::string::npos);
}

namespace {

std::string
stream()
{
    using namespace svw::service;
    return chunkedResponseHead(200, "OK", "application/x-ndjson") +
        encodeChunk("{\"event\":\"done\",\"cell\":0}\n") +
        encodeChunk(std::string(5000, 'x') + "\n") +
        encodeChunk("{\"event\":\"finished\"}\n") + finalChunk();
}

const std::string body = "{\"event\":\"done\",\"cell\":0}\n" +
    std::string(5000, 'x') + "\n{\"event\":\"finished\"}\n";

} // namespace

TEST(ChunkedReader, WholeStream)
{
    const std::string s = stream();
    ChunkedReader r;
    r.feed(s.data(), s.size());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.status(), 200);
    EXPECT_EQ(r.body(), body);
    EXPECT_EQ(r.rawBytes(), s.size());
}

TEST(ChunkedReader, ByteAtATime)
{
    const std::string s = stream();
    ChunkedReader r;
    for (char c : s) {
        EXPECT_FALSE(r.done());
        r.feed(&c, 1);
    }
    EXPECT_TRUE(r.done());
    EXPECT_FALSE(r.error());
    EXPECT_EQ(r.body(), body);
}

TEST(ChunkedReader, CutMidChunkIsIncomplete)
{
    const std::string s = stream();
    const std::size_t cut = s.find(std::string(100, 'x')) + 100;
    ChunkedReader r;
    r.feed(s.data(), cut);
    EXPECT_FALSE(r.done());
    EXPECT_FALSE(r.error());
    EXPECT_EQ(r.body().size(), body.find('x') + 100);
    // Without the terminating chunk the stream never completes, even
    // if the cut ends exactly on a chunk boundary.
    const std::size_t lastChunk = s.rfind("0\r\n\r\n");
    ChunkedReader r2;
    r2.feed(s.data(), lastChunk);
    EXPECT_FALSE(r2.done());
    EXPECT_EQ(r2.body(), body);
}

TEST(ChunkedReader, ContentLengthAndMalformed)
{
    const std::string s = svw::service::simpleResponse(
        200, "OK", "application/json", "{\"a\":1}\n");
    ChunkedReader r;
    r.feed(s.data(), s.size());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.body(), "{\"a\":1}\n");

    const std::string bad = svw::service::chunkedResponseHead(
                                200, "OK", "text/plain") +
        "zz\r\nabc\r\n";
    ChunkedReader r2;
    r2.feed(bad.data(), bad.size());
    EXPECT_TRUE(r2.error());
}
