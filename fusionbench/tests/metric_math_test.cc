/**
 * @file
 * Tests for the benchmark's own metric math: the tail-percentile rule
 * with failures counted as infinite latency, self time of a span with
 * overlapping children, ratios with a zero base, the cross-round
 * host-time estimate, and the name alphabet.
 */
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "host_trace.h"
#include "metric_math.h"

namespace fusionbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double>
oneToN(size_t n)
{
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, NearestRankOnShuffledInput)
{
    std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 50), 3);
    EXPECT_EQ(percentile(v, 100), 5);
    EXPECT_EQ(percentile(v, 1), 1);
    EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    // p99 of 1000 samples sits at rank 990: exactly ten beyond it.
    EXPECT_TRUE(percentileSupported(1000, 99));
    EXPECT_FALSE(percentileSupported(999, 99));
    EXPECT_TRUE(percentileSupported(10000, 99.9));
    EXPECT_FALSE(percentileSupported(9999, 99.9));
    EXPECT_FALSE(percentileSupported(0, 50));
    EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
    EXPECT_EQ(highestSupportedPercentile(1000), 99.0);
    EXPECT_EQ(highestSupportedPercentile(999), 95.0);
    EXPECT_EQ(highestSupportedPercentile(100), 90.0);
    EXPECT_EQ(highestSupportedPercentile(25), 50.0);
    EXPECT_EQ(highestSupportedPercentile(5), 0.0);
}

TEST(Percentile, FailuresCountAsInfiniteLatency)
{
    std::vector<double> v = oneToN(1000);
    EXPECT_EQ(percentile(v, 99), 990);
    // Ten failures occupy the ten slots beyond p99: p99 stays finite.
    for (size_t i = 0; i < 10; ++i)
        v[i] = kInf;
    EXPECT_EQ(percentile(v, 99), 1000);
    // An eleventh failure reaches the p99 rank itself.
    v[10] = kInf;
    EXPECT_EQ(percentile(v, 99), kInf);
    // The median is unaffected by a failed tail.
    EXPECT_EQ(percentile(v, 50), 511);
}

TEST(Ratio, ZeroBaseYieldsZero)
{
    EXPECT_EQ(ratio(0, 0), 0);
    EXPECT_EQ(ratio(5, 0), 0);
    EXPECT_EQ(ratio(3, 4), 0.75);
    EXPECT_EQ(ratio(0, 4), 0);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_EQ(median({}), 0);
    EXPECT_EQ(median({7}), 7);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(BlockwiseMedianSum, DropsOneRoundsSlowBlocks)
{
    EXPECT_EQ(blockwiseMedianSum({}), 0);
    // One round alone is its own total.
    EXPECT_EQ(blockwiseMedianSum({{1, 2, 3}}), 6);
    // Round 2 is slowed in block 0, round 3 in block 2: neither counts,
    // and the costly block 1 still does.
    EXPECT_EQ(blockwiseMedianSum({{1, 5, 1}, {4, 5, 1}, {1, 5, 9}}), 7);
    // Two rounds: each block's mean, (1 + 3) / 2 + (2 + 2) / 2.
    EXPECT_EQ(blockwiseMedianSum({{1, 2}, {3, 2}}), 4);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // Parent [0, 100); children [10, 40) and [30, 60) overlap by 10.
    EXPECT_EQ(coveredLength({{10, 40}, {30, 60}}, {0, 100}), 50u);
    EXPECT_EQ(selfLength({{10, 40}, {30, 60}}, {0, 100}), 50u);
    // A child nested in another adds nothing.
    EXPECT_EQ(selfLength({{10, 60}, {20, 30}}, {0, 100}), 50u);
    // Children are clipped to the parent.
    EXPECT_EQ(selfLength({{90, 150}}, {0, 100}), 90u);
    EXPECT_EQ(selfLength({}, {0, 100}), 100u);
    EXPECT_EQ(selfLength({{0, 100}}, {0, 100}), 0u);
}

TEST(SelfTime, TracerSubtractsChildren)
{
    HostTracer tracer;
    tracer.setEnabled(true);
    uint32_t root = tracer.begin("root", 7);
    uint32_t child = tracer.begin("child", 7);
    tracer.end(child);
    tracer.end(root);
    tracer.setEnabled(false);
    EXPECT_EQ(tracer.begin("ignored"), 0u);

    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[1].parent, root);
    EXPECT_EQ(tracer.spans()[1].request, 7u);
    auto stats = tracer.nameStats();
    const auto &r = stats.at("root");
    const auto &c = stats.at("child");
    EXPECT_EQ(r.calls, 1u);
    EXPECT_EQ(c.selfNs, c.totalNs);
    EXPECT_EQ(r.selfNs + c.totalNs, r.totalNs);
}

TEST(Names, RestrictedAlphabet)
{
    EXPECT_TRUE(validName("scan_mix"));
    EXPECT_TRUE(validName("span.filter_stage.self_ms_per_query"));
    EXPECT_TRUE(validName("p99-ms"));
    EXPECT_TRUE(validName("0x"));
    EXPECT_FALSE(validName(""));
    EXPECT_FALSE(validName("_lead"));
    EXPECT_FALSE(validName(".lead"));
    EXPECT_FALSE(validName("has space"));
    EXPECT_FALSE(validName("slash/name"));
    EXPECT_FALSE(validName("quote\""));
    EXPECT_FALSE(validName(std::string(65, 'a')));
    EXPECT_TRUE(validName(std::string(64, 'a')));
}

} // namespace
} // namespace fusionbench
