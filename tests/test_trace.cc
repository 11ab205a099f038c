/**
 * @file
 * Tests for trace containers and statistics (src/trace/trace).
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"

namespace ramp
{
namespace
{

CoreTrace
sampleTrace()
{
    CoreTrace trace;
    trace.push_back({0x1000, 10, 0, false});
    trace.push_back({0x1040, 5, 0, true});
    trace.push_back({0x2000, 0, 0, false});
    return trace;
}

TEST(TraceStats, CountsAndMpki)
{
    const auto stats = computeStats(sampleTrace());
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.reads, 2u);
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.instructions, 11u + 6u + 1u);
    EXPECT_EQ(stats.footprintPages, 2u);
    EXPECT_NEAR(stats.mpki(), 3.0 * 1000 / 18.0, 1e-9);
    EXPECT_NEAR(stats.writeFraction(), 1.0 / 3.0, 1e-12);
}

TEST(TraceStats, EmptyTrace)
{
    const auto stats = computeStats(CoreTrace{});
    EXPECT_EQ(stats.requests, 0u);
    EXPECT_EQ(stats.mpki(), 0.0);
    EXPECT_EQ(stats.writeFraction(), 0.0);
}

TEST(TraceStats, MultiCoreMerge)
{
    std::vector<CoreTrace> traces = {sampleTrace(), sampleTrace()};
    traces[1][0].addr = 0x9000; // extra page
    const auto stats = computeStats(traces);
    EXPECT_EQ(stats.requests, 6u);
    EXPECT_EQ(stats.footprintPages, 3u);
}

TEST(TraceStats, TouchedPages)
{
    const std::vector<CoreTrace> traces = {sampleTrace()};
    const auto pages = touchedPages(traces);
    EXPECT_EQ(pages.size(), 2u);
    EXPECT_TRUE(pages.count(pageOf(0x1000)));
    EXPECT_TRUE(pages.count(pageOf(0x2000)));
}

TEST(MemRequest, InstructionsIncludesSelf)
{
    MemRequest req;
    req.gap = 9;
    EXPECT_EQ(req.instructions(), 10u);
}

} // namespace
} // namespace ramp
