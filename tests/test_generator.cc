/**
 * @file
 * Tests for the synthetic trace generator (src/trace/generator).
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "trace/generator.hh"
#include "trace/trace.hh"

namespace ramp
{
namespace
{

GeneratorOptions
smallOptions(std::uint64_t seed = 1)
{
    GeneratorOptions options;
    options.seed = seed;
    options.traceScale = 0.02;
    return options;
}

TEST(Generator, DeterministicForSameSeed)
{
    const auto spec = homogeneousWorkload("mcf");
    const auto a = generateTraces(spec, smallOptions(5));
    const auto b = generateTraces(spec, smallOptions(5));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t core = 0; core < a.size(); ++core) {
        ASSERT_EQ(a[core].size(), b[core].size());
        for (std::size_t i = 0; i < a[core].size(); ++i) {
            EXPECT_EQ(a[core][i].addr, b[core][i].addr);
            EXPECT_EQ(a[core][i].isWrite, b[core][i].isWrite);
            EXPECT_EQ(a[core][i].gap, b[core][i].gap);
        }
    }
}

TEST(Generator, DifferentSeedsProduceDifferentTraces)
{
    const auto spec = homogeneousWorkload("mcf");
    const auto a = generateTraces(spec, smallOptions(5));
    const auto b = generateTraces(spec, smallOptions(6));
    bool different = false;
    for (std::size_t i = 0; i < a[0].size() && !different; ++i)
        different = a[0][i].addr != b[0][i].addr;
    EXPECT_TRUE(different);
}

TEST(Generator, SixteenCoreTraces)
{
    const auto traces =
        generateTraces(homogeneousWorkload("lbm"), smallOptions());
    EXPECT_EQ(traces.size(),
              static_cast<std::size_t>(workloadCores));
    for (const auto &trace : traces)
        EXPECT_FALSE(trace.empty());
}

TEST(Generator, RequestCountMatchesScaledProfile)
{
    const auto &profile = benchmarkProfile("milc");
    GeneratorOptions options;
    options.traceScale = 0.01;
    const auto traces =
        generateTraces(homogeneousWorkload("milc"), options);
    const auto expected = static_cast<std::uint64_t>(
        profile.requestsPerCore * 0.01);
    for (const auto &trace : traces)
        EXPECT_EQ(trace.size(), expected);
}

TEST(Generator, AddressesStayInsideOwnersRanges)
{
    const auto spec = mixWorkload("mix3");
    const auto layout = buildLayout(spec);
    const auto traces = generateTraces(spec, layout, smallOptions());
    for (std::size_t core = 0; core < traces.size(); ++core) {
        for (const auto &req : traces[core]) {
            EXPECT_EQ(req.core, core);
            const int idx = layout.rangeOf(pageOf(req.addr));
            ASSERT_GE(idx, 0) << "address outside layout";
            EXPECT_EQ(layout.ranges[static_cast<std::size_t>(idx)]
                          .core,
                      core)
                << "core touched another core's pages";
        }
    }
}

TEST(Generator, MpkiApproximatesProfile)
{
    GeneratorOptions options;
    options.traceScale = 0.2;
    const auto &profile = benchmarkProfile("xsbench");
    const auto traces =
        generateTraces(homogeneousWorkload("xsbench"), options);
    const auto stats = computeStats(traces);
    EXPECT_NEAR(stats.mpki(), profile.mpki, profile.mpki * 0.1);
}

TEST(Generator, WriteFractionTracksStructureMix)
{
    // milc is read-dominated overall; its trace write fraction must
    // sit well below one half but above zero.
    GeneratorOptions options;
    options.traceScale = 0.1;
    const auto traces =
        generateTraces(homogeneousWorkload("milc"), options);
    const auto stats = computeStats(traces);
    EXPECT_GT(stats.writeFraction(), 0.1);
    EXPECT_LT(stats.writeFraction(), 0.55);
}

TEST(Generator, StreamingCoversStructureUniformly)
{
    // libquantum's state vector is streamed; page touch counts
    // should be near-uniform across the structure.
    GeneratorOptions options;
    options.traceScale = 0.3;
    const auto spec = homogeneousWorkload("libquantum");
    const auto layout = buildLayout(spec);
    const auto traces = generateTraces(spec, layout, options);

    // Count per-page accesses of core 0's state_vec range.
    const StructureRange *range = nullptr;
    for (const auto &candidate : layout.ranges)
        if (candidate.core == 0 &&
            candidate.structure == "state_vec")
            range = &candidate;
    ASSERT_NE(range, nullptr);

    std::vector<std::uint64_t> counts(range->pages, 0);
    for (const auto &req : traces[0]) {
        const PageId page = pageOf(req.addr);
        if (page >= range->firstPage && page < range->endPage())
            ++counts[page - range->firstPage];
    }
    std::uint64_t min_count = UINT64_MAX, max_count = 0;
    for (const auto count : counts) {
        min_count = std::min(min_count, count);
        max_count = std::max(max_count, count);
    }
    EXPECT_GT(min_count, 0u);
    EXPECT_LT(max_count, 4 * std::max<std::uint64_t>(min_count, 1));
}

/** FNV-1a 64 over each request's addr, gap, core and isWrite. */
std::uint64_t
traceDigest(const std::vector<CoreTrace> &traces)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t value, std::size_t bytes) {
        for (std::size_t b = 0; b < bytes; ++b) {
            hash ^= (value >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (const auto &trace : traces)
        for (const auto &req : trace) {
            mix(req.addr, sizeof req.addr);
            mix(req.gap, sizeof req.gap);
            mix(req.core, sizeof req.core);
            mix(req.isWrite ? 1 : 0, 1);
        }
    return hash;
}

// Pinned digests of seed-1, 2%-scale traces. Any change to an RNG
// draw, a sampler's inverse CDF or the structure pick moves them;
// a speed change to generation must leave every request bit-identical.
TEST(Generator, GoldenTraceDigests)
{
    const struct
    {
        WorkloadSpec spec;
        std::uint64_t digest;
    } cases[] = {
        {homogeneousWorkload("astar"), 0x1e8aefb0272aa91eULL},
        {homogeneousWorkload("cactusADM"), 0x49df53bd9ef77280ULL},
        {mixWorkload("mix1"), 0xd96328cf6e727cf2ULL},
    };
    for (const auto &c : cases) {
        const auto traces = generateTraces(c.spec, smallOptions(1));
        EXPECT_EQ(traceDigest(traces), c.digest)
            << c.spec.name << std::hex << " digest 0x"
            << traceDigest(traces);
    }
}

/** Property sweep over every registered program. */
class GeneratorPropertyTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorPropertyTest, TracesAreWellFormed)
{
    const auto spec = homogeneousWorkload(GetParam());
    const auto layout = buildLayout(spec);
    const auto traces = generateTraces(spec, layout, smallOptions());
    const auto stats = computeStats(traces);
    EXPECT_GT(stats.requests, 0u);
    EXPECT_GT(stats.reads, 0u);
    EXPECT_GT(stats.writes, 0u);
    EXPECT_LE(stats.footprintPages, layout.totalPages);
    EXPECT_GT(stats.instructions, stats.requests);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, GeneratorPropertyTest,
    ::testing::Values("mcf", "lbm", "milc", "astar", "soplex",
                      "libquantum", "cactusADM", "xsbench", "lulesh",
                      "omnetpp", "sphinx", "dealII", "leslie3d",
                      "gcc", "GemsFDTD", "bzip", "bwaves"));

} // namespace
} // namespace ramp
