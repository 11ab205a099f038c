/**
 * @file
 * Tests for the adaptive region monitor, the declarative scheme
 * engine, and the region-granularity placement builders
 * (src/region).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "placement/policies.hh"
#include "placement/profile.hh"
#include "region/engine.hh"
#include "region/region.hh"
#include "region/scheme.hh"

namespace ramp
{
namespace
{

/** The structural invariants every adaptation pass must keep. */
void
expectRegionInvariants(const RegionMonitor &monitor)
{
    const auto &regions = monitor.regions();
    ASSERT_FALSE(regions.empty());
    EXPECT_LE(regions.size(), monitor.config().maxRegions);
    for (std::size_t i = 0; i < regions.size(); ++i) {
        EXPECT_GE(regions[i].pages, 1u);
        if (i > 0) {
            // Sorted and pairwise disjoint.
            EXPECT_LE(regions[i - 1].end(), regions[i].first);
        }
    }
}

double
totalHotness(const RegionMonitor &monitor)
{
    double total = 0;
    for (const Region &region : monitor.regions())
        total += region.hotness();
    return total;
}

RegionConfig
quietConfig()
{
    RegionConfig config;
    config.ledger = false;
    return config;
}

TEST(RegionMonitor, InitFootprintCoversSpanExactly)
{
    RegionConfig config = quietConfig();
    config.minRegions = 4;
    config.maxRegions = 64;
    RegionMonitor monitor(config);
    monitor.initFootprint(100, 1000);
    expectRegionInvariants(monitor);
    // min(maxRegions, minRegions * 2, pages) initial regions.
    EXPECT_EQ(monitor.regions().size(), 8u);
    EXPECT_EQ(monitor.regions().front().first, 100u);
    EXPECT_EQ(monitor.regions().back().end(), 1100u);
    std::uint64_t covered = 0;
    for (const Region &region : monitor.regions())
        covered += region.pages;
    EXPECT_EQ(covered, 1000u);
}

TEST(RegionMonitor, IndexOfFindsCoveringRegion)
{
    RegionConfig config = quietConfig();
    config.minRegions = 2;
    config.maxRegions = 4;
    RegionMonitor monitor(config);
    monitor.initFootprint(10, 40); // 4 regions of 10 pages
    EXPECT_EQ(monitor.indexOf(10), 0u);
    EXPECT_EQ(monitor.indexOf(19), 0u);
    EXPECT_EQ(monitor.indexOf(20), 1u);
    EXPECT_EQ(monitor.indexOf(49), 3u);
    EXPECT_EQ(monitor.indexOf(9), RegionMonitor::npos);
    EXPECT_EQ(monitor.indexOf(50), RegionMonitor::npos);
}

TEST(RegionMonitor, RecordAccessCountsIntoCoveringRegion)
{
    RegionConfig config = quietConfig();
    config.minRegions = 2;
    config.maxRegions = 4;
    RegionMonitor monitor(config);
    monitor.initFootprint(0, 40);
    monitor.recordAccess(5, false);
    monitor.recordAccess(5, false);
    monitor.recordAccess(5, true);
    monitor.recordAccess(35, true);
    EXPECT_EQ(monitor.regions()[0].epochReads, 2u);
    EXPECT_EQ(monitor.regions()[0].epochWrites, 1u);
    EXPECT_EQ(monitor.regions()[3].epochWrites, 1u);
}

TEST(RegionMonitor, UncoveredAccessGrowsCoverage)
{
    RegionConfig config = quietConfig();
    config.minRegions = 2;
    config.maxRegions = 4;
    RegionMonitor monitor(config);
    monitor.initFootprint(100, 40);
    // Below the covered span: the front region grows backward.
    monitor.recordAccess(90, false);
    EXPECT_EQ(monitor.regions().front().first, 90u);
    EXPECT_EQ(monitor.indexOf(90), 0u);
    // Past the covered span: the last region grows forward.
    monitor.recordAccess(150, true);
    EXPECT_EQ(monitor.regions().back().end(), 151u);
    expectRegionInvariants(monitor);
}

TEST(RegionMonitor, AdaptationKeepsInvariantsAndConservesCounts)
{
    RegionConfig config = quietConfig();
    config.minRegions = 4;
    config.maxRegions = 64;
    config.decay = 1.0; // full history: totals must be conserved
    RegionMonitor monitor(config);
    monitor.initFootprint(0, 4096);

    Rng rng(42);
    ZipfSampler zipf(4096, 0.9);
    std::uint64_t recorded = 0;
    for (int epoch = 0; epoch < 12; ++epoch) {
        for (int i = 0; i < 2000; ++i) {
            monitor.recordAccess(
                static_cast<PageId>(zipf.sample(rng)),
                rng.nextBool(0.3));
            ++recorded;
        }
        monitor.endEpoch();
        expectRegionInvariants(monitor);
        // Merges sum and splits apportion, so with decay = 1.0 the
        // aggregate access mass equals everything ever recorded.
        EXPECT_NEAR(totalHotness(monitor),
                    static_cast<double>(recorded),
                    1e-6 * static_cast<double>(recorded));
    }
    EXPECT_GT(monitor.merges(), 0u);
    EXPECT_GT(monitor.splits(), 0u);
    EXPECT_EQ(monitor.epochs(), 12u);
}

TEST(RegionMonitor, RegionBudgetIsBounded)
{
    RegionConfig config = quietConfig();
    config.minRegions = 2;
    config.maxRegions = 16;
    RegionMonitor monitor(config);
    monitor.initFootprint(0, 100'000);
    Rng rng(7);
    for (int epoch = 0; epoch < 20; ++epoch) {
        for (int i = 0; i < 500; ++i)
            monitor.recordAccess(rng.nextRange(100'000),
                                 rng.nextBool(0.5));
        monitor.endEpoch();
        EXPECT_LE(monitor.regions().size(), 16u);
        EXPECT_GE(monitor.regions().size(), 1u);
    }
    // The span table is provisioned for the budget, not the
    // footprint: tracked bytes never depend on the page count.
    EXPECT_EQ(monitor.trackedBytes(), 16u * sizeof(Region));
}

TEST(RegionMonitor, InitFromProfileIsPerPageWhenBudgetAllows)
{
    PageProfile profile;
    profile.setStats(10, {5, 3, 0.25});
    profile.setStats(20, {9, 1, 0.75});
    profile.setStats(30, {0, 7, 0.5});

    RegionConfig config = quietConfig();
    config.maxRegions = 1024;
    RegionMonitor monitor(config);
    monitor.initFromProfile(profile);

    ASSERT_EQ(monitor.regions().size(), 3u);
    const Region &first = monitor.regions().front();
    EXPECT_EQ(first.first, 10u);
    EXPECT_EQ(first.pages, 1u);
    EXPECT_DOUBLE_EQ(first.reads, 5.0);
    EXPECT_DOUBLE_EQ(first.writes, 3.0);
    EXPECT_DOUBLE_EQ(first.avf, 0.25);
    expectRegionInvariants(monitor);
}

TEST(RegionMonitor, DeterministicAcrossIdenticalRuns)
{
    const auto run = [] {
        RegionConfig config;
        config.minRegions = 4;
        config.maxRegions = 32;
        config.ledger = false;
        RegionMonitor monitor(config);
        monitor.initFootprint(0, 10'000);
        Rng rng(99);
        ZipfSampler zipf(10'000, 0.8);
        for (int epoch = 0; epoch < 8; ++epoch) {
            for (int i = 0; i < 1000; ++i)
                monitor.recordAccess(
                    static_cast<PageId>(zipf.sample(rng)),
                    rng.nextBool(0.3));
            monitor.endEpoch();
        }
        return monitor;
    };
    const RegionMonitor a = run();
    const RegionMonitor b = run();
    ASSERT_EQ(a.regions().size(), b.regions().size());
    for (std::size_t i = 0; i < a.regions().size(); ++i) {
        EXPECT_EQ(a.regions()[i].first, b.regions()[i].first);
        EXPECT_EQ(a.regions()[i].pages, b.regions()[i].pages);
        EXPECT_DOUBLE_EQ(a.regions()[i].reads, b.regions()[i].reads);
        EXPECT_DOUBLE_EQ(a.regions()[i].writes,
                         b.regions()[i].writes);
    }
    EXPECT_EQ(a.merges(), b.merges());
    EXPECT_EQ(a.splits(), b.splits());
}

TEST(RegionSchemes, ParseFormatRoundTrip)
{
    const std::string text =
        "promote:hot,lowrisk,quota=4;"
        "demote:cold,age>=2,quota=4;"
        "pin:density>=12.5,avf<=0.1,pages>=8";
    std::string error;
    const auto schemes = parseRegionSchemes(text, error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(schemes.size(), 3u);
    EXPECT_EQ(schemes[0].action, RegionAction::Promote);
    EXPECT_TRUE(schemes[0].requireHot);
    EXPECT_TRUE(schemes[0].requireLowRisk);
    EXPECT_EQ(schemes[0].quota, 4u);
    EXPECT_EQ(schemes[1].action, RegionAction::Demote);
    EXPECT_TRUE(schemes[1].requireCold);
    EXPECT_EQ(schemes[1].minAge, 2u);
    EXPECT_EQ(schemes[2].action, RegionAction::Pin);
    EXPECT_TRUE(schemes[2].hasMinDensity);
    EXPECT_DOUBLE_EQ(schemes[2].minDensity, 12.5);
    EXPECT_TRUE(schemes[2].hasMaxAvf);
    EXPECT_EQ(schemes[2].minPages, 8u);

    // The canonical spelling re-parses to the same schemes.
    std::string error2;
    const auto reparsed =
        parseRegionSchemes(formatRegionSchemes(schemes), error2);
    ASSERT_TRUE(error2.empty()) << error2;
    ASSERT_EQ(reparsed.size(), schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i)
        EXPECT_EQ(formatRegionScheme(reparsed[i]),
                  formatRegionScheme(schemes[i]));
}

TEST(RegionSchemes, ParseRejectsBadGrammar)
{
    std::string error;
    EXPECT_TRUE(parseRegionSchemes("evict:hot", error).empty());
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_TRUE(parseRegionSchemes("promote:sideways", error).empty());
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_TRUE(parseRegionSchemes("promote:pages>=x", error).empty());
    EXPECT_FALSE(error.empty());
}

TEST(RegionSchemes, RejectsNonFiniteAndOutOfRangeNumbers)
{
    // Every numeric predicate refuses NaN, infinities and values its
    // field cannot hold, with the grammar's "bad number" message.
    for (const char *prefix :
         {"pages>=", "density>=", "avf<=", "age>=", "quota="}) {
        for (const char *number : {"nan", "inf", "1e400"}) {
            const std::string pred = std::string(prefix) + number;
            std::string error;
            EXPECT_TRUE(
                parseRegionSchemes("promote:" + pred, error).empty())
                << pred;
            EXPECT_EQ(error,
                      "region scheme: bad number in '" + pred + "'");
        }
    }
    for (const char *pred :
         {"pages>=1e30", "age>=1e10", "age>=4294967296", "quota=1e30",
          "quota=18446744073709551616"}) {
        std::string error;
        EXPECT_TRUE(
            parseRegionSchemes(std::string("pin:") + pred, error)
                .empty())
            << pred;
        EXPECT_EQ(error, std::string("region scheme: bad number in '") +
                             pred + "'");
    }
}

TEST(RegionSchemes, MatchesRelativeAndAbsolutePredicates)
{
    Region region;
    region.first = 0;
    region.pages = 10;
    region.reads = 80;
    region.writes = 20;
    region.avf = 0.2;
    region.age = 3;

    RegionScheme hot;
    hot.requireHot = true; // density 10 vs mean 5
    EXPECT_TRUE(hot.matches(region, 5.0, 0.5));
    EXPECT_FALSE(hot.matches(region, 15.0, 0.5));

    RegionScheme risky;
    risky.requireHighRisk = true; // avf 0.2 vs mean 0.1
    EXPECT_TRUE(risky.matches(region, 5.0, 0.1));
    EXPECT_FALSE(risky.matches(region, 5.0, 0.5));

    RegionScheme aged;
    aged.minAge = 4;
    EXPECT_FALSE(aged.matches(region, 5.0, 0.5));
    aged.minAge = 3;
    EXPECT_TRUE(aged.matches(region, 5.0, 0.5));
}

/**
 * A four-region monitor that endEpoch leaves structurally alone
 * (minRegions == maxRegions == initial count), with regions 0-1 hot
 * and 2-3 idle.
 */
RegionMonitor
stableQuadrantMonitor()
{
    RegionConfig config = quietConfig();
    config.minRegions = 4;
    config.maxRegions = 4;
    config.decay = 1.0;
    RegionMonitor monitor(config);
    monitor.initFootprint(0, 40); // 4 regions of 10 pages
    for (int i = 0; i < 100; ++i)
        monitor.recordAccess(static_cast<PageId>(i % 10), false);
    for (int i = 0; i < 80; ++i)
        monitor.recordAccess(static_cast<PageId>(10 + i % 10),
                             i % 2 == 0);
    monitor.endEpoch();
    return monitor;
}

TEST(SchemeEngine, QuotaBoundsActionsPerEpoch)
{
    const RegionMonitor monitor = stableQuadrantMonitor();
    std::string error;
    const SchemeEngine engine(
        parseRegionSchemes("promote:hot,quota=1", error));
    ASSERT_TRUE(error.empty()) << error;

    PlacementMap map(100);
    const auto ops = engine.evaluate(monitor, map);
    // Two regions are hot (densities 10 and 8 vs mean 4.5) but the
    // quota admits one per epoch; address order makes it region 0.
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].action, RegionAction::Promote);
    EXPECT_EQ(ops[0].first, 0u);
    EXPECT_EQ(ops[0].pages, 10u);
}

TEST(SchemeEngine, DemotionsOrderedBeforePromotions)
{
    const RegionMonitor monitor = stableQuadrantMonitor();
    // Park the cold regions in HBM so the demotion has work to do.
    PlacementMap map(100);
    map.placeRange(20, 20, MemoryId::HBM);

    std::string error;
    const SchemeEngine engine(parseRegionSchemes(
        "promote:hot,quota=1;demote:cold,quota=1", error));
    ASSERT_TRUE(error.empty()) << error;

    const auto ops = engine.evaluate(monitor, map);
    // Declared promote-first, but demotions sort ahead so capacity
    // frees before it is claimed.
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].action, RegionAction::Demote);
    EXPECT_EQ(ops[1].action, RegionAction::Promote);
}

TEST(SchemeEngine, SuppressesOpsWithNothingToMove)
{
    const RegionMonitor monitor = stableQuadrantMonitor();
    PlacementMap map(100);
    map.placeRange(0, 10, MemoryId::HBM); // hot region resident

    std::string error;
    const SchemeEngine engine(
        parseRegionSchemes("promote:hot,quota=1", error));
    ASSERT_TRUE(error.empty()) << error;

    // Region 0 matches but is already resident; region 1 (also hot)
    // takes the quota slot instead.
    const auto ops = engine.evaluate(monitor, map);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].first, 10u);
}

/** A deterministic scattered profile exercising every quadrant. */
PageProfile
scatteredProfile()
{
    PageProfile profile;
    Rng rng(2018);
    for (PageId page = 0; page < 600; page += 7) {
        PageStats stats;
        stats.reads = rng.nextRange(200);
        stats.writes = rng.nextRange(100);
        stats.avf = static_cast<double>(rng.nextRange(1000)) / 1000.0;
        profile.setStats(page, stats);
    }
    return profile;
}

TEST(RegionPlacement, PerPageRegionsMatchPagePolicies)
{
    const PageProfile profile = scatteredProfile();
    RegionConfig config = quietConfig();
    config.maxRegions = 4096; // >= footprint: one page per region

    for (const StaticPolicy policy :
         {StaticPolicy::PerfFocused, StaticPolicy::ReliabilityFocused,
          StaticPolicy::Balanced, StaticPolicy::WrRatio,
          StaticPolicy::Wr2Ratio}) {
        const PlacementMap page_map =
            buildStaticPlacement(policy, profile, 16);
        const PlacementMap region_map =
            buildRegionStaticPlacement(policy, profile, config, 16);
        const auto pages = page_map.hbmPages();
        const auto regions = region_map.hbmPages();
        EXPECT_EQ(std::set<PageId>(pages.begin(), pages.end()),
                  std::set<PageId>(regions.begin(), regions.end()))
            << "policy " << policyName(policy);
    }
}

TEST(RegionPlacement, DdrOnlyPlacesNothing)
{
    const PlacementMap map = buildRegionStaticPlacement(
        StaticPolicy::DdrOnly, scatteredProfile(), quietConfig(), 16);
    EXPECT_TRUE(map.hbmPages().empty());
}

TEST(RegionPlacement, RespectsHbmCapacity)
{
    const PageProfile profile = scatteredProfile();
    RegionConfig config = quietConfig();
    config.minRegions = 2;
    config.maxRegions = 8; // coarse regions spanning many pages
    const PlacementMap map = buildRegionStaticPlacement(
        StaticPolicy::PerfFocused, profile, config, 16);
    EXPECT_LE(map.hbmUsedPages(), 16u);
    EXPECT_GT(map.hbmUsedPages(), 0u);
}

TEST(RegionEngine, EmitsDecisionsAtIntervals)
{
    RegionConfig config = quietConfig();
    config.minRegions = 4;
    config.maxRegions = 4;
    RegionMigrationEngine engine(1000, config,
                                 defaultRegionSchemes());
    engine.seedFootprint(0, 40);
    PlacementMap map(100);
    for (int i = 0; i < 200; ++i)
        engine.onAccess(static_cast<PageId>(i % 10), false,
                        map.memoryOf(static_cast<PageId>(i % 10)));
    const MigrationDecision decision = engine.onInterval(1000, map);
    // The hot region qualifies for promotion under the default
    // schemes (everything is low-risk with zero AVF seeds).
    ASSERT_FALSE(decision.regionOps.empty());
    EXPECT_EQ(decision.regionOps[0].action, RegionAction::Promote);
    EXPECT_GT(decision.pagesMoved(), 0u);
    EXPECT_EQ(engine.monitor().epochs(), 1u);
}

} // namespace
} // namespace ramp
