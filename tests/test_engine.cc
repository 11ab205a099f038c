/**
 * @file
 * Tests for the migration engines (src/migration/engine).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/page_index.hh"
#include "hma/system.hh"
#include "migration/engine.hh"

namespace ramp
{
namespace
{

/** Feed n accesses of one page to an engine. */
void
touch(MigrationEngine &engine, PageId page, int reads, int writes,
      MemoryId mem)
{
    for (int i = 0; i < reads; ++i)
        engine.onAccess(page, false, mem);
    for (int i = 0; i < writes; ++i)
        engine.onAccess(page, true, mem);
}

TEST(PerfEngine, PromotesHotDdrPageIntoFreeFrame)
{
    PlacementMap map(2);
    map.place(1, MemoryId::HBM); // one free frame remains
    PerfFocusedMigration engine(1000);
    touch(engine, 50, 10, 0, MemoryId::DDR); // hot
    touch(engine, 51, 1, 0, MemoryId::DDR);  // cold (below mean)
    const auto decision = engine.onInterval(1000, map);
    ASSERT_EQ(decision.promotions.size(), 1u);
    EXPECT_EQ(decision.promotions[0], 50u);
    EXPECT_TRUE(decision.swaps.empty());
}

TEST(PerfEngine, SwapsColdHbmForHotDdr)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    PerfFocusedMigration engine(1000);
    touch(engine, 1, 1, 0, MemoryId::HBM);   // cold resident
    touch(engine, 50, 10, 0, MemoryId::DDR); // hot candidate
    const auto decision = engine.onInterval(1000, map);
    ASSERT_EQ(decision.swaps.size(), 1u);
    EXPECT_EQ(decision.swaps[0].first, 1u);
    EXPECT_EQ(decision.swaps[0].second, 50u);
}

TEST(PerfEngine, DoesNotSwapWhenResidentIsHotter)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    PerfFocusedMigration engine(1000);
    touch(engine, 1, 20, 0, MemoryId::HBM);
    touch(engine, 50, 10, 0, MemoryId::DDR);
    touch(engine, 51, 1, 0, MemoryId::DDR);
    const auto decision = engine.onInterval(1000, map);
    EXPECT_TRUE(decision.empty());
}

TEST(PerfEngine, RespectsCap)
{
    PlacementMap map(64);
    PerfFocusedMigration engine(1000, /*cap=*/4);
    touch(engine, 99, 100, 0, MemoryId::DDR);
    for (PageId page = 0; page < 32; ++page)
        touch(engine, page, 50, 0, MemoryId::DDR);
    const auto decision = engine.onInterval(1000, map);
    EXPECT_LE(decision.pagesMoved(), 4u);
}

TEST(PerfEngine, CountersResetEachInterval)
{
    PlacementMap map(4);
    map.place(1, MemoryId::HBM);
    PerfFocusedMigration engine(1000);
    touch(engine, 50, 10, 0, MemoryId::DDR);
    touch(engine, 51, 1, 0, MemoryId::DDR);
    (void)engine.onInterval(1000, map);
    // Nothing observed since: second interval decides nothing.
    const auto decision = engine.onInterval(2000, map);
    EXPECT_TRUE(decision.empty());
}

TEST(PerfEngine, SkipsPinnedPages)
{
    PlacementMap map(1);
    map.placePinned(1, MemoryId::HBM);
    PerfFocusedMigration engine(1000);
    touch(engine, 1, 1, 0, MemoryId::HBM);
    touch(engine, 50, 10, 0, MemoryId::DDR);
    const auto decision = engine.onInterval(1000, map);
    EXPECT_TRUE(decision.swaps.empty());
}

TEST(FcEngine, FillsWithHotLowRiskOnly)
{
    PlacementMap map(2);
    FcReliabilityMigration engine(1000);
    touch(engine, 10, 2, 18, MemoryId::DDR); // hot, write heavy
    touch(engine, 11, 18, 2, MemoryId::DDR); // hot, read heavy
    touch(engine, 12, 1, 1, MemoryId::DDR);  // cold
    const auto decision = engine.onInterval(1000, map);
    ASSERT_EQ(decision.promotions.size(), 1u);
    EXPECT_EQ(decision.promotions[0], 10u);
}

TEST(FcEngine, EvictsHighRiskResidents)
{
    PlacementMap map(2);
    map.place(1, MemoryId::HBM); // will look risky
    map.place(2, MemoryId::HBM); // write heavy, low risk
    FcReliabilityMigration engine(1000);
    touch(engine, 1, 30, 0, MemoryId::HBM);  // reads only: risky
    touch(engine, 2, 2, 28, MemoryId::HBM);  // writes: safe
    const auto decision = engine.onInterval(1000, map);
    ASSERT_EQ(decision.evictions.size(), 1u);
    EXPECT_EQ(decision.evictions[0], 1u);
}

TEST(FcEngine, PairsEvictionsWithFills)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    FcReliabilityMigration engine(1000);
    touch(engine, 1, 30, 0, MemoryId::HBM);   // risky resident
    touch(engine, 10, 5, 35, MemoryId::DDR);  // hot low-risk fill
    const auto decision = engine.onInterval(1000, map);
    ASSERT_EQ(decision.swaps.size(), 1u);
    EXPECT_EQ(decision.swaps[0].first, 1u);
    EXPECT_EQ(decision.swaps[0].second, 10u);
}

TEST(FcEngine, HardwareCostMatchesPaper)
{
    const FcReliabilityMigration fc(1000);
    const PerfFocusedMigration perf(1000);
    const std::uint64_t total = (17ULL << 30) / 4096;
    const std::uint64_t hbm = (1ULL << 30) / 4096;
    EXPECT_EQ(fc.hardwareCostBytes(total, hbm),
              8704ULL * 1024); // 8.5 MB
    EXPECT_EQ(fc.hardwareCostBytes(total, hbm) -
                  perf.hardwareCostBytes(total, hbm),
              4352ULL * 1024); // 4.25 MB additional
}

TEST(CcEngine, MeaPromotesHotPages)
{
    PlacementMap map(4);
    CrossCounterMigration engine(100, 10);
    for (int i = 0; i < 50; ++i)
        engine.onAccess(7, false, MemoryId::DDR);
    const auto decision = engine.onInterval(100, map);
    ASSERT_FALSE(decision.promotions.empty());
    EXPECT_EQ(decision.promotions[0], 7u);
}

TEST(CcEngine, PromotionCapRespected)
{
    PlacementMap map(64);
    CrossCounterMigration engine(100, 10, 32, /*promo cap=*/2);
    for (PageId page = 0; page < 20; ++page)
        for (int i = 0; i < 5; ++i)
            engine.onAccess(page, false, MemoryId::DDR);
    const auto decision = engine.onInterval(100, map);
    EXPECT_LE(decision.promotions.size(), 2u);
}

TEST(CcEngine, RiskUnitEvictsAtFcBoundary)
{
    PlacementMap map(2);
    map.place(1, MemoryId::HBM);
    map.place(2, MemoryId::HBM);
    // fc_per_mea = 2: the second onInterval is an FC boundary.
    CrossCounterMigration engine(100, 2);
    touch(engine, 1, 30, 0, MemoryId::HBM); // risky (reads only)
    touch(engine, 2, 0, 30, MemoryId::HBM); // safe
    (void)engine.onInterval(100, map);      // MEA-only tick
    const auto decision = engine.onInterval(200, map);
    ASSERT_EQ(decision.evictions.size(), 1u);
    EXPECT_EQ(decision.evictions[0], 1u);
}

TEST(CcEngine, SwapsAgainstResidentWhenFull)
{
    PlacementMap map(1);
    map.place(1, MemoryId::HBM);
    CrossCounterMigration engine(100, 10);
    for (int i = 0; i < 50; ++i)
        engine.onAccess(7, false, MemoryId::DDR);
    const auto decision = engine.onInterval(100, map);
    ASSERT_EQ(decision.swaps.size(), 1u);
    EXPECT_EQ(decision.swaps[0].first, 1u);
    EXPECT_EQ(decision.swaps[0].second, 7u);
}

TEST(CcEngine, RemapPenaltyOnlyOnMisses)
{
    CrossCounterMigration engine(100, 10);
    const Cycle first = engine.remapPenalty(5);
    const Cycle second = engine.remapPenalty(5);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(second, 0u);
    EXPECT_GT(engine.remapCache().misses(), 0u);
}

TEST(CcEngine, HardwareCostMatchesPaperSection642)
{
    const CrossCounterMigration cc(100, 10);
    const std::uint64_t total = (17ULL << 30) / 4096;
    const std::uint64_t hbm = (1ULL << 30) / 4096;
    EXPECT_EQ(cc.hardwareCostBytes(total, hbm),
              676ULL * 1024); // 512 KB + 100 KB + 64 KB
}

TEST(EngineDeathTest, InvalidIntervals)
{
    EXPECT_EXIT(PerfFocusedMigration{0}, ::testing::ExitedWithCode(1),
                "");
    EXPECT_EXIT(FcReliabilityMigration{0},
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((CrossCounterMigration{0, 1}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT((CrossCounterMigration{100, 10, 32, 0}),
                ::testing::ExitedWithCode(1), "");
}

/** The three slot-binding engines, freshly built. */
std::vector<std::unique_ptr<MigrationEngine>>
slotEngines()
{
    std::vector<std::unique_ptr<MigrationEngine>> engines;
    engines.push_back(std::make_unique<PerfFocusedMigration>(1000));
    engines.push_back(std::make_unique<FcReliabilityMigration>(1000));
    engines.push_back(std::make_unique<CrossCounterMigration>(100, 10));
    return engines;
}

TEST(EngineDeathTest, BeginRunAfterATrackedAccess)
{
    PageIndex pages;
    pages.intern(1);
    for (auto &engine : slotEngines()) {
        engine->onAccess(1, false, MemoryId::HBM);
        EXPECT_DEATH(engine->beginRun(pages),
                     std::string(engine->name()) +
                         ": beginRun on an engine that already tracked");
    }
    // A second run binds again: the engine already served one.
    for (auto &engine : slotEngines()) {
        engine->beginRun(pages);
        engine->onSlotAccess(0, 1, true, MemoryId::HBM);
        EXPECT_DEATH(engine->beginRun(pages),
                     std::string(engine->name()) +
                         ": beginRun on an engine that already tracked");
    }
}

TEST(EngineDeathTest, PageIdAccessOnABoundEngine)
{
    PageIndex pages;
    pages.intern(1);
    for (auto &engine : slotEngines()) {
        engine->beginRun(pages);
        EXPECT_DEATH(engine->onAccess(1, false, MemoryId::DDR),
                     std::string(engine->name()) +
                         ": PageId access on an engine bound");
    }
    CrossCounterMigration cc(100, 10);
    cc.beginRun(pages);
    EXPECT_DEATH(cc.remapPenalty(1),
                 "cc-migration: PageId access on an engine bound");
}

TEST(EngineDeathTest, ReuseAcrossRuns)
{
    // runWithEngine takes a caller's engine; a second run with it
    // would read the first run's slots.
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 1;
    std::vector<CoreTrace> traces(1);
    for (int i = 0; i < 100; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(i % 5) * pageSize;
        req.gap = 10;
        traces[0].push_back(req);
    }
    CrossCounterMigration engine(100, 10);
    HmaSystem system(config);
    system.run(traces, PlacementMap(config.hbmPages()), &engine);
    EXPECT_DEATH(
        system.run(traces, PlacementMap(config.hbmPages()), &engine),
        "cc-migration: beginRun on an engine that already tracked");
}

} // namespace
} // namespace ramp
