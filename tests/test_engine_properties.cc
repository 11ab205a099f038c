/**
 * @file
 * Property tests for migration engines: on random access streams,
 * every decision must be structurally valid — swaps pair an HBM
 * resident with a DDR resident, nothing pinned moves, budgets hold,
 * and no page appears twice in one decision. Whole runs on generated
 * traces, with and without fault epochs interleaved, must not depend
 * on whether the engine tracks pages by slot or by PageId.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.hh"
#include "faults/injector.hh"
#include "hma/system.hh"
#include "migration/engine.hh"
#include "sim_fixtures.hh"

namespace ramp
{
namespace
{

using namespace fixtures;

class EngineFuzzTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(EngineFuzzTest, DecisionsAreAlwaysValid)
{
    const auto [kind_raw, seed] = GetParam();
    const auto kind = static_cast<Kind>(kind_raw);
    Rng rng(seed);

    const std::uint64_t capacity = 24;
    const PageId universe = 128;
    PlacementMap map(capacity);
    std::set<PageId> pinned;
    for (PageId page = 0; page < capacity; ++page) {
        if (page % 8 == 0) {
            map.placePinned(page, MemoryId::HBM);
            pinned.insert(page);
        } else {
            map.place(page, MemoryId::HBM);
        }
    }

    const auto engine = makeKind(kind);
    Cycle now = 0;
    for (int interval = 0; interval < 40; ++interval) {
        // Random traffic with a drifting hot set.
        for (int i = 0; i < 600; ++i) {
            const PageId page =
                (rng.nextRange(40) + interval * 2) % universe;
            engine->onAccess(page, rng.nextBool(0.4),
                             map.memoryOf(page));
        }
        now += engine->interval();
        const auto decision = engine->onInterval(now, map);

        // Structural validity.
        std::set<PageId> seen;
        auto check_unique = [&](PageId page) {
            ASSERT_TRUE(seen.insert(page).second)
                << "page " << page << " moved twice";
        };
        for (const auto &[victim, fill] : decision.swaps) {
            check_unique(victim);
            check_unique(fill);
            EXPECT_EQ(map.memoryOf(victim), MemoryId::HBM);
            EXPECT_EQ(map.memoryOf(fill), MemoryId::DDR);
            EXPECT_FALSE(pinned.count(victim));
            EXPECT_FALSE(pinned.count(fill));
        }
        for (const PageId page : decision.evictions) {
            check_unique(page);
            EXPECT_EQ(map.memoryOf(page), MemoryId::HBM);
            EXPECT_FALSE(pinned.count(page));
        }
        for (const PageId page : decision.promotions) {
            check_unique(page);
            EXPECT_EQ(map.memoryOf(page), MemoryId::DDR);
            EXPECT_FALSE(pinned.count(page));
        }
        EXPECT_LE(decision.promotions.size(),
                  map.hbmFreePages() + decision.evictions.size());
        EXPECT_LE(decision.pagesMoved(), 64u + 8u);

        // Apply the decision the way the system does.
        for (const PageId page : decision.evictions)
            ASSERT_TRUE(map.evictToDdr(page));
        for (const auto &[victim, fill] : decision.swaps)
            ASSERT_TRUE(map.swap(victim, fill));
        for (const PageId page : decision.promotions)
            ASSERT_TRUE(map.promoteToHbm(page));
        ASSERT_LE(map.hbmUsedPages(), capacity);

        // Pinned pages never moved.
        for (const PageId page : pinned)
            ASSERT_EQ(map.memoryOf(page), MemoryId::HBM);
    }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, EngineFuzzTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(7ULL, 77ULL, 777ULL)));

// ---------------------------------------------------------------
// Slot path against PageId path, through HmaSystem::run

class SlotPathTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(SlotPathTest, MatchesPageIdPathWithAndWithoutFaults)
{
    const auto [kind_raw, seed] = GetParam();
    const auto kind = static_cast<Kind>(kind_raw);
    Rng rng(seed);
    const auto traces = generatedTraces(rng);
    const InjectorConfig storm = randomStorm(rng);

    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 4;

    for (const bool faulted : {false, true}) {
        SCOPED_TRACE(faulted ? "with faults" : "no faults");
        const auto by_slot = makeKind(kind);
        const auto by_page = makeKind(kind);
        PageIdOnly wrapper(*by_page);
        FaultInjector slot_faults(storm), page_faults(storm);
        const SimResult a = HmaSystem(config).run(
            traces, slotPlacement(), by_slot.get(),
            faulted ? &slot_faults : nullptr);
        const SimResult b = HmaSystem(config).run(
            traces, slotPlacement(), &wrapper,
            faulted ? &page_faults : nullptr);
        expectSameResult(a, b);
        EXPECT_GT(a.migratedPages, 0u);
        if (faulted) {
            EXPECT_GT(a.faultsInjected, 0u);
            EXPECT_EQ(slot_faults.produced(), page_faults.produced());
        }
        if (kind == Kind::Cc) {
            const auto &ca = dynamic_cast<const CrossCounterMigration &>(
                                 *by_slot)
                                 .remapCache();
            const auto &cb = dynamic_cast<const CrossCounterMigration &>(
                                 *by_page)
                                 .remapCache();
            EXPECT_EQ(ca.hits(), cb.hits());
            EXPECT_EQ(ca.misses(), cb.misses());
            EXPECT_GT(ca.misses(), 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, SlotPathTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(3ULL, 31ULL, 314ULL)));

} // namespace
} // namespace ramp
