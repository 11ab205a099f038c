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

namespace ramp
{
namespace
{

enum class Kind
{
    Perf,
    Fc,
    Cc,
};

std::unique_ptr<MigrationEngine>
makeKind(Kind kind)
{
    switch (kind) {
      case Kind::Perf:
        return std::make_unique<PerfFocusedMigration>(1000, 64);
      case Kind::Fc:
        return std::make_unique<FcReliabilityMigration>(1000, 64);
      case Kind::Cc:
        return std::make_unique<CrossCounterMigration>(1000, 4, 32,
                                                       8, 64);
    }
    return nullptr;
}

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

/**
 * Forwards every call to an engine through the PageId virtuals only,
 * so the engine it wraps never binds to the run's slots.
 */
class PageIdOnly final : public MigrationEngine
{
  public:
    explicit PageIdOnly(MigrationEngine &inner) : inner_(inner) {}

    const char *name() const override { return inner_.name(); }
    void onAccess(PageId page, bool is_write, MemoryId mem) override
    {
        inner_.onAccess(page, is_write, mem);
    }
    Cycle interval() const override { return inner_.interval(); }
    MigrationDecision onInterval(Cycle now,
                                 const PlacementMap &map) override
    {
        return inner_.onInterval(now, map);
    }
    Cycle remapPenalty(PageId page) override
    {
        return inner_.remapPenalty(page);
    }
    void onFault(PageId page, bool uncorrected, Cycle now) override
    {
        inner_.onFault(page, uncorrected, now);
    }
    std::uint64_t
    hardwareCostBytes(std::uint64_t total_pages,
                      std::uint64_t hbm_pages) const override
    {
        return inner_.hardwareCostBytes(total_pages, hbm_pages);
    }

  private:
    MigrationEngine &inner_;
};

constexpr PageId slotUniverse = 256;
constexpr std::uint64_t slotHbmFrames = 48;

/** Four cores over a drifting hot set and a wider cold range. */
std::vector<CoreTrace>
generatedTraces(Rng &rng)
{
    std::vector<CoreTrace> traces(4);
    for (std::size_t core = 0; core < traces.size(); ++core) {
        for (int i = 0; i < 3000; ++i) {
            const PageId page =
                rng.nextBool(0.5)
                    ? (rng.nextRange(12) + static_cast<PageId>(i / 300) * 8) %
                          slotUniverse
                    : rng.nextRange(slotUniverse);
            MemRequest req;
            req.addr = page * pageSize + rng.nextRange(linesPerPage) *
                                             lineSize;
            req.gap = static_cast<std::uint32_t>(1 + rng.nextRange(40));
            req.core = static_cast<CoreId>(core);
            req.isWrite = rng.nextBool(0.3);
            traces[core].push_back(req);
        }
    }
    return traces;
}

/** Script (all three kinds at random epochs), Poisson and hammer. */
InjectorConfig
randomStorm(Rng &rng)
{
    InjectorConfig faults;
    for (int i = 0; i < 8; ++i) {
        FaultEvent event;
        event.epoch = 1 + rng.nextRange(12);
        switch (rng.nextRange(3)) {
          case 0:
            event.kind = FaultEventKind::Correctable;
            event.page = rng.nextRange(slotUniverse);
            event.count = 1 + rng.nextRange(4);
            break;
          case 1:
            event.kind = FaultEventKind::Uncorrected;
            event.page = rng.nextRange(slotUniverse);
            break;
          default:
            event.kind = FaultEventKind::CapacityLoss;
            event.pct = static_cast<double>(5 + rng.nextRange(20));
            break;
        }
        faults.script.push_back(event);
    }
    faults.seed = rng.next();
    faults.epochCycles = 2000;
    faults.poissonFaultsPerEpoch = 0.7;
    faults.poissonUncorrectedShare = 0.3;
    faults.hammerThreshold = 6;
    faults.sweepCapPages = 8;
    return faults;
}

void
expectSameDram(const DramStats &a, const DramStats &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.totalReadLatency, b.totalReadLatency);
}

/** Every SimResult field, bit for bit, profile order included. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.avgReadLatency, b.avgReadLatency);
    EXPECT_EQ(a.hbmAccessFraction, b.hbmAccessFraction);
    expectSameDram(a.hbmStats, b.hbmStats);
    expectSameDram(a.ddrStats, b.ddrStats);
    EXPECT_EQ(a.migratedPages, b.migratedPages);
    EXPECT_EQ(a.migrationEvents, b.migrationEvents);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.pagesRetired, b.pagesRetired);
    EXPECT_EQ(a.capacityLostPages, b.capacityLostPages);
    EXPECT_EQ(a.responseMoves, b.responseMoves);
    EXPECT_EQ(a.responseRetries, b.responseRetries);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.memoryAvf, b.memoryAvf);
    EXPECT_EQ(a.ser, b.ser);
    const auto &pa = a.profile.pages();
    const auto &pb = b.profile.pages();
    ASSERT_EQ(pa.size(), pb.size());
    for (auto ia = pa.begin(), ib = pb.begin(); ia != pa.end();
         ++ia, ++ib) {
        ASSERT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.reads, ib->second.reads);
        EXPECT_EQ(ia->second.writes, ib->second.writes);
        EXPECT_EQ(ia->second.avf, ib->second.avf);
    }
}

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
    const auto placement = [] {
        PlacementMap map(slotHbmFrames);
        for (PageId page = 0; page < slotHbmFrames; ++page)
            map.place(page * 5 % slotUniverse, MemoryId::HBM);
        return map;
    };

    for (const bool faulted : {false, true}) {
        SCOPED_TRACE(faulted ? "with faults" : "no faults");
        const auto by_slot = makeKind(kind);
        const auto by_page = makeKind(kind);
        PageIdOnly wrapper(*by_page);
        FaultInjector slot_faults(storm), page_faults(storm);
        const SimResult a = HmaSystem(config).run(
            traces, placement(), by_slot.get(),
            faulted ? &slot_faults : nullptr);
        const SimResult b = HmaSystem(config).run(
            traces, placement(), &wrapper,
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
