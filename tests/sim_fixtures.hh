/**
 * @file
 * Shared fixtures of the whole-run equivalence tests: engine kinds,
 * a PageId-only engine wrapper, generated traces, a random fault
 * storm, and a field-by-field SimResult comparison.
 */

#ifndef RAMP_TESTS_SIM_FIXTURES_HH
#define RAMP_TESTS_SIM_FIXTURES_HH

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "faults/injector.hh"
#include "hma/system.hh"
#include "migration/engine.hh"

namespace ramp::fixtures
{

enum class Kind
{
    Perf,
    Fc,
    Cc,
};

inline std::unique_ptr<MigrationEngine>
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

/** HBM filled with every fifth page of the universe. */
inline PlacementMap
slotPlacement()
{
    PlacementMap map(slotHbmFrames);
    for (PageId page = 0; page < slotHbmFrames; ++page)
        map.place(page * 5 % slotUniverse, MemoryId::HBM);
    return map;
}

/** Four cores over a drifting hot set and a wider cold range. */
inline std::vector<CoreTrace>
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
inline InjectorConfig
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

inline void
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
inline void
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

} // namespace ramp::fixtures

#endif // RAMP_TESTS_SIM_FIXTURES_HH
