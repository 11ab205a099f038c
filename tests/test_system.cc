/**
 * @file
 * Tests for the HMA system simulator (src/hma/system).
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>

#include "faults/plan.hh"
#include "hma/system.hh"

namespace ramp
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 2;
    config.fcIntervalCycles = 10000;
    config.meaIntervalCycles = 1000;
    return config;
}

/** Two cores hammering a small set of pages. */
std::vector<CoreTrace>
smallTraces(int pages, int requests, double write_fraction = 0.25)
{
    std::vector<CoreTrace> traces(2);
    for (int core = 0; core < 2; ++core) {
        for (int i = 0; i < requests; ++i) {
            MemRequest req;
            const int page = (i * 7 + core) % pages;
            req.addr = static_cast<Addr>(page) * pageSize +
                       static_cast<Addr>(i % 64) * lineSize;
            req.gap = 20;
            req.core = static_cast<CoreId>(core);
            req.isWrite =
                (i % 100) < static_cast<int>(write_fraction * 100);
            traces[static_cast<std::size_t>(core)].push_back(req);
        }
    }
    return traces;
}

TEST(System, RunsAndReportsBasics)
{
    const auto config = smallConfig();
    HmaSystem system(config);
    const auto result = system.run(smallTraces(8, 2000),
                                   PlacementMap(config.hbmPages()));
    EXPECT_GT(result.makespan, 0u);
    EXPECT_EQ(result.requests, 4000u);
    EXPECT_GT(result.reads, 0u);
    EXPECT_GT(result.writes, 0u);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.instructions, result.requests);
    EXPECT_EQ(result.hbmAccessFraction, 0.0);
    EXPECT_GT(result.memoryAvf, 0.0);
    EXPECT_GT(result.ser, 0.0);
    EXPECT_EQ(result.profile.footprintPages(), 8u);
}

TEST(System, HbmPlacementIsFasterThanDdrOnly)
{
    const auto config = smallConfig();
    const auto traces = smallTraces(32, 4000);

    HmaSystem ddr_system(config);
    const auto ddr = ddr_system.run(
        traces, PlacementMap(config.hbmPages()));

    PlacementMap hbm_map(config.hbmPages());
    for (PageId page = 0; page < 32; ++page)
        hbm_map.place(page, MemoryId::HBM);
    HmaSystem hbm_system(config);
    const auto hbm = hbm_system.run(traces, std::move(hbm_map));

    EXPECT_GT(hbm.ipc, ddr.ipc);
    EXPECT_EQ(hbm.hbmAccessFraction, 1.0);
    EXPECT_GT(hbm.ser, ddr.ser); // HBM residency raises SER
}

TEST(System, DeterministicAcrossRuns)
{
    const auto config = smallConfig();
    const auto traces = smallTraces(16, 3000);
    HmaSystem a(config), b(config);
    const auto ra = a.run(traces, PlacementMap(config.hbmPages()));
    const auto rb = b.run(traces, PlacementMap(config.hbmPages()));
    EXPECT_EQ(ra.makespan, rb.makespan);
    EXPECT_EQ(ra.requests, rb.requests);
    EXPECT_DOUBLE_EQ(ra.ser, rb.ser);
}

TEST(System, SerIsResidencyWeighted)
{
    // Same trace; page 0 in HBM for the whole run raises SER by the
    // FIT ratio on that page's share.
    const auto config = smallConfig();
    const auto traces = smallTraces(2, 2000, 0.0);

    HmaSystem base_system(config);
    const auto base = base_system.run(
        traces, PlacementMap(config.hbmPages()));

    PlacementMap map(config.hbmPages());
    map.place(0, MemoryId::HBM);
    HmaSystem split_system(config);
    const auto split = split_system.run(traces, std::move(map));

    EXPECT_GT(split.ser, base.ser);
    EXPECT_LT(split.ser,
              base.ser * config.ser.fitRatio() + 1e-9);
}

TEST(System, MigrationEngineMovesPagesAndChargesTraffic)
{
    auto config = smallConfig();
    const auto traces = smallTraces(64, 20000);

    PerfFocusedMigration engine(config.fcIntervalCycles, 64);
    HmaSystem system(config);
    const auto result = system.run(
        traces, PlacementMap(config.hbmPages()), &engine);

    EXPECT_GT(result.migratedPages, 0u);
    EXPECT_GT(result.migrationEvents, 0u);
    // Promoted pages served some demand from HBM.
    EXPECT_GT(result.hbmAccessFraction, 0.0);
    // Page copies were charged into the memories.
    EXPECT_GT(result.hbmStats.writes + result.hbmStats.reads, 0u);
}

TEST(System, PinnedPagesSurviveMigration)
{
    auto config = smallConfig();
    const auto traces = smallTraces(64, 20000);

    PlacementMap map(config.hbmPages());
    map.placePinned(63, MemoryId::HBM); // cold page, pinned
    PerfFocusedMigration engine(config.fcIntervalCycles, 64);
    HmaSystem system(config);
    (void)system.run(traces, std::move(map), &engine);
    // The run's placement is internal; the invariant we can check is
    // that no crash occurred and migrations happened around the pin.
    SUCCEED();
}

/**
 * The run's profile against the traces themselves: exactly the
 * touched pages, each with its trace read/write counts and an AVF in
 * [0, 1], and memoryAvf the mean of the per-page AVFs.
 */
void
expectProfileMatchesTraces(const SimResult &result,
                           const std::vector<CoreTrace> &traces)
{
    std::map<PageId, PageStats> counted;
    for (const auto &trace : traces) {
        for (const MemRequest &req : trace) {
            PageStats &stats = counted[pageOf(req.addr)];
            ++(req.isWrite ? stats.writes : stats.reads);
        }
    }
    const auto touched = touchedPages(traces);
    ASSERT_EQ(result.profile.footprintPages(), touched.size());
    ASSERT_EQ(counted.size(), touched.size());

    double avf_sum = 0;
    for (const auto &[page, stats] : result.profile.pages()) {
        SCOPED_TRACE(page);
        EXPECT_EQ(touched.count(page), 1u);
        EXPECT_EQ(stats.reads, counted[page].reads);
        EXPECT_EQ(stats.writes, counted[page].writes);
        EXPECT_GE(stats.avf, 0.0);
        EXPECT_LE(stats.avf, 1.0);
        avf_sum += stats.avf;
    }
    EXPECT_NEAR(result.memoryAvf,
                avf_sum / static_cast<double>(touched.size()), 1e-12);
}

TEST(System, AvfMatchesStandaloneTracker)
{
    const auto config = smallConfig();
    const auto traces = smallTraces(4, 1000);
    HmaSystem system(config);
    const auto result = system.run(
        traces, PlacementMap(config.hbmPages()));
    expectProfileMatchesTraces(result, traces);
    EXPECT_GT(result.memoryAvf, 0.0);

    // Migration epochs and a fault storm (retirement, capacity loss,
    // emergency sweep) move pages mid-run; the per-page accounting
    // must not notice.
    const auto busy_traces = smallTraces(64, 20000);
    PlacementMap map(16);
    for (PageId page = 0; page < 16; ++page)
        map.place(page, MemoryId::HBM);
    CrossCounterMigration engine(config.meaIntervalCycles,
                                 config.fcPerMea());
    InjectorConfig faults;
    std::string error;
    faults.script = parseFaultPlan("uncorrected:page=3,epoch=1;"
                                   "capacity:tier=hbm,pct=25,epoch=2",
                                   error);
    ASSERT_TRUE(error.empty()) << error;
    faults.epochCycles = 2000;
    FaultInjector injector(faults);
    HmaSystem busy_system(config);
    const auto busy = busy_system.run(busy_traces, std::move(map),
                                      &engine, &injector);
    EXPECT_GT(busy.migratedPages, 0u);
    EXPECT_EQ(busy.pagesRetired, 1u);
    EXPECT_GT(busy.capacityLostPages, 0u);
    EXPECT_GT(busy.responseMoves, 0u);
    expectProfileMatchesTraces(busy, busy_traces);
}

/**
 * Issue order on ties, pinned to exact values. Four cores with equal
 * gaps contend for a single-bank DDR and HBM, so which core issues
 * first on a tie decides row hits and queueing. Core 2 has no
 * requests and core 3 finishes early; the earliest-ready core issues
 * next and the lowest core index wins ties.
 */
TEST(System, IssueOrderOnTiesIsPinned)
{
    SystemConfig config = smallConfig();
    config.cores = 4;
    for (DramConfig *dram : {&config.hbm, &config.ddr}) {
        dram->channels = 1;
        dram->ranksPerChannel = 1;
        dram->banksPerRank = 1;
    }

    const std::size_t lengths[] = {300, 300, 0, 40};
    std::vector<CoreTrace> traces(4);
    for (std::size_t core = 0; core < traces.size(); ++core) {
        for (std::size_t i = 0; i < lengths[core]; ++i) {
            MemRequest req;
            const PageId page = core * 4 + i % 3;
            req.addr = page * pageSize + (i * 5 % 64) * lineSize;
            req.gap = 8;
            req.core = static_cast<CoreId>(core);
            req.isWrite = i % 4 == 3;
            traces[core].push_back(req);
        }
    }
    PlacementMap map(config.hbmPages());
    map.place(0, MemoryId::HBM);
    map.place(13, MemoryId::HBM);

    HmaSystem system(config);
    const SimResult r = system.run(traces, std::move(map));

    EXPECT_EQ(r.requests, 640u);
    EXPECT_EQ(r.makespan, 47850u);
    EXPECT_EQ(r.instructions, 5760u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ipc),
              4593338438252683526u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ser),
              4551367405601212570u);
    const auto expect_stats = [](const DramStats &s,
                                 std::uint64_t reads,
                                 std::uint64_t writes,
                                 std::uint64_t hits,
                                 std::uint64_t misses, Cycle busy,
                                 Cycle latency) {
        EXPECT_EQ(s.reads, reads);
        EXPECT_EQ(s.writes, writes);
        EXPECT_EQ(s.rowHits, hits);
        EXPECT_EQ(s.rowMisses, misses);
        EXPECT_EQ(s.busBusyCycles, busy);
        EXPECT_EQ(s.totalReadLatency, latency);
    };
    expect_stats(r.hbmStats, 85, 28, 52, 61, 1469, 12748);
    expect_stats(r.ddrStats, 395, 132, 82, 445, 8432, 706582);
}

TEST(System, EmptyTracesYieldEmptyResult)
{
    const auto config = smallConfig();
    HmaSystem system(config);
    const auto result = system.run(std::vector<CoreTrace>(2),
                                   PlacementMap(config.hbmPages()));
    EXPECT_EQ(result.requests, 0u);
    EXPECT_EQ(result.makespan, 1u);
    EXPECT_EQ(result.ipc, 0.0);
}

} // namespace
} // namespace ramp
