/**
 * @file
 * Tests for the HMA system simulator (src/hma/system).
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <vector>

#include "faults/plan.hh"
#include "hma/experiment.hh"
#include "hma/system.hh"
#include "runner/pool.hh"
#include "sim_fixtures.hh"

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

// ---------------------------------------------------------------
// WorkloadData's compiled form against the traces-only entry

using fixtures::Kind;

/** No engine, or one of the three dynamic schemes. */
constexpr int staticKind = -1;

/** One run of `kind`, clean or under `storm`, from either entry. */
struct KindRun
{
    SimResult result;
    std::uint64_t remapHits = 0;
    std::uint64_t remapMisses = 0;
};

KindRun
runKind(const WorkloadData &data, int kind, const InjectorConfig *storm,
        bool compiled)
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 4;
    std::unique_ptr<MigrationEngine> engine;
    if (kind != staticKind)
        engine = fixtures::makeKind(static_cast<Kind>(kind));
    std::unique_ptr<FaultInjector> injector;
    if (storm != nullptr)
        injector = std::make_unique<FaultInjector>(*storm);
    HmaSystem system(config);
    KindRun run;
    run.result =
        compiled ? system.run(data.traces, data.compiled(),
                              fixtures::slotPlacement(), engine.get(),
                              injector.get())
                 : system.run(data.traces, fixtures::slotPlacement(),
                              engine.get(), injector.get());
    if (kind == static_cast<int>(Kind::Cc)) {
        const auto &cache =
            dynamic_cast<const CrossCounterMigration &>(*engine)
                .remapCache();
        run.remapHits = cache.hits();
        run.remapMisses = cache.misses();
    }
    return run;
}

void
expectSameRun(const KindRun &a, const KindRun &b)
{
    fixtures::expectSameResult(a.result, b.result);
    EXPECT_EQ(a.remapHits, b.remapHits);
    EXPECT_EQ(a.remapMisses, b.remapMisses);
}

const int allKinds[] = {staticKind, static_cast<int>(Kind::Perf),
                        static_cast<int>(Kind::Fc),
                        static_cast<int>(Kind::Cc)};

class CompiledTraceTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CompiledTraceTest, MatchesTracesOnlyEntry)
{
    Rng rng(GetParam());
    WorkloadData data;
    data.traces = fixtures::generatedTraces(rng);
    const InjectorConfig storm = fixtures::randomStorm(rng);

    // Slots are numbered in first-intern order, core 0's requests
    // first, then core 1's, and so on.
    const CompiledTrace &compiled = data.compiled();
    PageIndex expected;
    std::size_t position = 0;
    ASSERT_EQ(compiled.cores(), data.traces.size());
    for (std::size_t core = 0; core < data.traces.size(); ++core) {
        ASSERT_EQ(compiled.base(core), position);
        for (const MemRequest &req : data.traces[core])
            ASSERT_EQ(compiled.slot(position++),
                      expected.intern(pageOf(req.addr)));
    }
    ASSERT_EQ(compiled.pages(), expected.size());

    for (const int kind : allKinds) {
        for (const bool faulted : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "kind " << kind
                         << (faulted ? " with faults" : " clean"));
            const InjectorConfig *faults = faulted ? &storm : nullptr;
            const KindRun a = runKind(data, kind, faults, true);
            const KindRun b = runKind(data, kind, faults, false);
            expectSameRun(a, b);
            if (kind != staticKind) {
                EXPECT_GT(a.result.migratedPages, 0u);
            }
            if (faulted) {
                EXPECT_GT(a.result.faultsInjected, 0u);
            }
            if (kind == static_cast<int>(Kind::Cc)) {
                EXPECT_GT(a.remapMisses, 0u);
            }
        }
    }
    // Every run shared the one compiled form.
    EXPECT_EQ(&data.compiled(), &compiled);
}

TEST_P(CompiledTraceTest, PoolThreadsShareOneCompiledForm)
{
    Rng rng(GetParam());
    WorkloadData data;
    data.traces = fixtures::generatedTraces(rng);
    const InjectorConfig storm = fixtures::randomStorm(rng);

    std::vector<KindRun> expected;
    for (const int kind : allKinds)
        for (const bool faulted : {false, true})
            expected.push_back(
                runKind(data, kind, faulted ? &storm : nullptr, false));
    ASSERT_FALSE(data.lazyCompiled.built());

    // Every task asks for the compiled form, so the first build races
    // with the others' reads.
    constexpr std::size_t rounds = 3;
    const std::size_t passes = expected.size();
    std::vector<KindRun> got(rounds * passes);
    runner::ThreadPool pool(4);
    pool.runIndexed(got.size(), [&](std::size_t i) {
        const std::size_t pass = i % passes;
        got[i] = runKind(data, allKinds[pass / 2],
                         pass % 2 == 1 ? &storm : nullptr, true);
    });
    EXPECT_TRUE(data.lazyCompiled.built());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "task " << i);
        expectSameRun(got[i], expected[i % passes]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledTraceTest,
                         ::testing::Values(3ULL, 31ULL));

TEST(CompiledTrace, CopiedWorkloadDataStartsUncompiled)
{
    Rng rng(5);
    WorkloadData data;
    data.traces = fixtures::generatedTraces(rng);
    EXPECT_FALSE(data.lazyCompiled.built());
    const CompiledTrace &compiled = data.compiled();
    EXPECT_TRUE(data.lazyCompiled.built());

    WorkloadData copy = data;
    EXPECT_FALSE(copy.lazyCompiled.built());
    WorkloadData assigned;
    assigned.compiled();
    assigned = data;
    EXPECT_FALSE(assigned.lazyCompiled.built());
    WorkloadData moved = std::move(copy);
    EXPECT_FALSE(moved.lazyCompiled.built());

    // Rebuilt on demand, to the same slot column.
    const CompiledTrace &again = assigned.compiled();
    EXPECT_NE(&again, &compiled);
    ASSERT_EQ(again.pages(), compiled.pages());
    for (std::size_t i = 0; i < compiled.base(compiled.cores()); ++i)
        ASSERT_EQ(again.slot(i), compiled.slot(i));
}

TEST(CompiledTraceDeathTest, RunOnAnotherTracesFormPanics)
{
    const auto config = smallConfig();
    const auto traces = smallTraces(8, 200);
    CompiledTrace one_core;
    one_core.compile({traces[0]});
    EXPECT_DEATH(HmaSystem(config).run(traces, one_core,
                                       PlacementMap(config.hbmPages())),
                 "compiled trace has 1 cores, the run has 2");
    CompiledTrace shorter;
    shorter.compile(smallTraces(8, 100));
    EXPECT_DEATH(HmaSystem(config).run(traces, shorter,
                                       PlacementMap(config.hbmPages())),
                 "compiled trace of core 0 does not match its trace");
}

} // namespace
} // namespace ramp
