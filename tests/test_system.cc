/**
 * @file
 * Tests for the HMA system simulator (src/hma/system).
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
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

// ---------------------------------------------------------------
// Run-start residency, read at each page's first access

/** Cores 0-2 touch pages [0, 64) from the start; core 3 touches
 * [1000, 1064) only after its first gap. */
constexpr PageId latePage = 1000;
constexpr std::uint32_t lateGap = 4'000'000;

std::vector<CoreTrace>
lateTouchTraces(bool with_late_core)
{
    Rng rng(17);
    std::vector<CoreTrace> traces(4);
    for (std::size_t core = 0; core < traces.size(); ++core) {
        const bool late = core == 3;
        if (late && !with_late_core)
            break;
        for (int i = 0; i < 2000; ++i) {
            const PageId page =
                (late ? latePage : 0) +
                (rng.nextBool(0.6) ? rng.nextRange(8)
                                   : rng.nextRange(64));
            MemRequest req;
            req.addr = page * pageSize +
                       rng.nextRange(linesPerPage) * lineSize;
            req.gap = late && i == 0
                          ? lateGap
                          : static_cast<std::uint32_t>(
                                1 + rng.nextRange(20));
            req.core = static_cast<CoreId>(core);
            req.isWrite = rng.nextBool(0.3);
            traces[core].push_back(req);
        }
    }
    return traces;
}

/** 24 of 32 HBM frames: 16 of core 3's pages and 8 early pages. */
PlacementMap
lateTouchPlacement()
{
    PlacementMap map(32);
    for (PageId page = 0; page < 16; ++page)
        map.place(latePage + page, MemoryId::HBM);
    for (PageId page = 56; page < 64; ++page)
        map.place(page, MemoryId::HBM);
    return map;
}

/**
 * Strikes on one of core 3's HBM pages (it leaves HBM) and on one of
 * its DDR pages (it takes a free HBM frame), then a capacity loss
 * whose sweep demotes the coldest residents: core 3's pages again.
 */
InjectorConfig
lateTouchStorm()
{
    std::string error;
    InjectorConfig faults;
    faults.script = parseFaultPlan(
        "uncorrected:page=1001,epoch=1;uncorrected:page=1040,epoch=2;"
        "capacity:tier=hbm,pct=50,epoch=3",
        error);
    EXPECT_TRUE(error.empty()) << error;
    faults.epochCycles = 2000;
    faults.sweepCapPages = 8;
    return faults;
}

SimResult
runLateTouch(int kind, bool faulted, bool with_late_core,
             PlacementMap &map)
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 4;
    std::unique_ptr<MigrationEngine> engine;
    if (kind != staticKind)
        engine = fixtures::makeKind(static_cast<Kind>(kind));
    std::unique_ptr<FaultInjector> injector;
    if (faulted)
        injector = std::make_unique<FaultInjector>(lateTouchStorm());
    return HmaSystem(config).runInPlace(lateTouchTraces(with_late_core),
                                        map, engine.get(),
                                        injector.get());
}

/**
 * The results of the scenario when every slot's run-start tier was
 * read eagerly in RunState::begin, before any page could move. The
 * SER integral is what the run-start tier feeds, so it is compared
 * bit for bit.
 */
struct EagerResult
{
    int kind;
    bool faulted;
    Cycle makespan;
    std::uint64_t migratedPages;
    std::uint64_t pagesRetired;
    double ser;
};

const EagerResult eagerResults[] = {
    {staticKind, false, 1019103, 0, 0, 0x1.93d1ccaa308f5p-9},
    {staticKind, true, 1031246, 10, 2, 0x1.41eecf33ccfb7p-11},
    {static_cast<int>(Kind::Perf), false, 1020724, 92, 0,
     0x1.76bd3cc7d3a91p-9},
    {static_cast<int>(Kind::Perf), true, 1027499, 150, 2,
     0x1.c5e19f275dc4bp-13},
    {static_cast<int>(Kind::Fc), false, 1031240, 485, 0,
     0x1.8f5133b17f3d4p-9},
    {static_cast<int>(Kind::Fc), true, 1039759, 620, 2,
     0x1.6ded08d506985p-11},
};

TEST(LazyResidency, PagesMovedBeforeFirstTouchMatchEagerResults)
{
    const Cycle late_start =
        lateGap / SystemConfig::scaledDefault().issueWidth;
    std::uint64_t left_untouched = 0;
    bool entered_untouched = false;
    for (const EagerResult &expected : eagerResults) {
        SCOPED_TRACE(testing::Message()
                     << "kind " << expected.kind
                     << (expected.faulted ? " with faults" : " clean"));
        // Cores 0-2 alone are a prefix of the full run: every move
        // they see lands before core 3's first access.
        PlacementMap prefix = lateTouchPlacement();
        const SimResult early =
            runLateTouch(expected.kind, expected.faulted, false, prefix);
        ASSERT_LT(early.makespan, late_start);
        for (PageId page = latePage; page < latePage + 16; ++page)
            if (prefix.memoryOf(page) == MemoryId::DDR)
                ++left_untouched;
        entered_untouched = entered_untouched ||
                            prefix.memoryOf(latePage + 40) ==
                                MemoryId::HBM;

        PlacementMap map = lateTouchPlacement();
        const SimResult full =
            runLateTouch(expected.kind, expected.faulted, true, map);
        EXPECT_EQ(full.makespan, expected.makespan);
        EXPECT_EQ(full.migratedPages, expected.migratedPages);
        EXPECT_EQ(full.pagesRetired, expected.pagesRetired);
        EXPECT_EQ(full.ser, expected.ser);
    }
    // The scenario does move core 3's pages before it touches them:
    // out of HBM (engine swaps, the strike, the sweep) and into it.
    EXPECT_GT(left_untouched, 8u);
    EXPECT_TRUE(entered_untouched);
}

// ---------------------------------------------------------------
// Loop dispatch: each run shape takes its own access loop

TEST(LoopShape, EachEngineKindGetsItsLoop)
{
    const auto perf = fixtures::makeKind(Kind::Perf);
    const auto fc = fixtures::makeKind(Kind::Fc);
    const auto cc = fixtures::makeKind(Kind::Cc);
    fixtures::PageIdOnly wrapped(*perf);
    FaultInjector injector(InjectorConfig{});

    const std::pair<const MigrationEngine *, LoopEngine> cases[] = {
        {nullptr, LoopEngine::None},
        {perf.get(), LoopEngine::FullCounter},
        {fc.get(), LoopEngine::FullCounter},
        {cc.get(), LoopEngine::CrossCounter},
        {&wrapped, LoopEngine::Generic},
    };
    for (const auto &[engine, expected] : cases) {
        SCOPED_TRACE(engine != nullptr ? engine->name() : "none");
        EXPECT_EQ(HmaSystem::loopShape(engine, nullptr),
                  (LoopShape{expected, false}));
        EXPECT_EQ(HmaSystem::loopShape(engine, &injector),
                  (LoopShape{expected, true}));
    }
}

/** Takes the generic loop, observes every access, moves nothing. */
class NeverDecides final : public MigrationEngine
{
  public:
    const char *name() const override { return "never-decides"; }
    void onAccess(PageId, bool, MemoryId) override { ++accesses; }
    Cycle interval() const override { return 1000; }
    MigrationDecision onInterval(Cycle, const PlacementMap &) override
    {
        ++intervals;
        return {};
    }
    std::uint64_t hardwareCostBytes(std::uint64_t,
                                    std::uint64_t) const override
    {
        return 0;
    }

    std::uint64_t accesses = 0;
    std::uint64_t intervals = 0;
};

TEST(LoopShape, NoEngineLoopMatchesGenericLoopThatNeverDecides)
{
    Rng rng(2718);
    const auto traces = fixtures::generatedTraces(rng);
    const InjectorConfig storm = fixtures::randomStorm(rng);
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 4;

    for (const bool faulted : {false, true}) {
        SCOPED_TRACE(faulted ? "with faults" : "no faults");
        NeverDecides idle;
        ASSERT_EQ(HmaSystem::loopShape(&idle, nullptr).engine,
                  LoopEngine::Generic);
        FaultInjector bare_faults(storm), idle_faults(storm);
        const SimResult bare = HmaSystem(config).run(
            traces, fixtures::slotPlacement(), nullptr,
            faulted ? &bare_faults : nullptr);
        const SimResult generic = HmaSystem(config).run(
            traces, fixtures::slotPlacement(), &idle,
            faulted ? &idle_faults : nullptr);
        fixtures::expectSameResult(bare, generic);
        EXPECT_EQ(idle.accesses, bare.requests);
        EXPECT_GT(idle.intervals, 0u);
        if (faulted) {
            EXPECT_GT(bare.faultsInjected, 0u);
            EXPECT_EQ(bare_faults.produced(), idle_faults.produced());
        }
    }
}

} // namespace
} // namespace ramp
