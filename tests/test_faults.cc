/**
 * @file
 * Tests for the online fault-injection subsystem (src/faults):
 * the --inject grammar, the deterministic injector, the response
 * state machine, and end-to-end graceful degradation through
 * HmaSystem.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "faults/injector.hh"
#include "faults/plan.hh"
#include "faults/response.hh"
#include "hma/system.hh"
#include "migration/engine.hh"
#include "placement/profile.hh"

namespace ramp
{
namespace
{

// ---------------------------------------------------------------
// Plan grammar

TEST(FaultPlan, ParsesAndRoundTrips)
{
    std::string error;
    const auto plan = parseFaultPlan(
        "correctable:page=64,count=8,epoch=2;"
        "uncorrected:page=1234,epoch=3;"
        "capacity:tier=hbm,pct=25,epoch=5;"
        "capacity:tier=ddr,pages=16,epoch=7",
        error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0].kind, FaultEventKind::Correctable);
    EXPECT_EQ(plan[0].page, 64u);
    EXPECT_EQ(plan[0].count, 8u);
    EXPECT_EQ(plan[1].kind, FaultEventKind::Uncorrected);
    EXPECT_EQ(plan[1].page, 1234u);
    EXPECT_EQ(plan[1].epoch, 3u);
    EXPECT_EQ(plan[2].kind, FaultEventKind::CapacityLoss);
    EXPECT_EQ(plan[2].tier, MemoryId::HBM);
    EXPECT_DOUBLE_EQ(plan[2].pct, 25.0);
    EXPECT_EQ(plan[3].tier, MemoryId::DDR);
    EXPECT_EQ(plan[3].pages, 16u);

    // format -> parse -> format is a fixed point (the canonical
    // spelling), like the RegionScheme grammar.
    const std::string canonical = formatFaultPlan(plan);
    std::string error2;
    const auto reparsed = parseFaultPlan(canonical, error2);
    ASSERT_TRUE(error2.empty()) << error2;
    EXPECT_EQ(formatFaultPlan(reparsed), canonical);
}

TEST(FaultPlan, AcceptsAnyFieldOrder)
{
    std::string a_err, b_err;
    const auto a =
        parseFaultPlan("uncorrected:epoch=4,page=9", a_err);
    const auto b =
        parseFaultPlan("uncorrected:page=9,epoch=4", b_err);
    ASSERT_TRUE(a_err.empty() && b_err.empty());
    EXPECT_EQ(formatFaultPlan(a), formatFaultPlan(b));
}

TEST(FaultPlan, RejectsMalformedPlans)
{
    const char *bad[] = {
        "",                                  // no events
        "meltdown:page=1",                   // unknown kind
        "uncorrected:epoch=2",               // strike without a page
        "correctable:page=1,count=0",        // empty burst
        "capacity:tier=hbm,epoch=2",         // loss without a size
        "capacity:tier=hbm,pct=150",         // over 100%
        "capacity:tier=l4,pct=10",           // unknown tier
        "uncorrected:page=-3",               // negative number
        "uncorrected:page=1,epoch",          // field without value
        "uncorrected:page=1,epock=3"         // unknown field
    };
    for (const char *text : bad) {
        std::string error;
        const auto plan = parseFaultPlan(text, error);
        EXPECT_TRUE(plan.empty()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(FaultPlan, RejectsNonFiniteAndOutOfRangeNumbers)
{
    // Every numeric field refuses NaN, infinities and values its
    // type cannot hold, with the grammar's existing message; an
    // infinite pct keeps validation's "above 100".
    const std::pair<const char *, const char *> cases[] = {
        {"uncorrected:page=nan", "fault plan: bad number in 'page=nan'"},
        {"uncorrected:page=inf", "fault plan: bad number in 'page=inf'"},
        {"uncorrected:page=1e30",
         "fault plan: bad number in 'page=1e30'"},
        {"uncorrected:page=18446744073709551616",
         "fault plan: bad number in 'page=18446744073709551616'"},
        {"uncorrected:page=7,epoch=nan",
         "fault plan: bad number in 'epoch=nan'"},
        {"uncorrected:page=7,epoch=inf",
         "fault plan: bad number in 'epoch=inf'"},
        {"uncorrected:page=7,epoch=1e20",
         "fault plan: bad number in 'epoch=1e20'"},
        {"correctable:page=7,count=nan",
         "fault plan: bad number in 'count=nan'"},
        {"correctable:page=7,count=inf",
         "fault plan: bad number in 'count=inf'"},
        {"correctable:page=7,count=1e20",
         "fault plan: bad number in 'count=1e20'"},
        {"capacity:tier=hbm,pct=nan",
         "fault plan: bad number in 'pct=nan'"},
        {"capacity:tier=hbm,pct=inf",
         "fault plan: capacity pct above 100"},
        {"capacity:tier=hbm,pct=1e400",
         "fault plan: capacity pct above 100"},
        {"capacity:tier=hbm,pages=nan",
         "fault plan: bad number in 'pages=nan'"},
        {"capacity:tier=hbm,pages=inf",
         "fault plan: bad number in 'pages=inf'"},
        {"capacity:tier=hbm,pages=1e20",
         "fault plan: bad number in 'pages=1e20'"},
    };
    for (const auto &[text, message] : cases) {
        std::string error;
        EXPECT_TRUE(parseFaultPlan(text, error).empty()) << text;
        EXPECT_EQ(error, message) << text;
    }
}

// ---------------------------------------------------------------
// Injector

TEST(FaultInjector, FaultsPerEpochFollowsFitMath)
{
    const FitRates rates = FitRates::fieldStudyDdr();
    // total FIT x chips / 1e9, scaled to the epoch's hours.
    const double expected = rates.total() * 18 / 1e9 * 2.5;
    EXPECT_DOUBLE_EQ(
        InjectorConfig::faultsPerEpoch(rates, 18, 2.5), expected);
}

TEST(FaultInjector, ScriptFiresOnceWithCatchUp)
{
    InjectorConfig config;
    std::string error;
    config.script = parseFaultPlan(
        "uncorrected:page=7,epoch=2;correctable:page=3,epoch=4",
        error);
    ASSERT_TRUE(error.empty());
    FaultInjector injector(config);

    EXPECT_TRUE(injector.onEpoch(1).empty());
    // Epoch 3 never saw onEpoch(2): the epoch-2 event catches up.
    const auto at3 = injector.onEpoch(3);
    ASSERT_EQ(at3.size(), 1u);
    EXPECT_EQ(at3[0].kind, FaultEventKind::Uncorrected);
    EXPECT_EQ(at3[0].page, 7u);
    EXPECT_EQ(at3[0].source, FaultSource::Script);
    // Fires exactly once.
    const auto at4 = injector.onEpoch(4);
    ASSERT_EQ(at4.size(), 1u);
    EXPECT_EQ(at4[0].kind, FaultEventKind::Correctable);
    EXPECT_TRUE(injector.onEpoch(5).empty());
    EXPECT_EQ(injector.produced(), 2u);
}

TEST(FaultInjector, PoissonScheduleIsSeedDeterministic)
{
    InjectorConfig config;
    config.poissonFaultsPerEpoch = 1.5;
    config.seed = 42;
    FaultInjector a(config), b(config);
    for (PageId page = 0; page < 64; ++page) {
        a.onAccess(page, page % 3 == 0, MemoryId::DDR);
        b.onAccess(page, page % 3 == 0, MemoryId::DDR);
    }
    for (std::uint64_t epoch = 1; epoch <= 10; ++epoch) {
        const auto fa = a.onEpoch(epoch);
        const auto fb = b.onEpoch(epoch);
        ASSERT_EQ(fa.size(), fb.size()) << "epoch " << epoch;
        for (std::size_t i = 0; i < fa.size(); ++i) {
            EXPECT_EQ(fa[i].kind, fb[i].kind);
            EXPECT_EQ(fa[i].page, fb[i].page);
            EXPECT_EQ(fa[i].source, FaultSource::Poisson);
        }
    }
    EXPECT_EQ(a.produced(), b.produced());
    EXPECT_GT(a.produced(), 0u);
}

TEST(FaultInjector, HammerStrikesTheNeighbourDeterministically)
{
    InjectorConfig config;
    config.hammerThreshold = 4;
    FaultInjector injector(config);
    for (int i = 0; i < 5; ++i) // over threshold, under 2x
        injector.onAccess(7, false, MemoryId::HBM);
    for (int i = 0; i < 8; ++i) // at 2x: escalates
        injector.onAccess(20, true, MemoryId::HBM);
    const auto faults = injector.onEpoch(1);
    ASSERT_EQ(faults.size(), 2u);
    // Victims in ascending aggressor order: page+1 each.
    EXPECT_EQ(faults[0].page, 8u);
    EXPECT_EQ(faults[0].kind, FaultEventKind::Correctable);
    EXPECT_EQ(faults[1].page, 21u);
    EXPECT_EQ(faults[1].kind, FaultEventKind::Uncorrected);
    EXPECT_EQ(faults[0].source, FaultSource::Hammer);
    // Activation counts reset per epoch.
    EXPECT_TRUE(injector.onEpoch(2).empty());
}

TEST(FaultInjector, ScheduleIsPinnedForFixedSeeds)
{
    // Poisson victims are drawn from the first-touch population and
    // hammer victims from per-epoch activation counts; a mixed
    // stream of eight hot aggressors and scattered cold pages must
    // produce exactly this schedule for each seed.
    const auto schedule = [](std::uint64_t seed) {
        InjectorConfig config;
        config.seed = seed;
        config.poissonFaultsPerEpoch = 2.0;
        config.poissonUncorrectedShare = 0.25;
        config.hammerThreshold = 8;
        FaultInjector injector(config);
        Rng stream(seed + 1);
        std::vector<std::string> faults;
        for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
            for (int i = 0; i < 300; ++i) {
                const PageId page =
                    stream.nextBool(0.3)
                        ? 1000 + 17 * stream.nextRange(8)
                        : stream.nextRange(1 << 20);
                injector.onAccess(page, stream.nextBool(0.3),
                                  MemoryId::DDR);
            }
            for (const InjectedFault &fault : injector.onEpoch(epoch)) {
                std::ostringstream line;
                line << 'e' << epoch << ' '
                     << faultSourceName(fault.source) << ' ' << fault.page
                     << (fault.kind == FaultEventKind::Uncorrected ? " U"
                                                                   : " C");
                faults.push_back(line.str());
            }
        }
        return faults;
    };
    EXPECT_EQ(schedule(7), (std::vector<std::string>{
        "e1 poisson 349771 C",
        "e1 poisson 970264 C",
        "e1 poisson 209338 C",
        "e1 poisson 6916 C",
        "e1 poisson 299073 C",
        "e1 poisson 476636 U",
        "e1 hammer 1018 C",
        "e1 hammer 1052 C",
        "e1 hammer 1069 C",
        "e1 hammer 1086 U",
        "e1 hammer 1103 C",
        "e2 hammer 1001 C",
        "e2 hammer 1018 C",
        "e2 hammer 1052 C",
        "e2 hammer 1069 C",
        "e2 hammer 1086 C",
        "e2 hammer 1103 C",
        "e2 hammer 1120 C",
        "e3 poisson 156666 C",
        "e3 hammer 1035 C",
        "e3 hammer 1052 U",
        "e3 hammer 1069 C",
        "e3 hammer 1086 C",
        "e3 hammer 1103 C",
        "e4 poisson 1039811 C",
        "e4 hammer 1001 C",
        "e4 hammer 1018 C",
        "e4 hammer 1035 C",
        "e4 hammer 1052 C",
        "e4 hammer 1069 C",
        "e4 hammer 1086 C",
        "e4 hammer 1103 C",
        "e4 hammer 1120 C",
    }));
    EXPECT_EQ(schedule(2026), (std::vector<std::string>{
        "e1 poisson 248087 C",
        "e1 poisson 244371 C",
        "e1 hammer 1001 C",
        "e1 hammer 1018 C",
        "e1 hammer 1052 C",
        "e1 hammer 1069 C",
        "e1 hammer 1086 C",
        "e1 hammer 1103 C",
        "e1 hammer 1120 C",
        "e2 poisson 905784 C",
        "e2 poisson 396821 C",
        "e2 poisson 694126 U",
        "e2 poisson 298770 C",
        "e2 hammer 1001 C",
        "e2 hammer 1018 C",
        "e2 hammer 1035 C",
        "e2 hammer 1052 C",
        "e2 hammer 1069 C",
        "e2 hammer 1086 C",
        "e2 hammer 1103 C",
        "e2 hammer 1120 C",
        "e3 hammer 1001 C",
        "e3 hammer 1018 U",
        "e3 hammer 1035 C",
        "e3 hammer 1052 C",
        "e3 hammer 1069 C",
        "e3 hammer 1086 C",
        "e3 hammer 1103 C",
        "e3 hammer 1120 C",
        "e4 poisson 453743 U",
        "e4 poisson 220466 C",
        "e4 hammer 1018 U",
        "e4 hammer 1035 C",
        "e4 hammer 1052 C",
        "e4 hammer 1069 C",
        "e4 hammer 1086 C",
        "e4 hammer 1103 C",
    }));
}

// ---------------------------------------------------------------
// Response state

TEST(ResponseState, BackoffGrowsAndGivesUp)
{
    ResponseState response(3);
    response.queueRemap(5, 1);
    response.queueRemap(5, 1); // dedup
    EXPECT_EQ(response.backlog(), 1u);
    EXPECT_TRUE(response.dueRemaps(1).empty()); // due next epoch
    EXPECT_EQ(response.dueRemaps(2),
              (std::vector<PageId>{5}));

    EXPECT_FALSE(response.backoff(5, 2)); // attempt 1: due at 2+2
    EXPECT_TRUE(response.dueRemaps(3).empty());
    EXPECT_EQ(response.dueRemaps(4), (std::vector<PageId>{5}));
    EXPECT_FALSE(response.backoff(5, 4)); // attempt 2: due at 4+4
    EXPECT_TRUE(response.backoff(5, 8));  // attempt 3: out of tries
    EXPECT_EQ(response.backlog(), 0u);
    EXPECT_EQ(response.retries(), 3u);

    EXPECT_FALSE(response.degraded());
    response.setDegraded();
    EXPECT_TRUE(response.degraded());
}

TEST(ResponseState, SweepVictimsColdestFirstSkipsPinned)
{
    PlacementMap map(4);
    map.place(1, MemoryId::HBM);
    map.place(2, MemoryId::HBM);
    map.place(3, MemoryId::HBM);
    map.placePinned(4, MemoryId::HBM);

    PageProfile profile;
    for (int i = 0; i < 9; ++i)
        profile.recordAccess(1, false); // hottest
    profile.recordAccess(3, false);     // lukewarm
    // page 2 untouched: coldest
    const auto hotness = [&](PageId page) {
        return profile.statsOf(page).hotness();
    };

    const auto victims = sweepVictims(map, hotness, 8);
    EXPECT_EQ(victims, (std::vector<PageId>{2, 3, 1}));
    // Budget truncates from the cold end.
    EXPECT_EQ(sweepVictims(map, hotness, 1),
              (std::vector<PageId>{2}));
    EXPECT_TRUE(sweepVictims(map, hotness, 0).empty());
}

// ---------------------------------------------------------------
// End to end through HmaSystem

SystemConfig
faultConfig()
{
    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 2;
    config.fcIntervalCycles = 10000;
    config.meaIntervalCycles = 1000;
    return config;
}

std::vector<CoreTrace>
faultTraces(int pages, int requests)
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
            req.isWrite = (i % 4) == 0;
            traces[static_cast<std::size_t>(core)].push_back(req);
        }
    }
    return traces;
}

PlacementMap
hbmHeavyPlacement(const SystemConfig &config, int pages)
{
    PlacementMap map(config.hbmPages());
    const int in_hbm = std::min<int>(
        pages, static_cast<int>(config.hbmPages()));
    for (PageId page = 0;
         page < static_cast<PageId>(in_hbm); ++page)
        map.place(page, MemoryId::HBM);
    return map;
}

InjectorConfig
stormConfig()
{
    InjectorConfig faults;
    std::string error;
    faults.script = parseFaultPlan(
        "uncorrected:page=3,epoch=1;"
        "capacity:tier=hbm,pct=25,epoch=2;"
        "correctable:page=1,count=4,epoch=3",
        error);
    EXPECT_TRUE(error.empty()) << error;
    faults.epochCycles = 2000;
    return faults;
}

TEST(FaultSystem, InactiveInjectorMatchesNoInjector)
{
    const auto config = faultConfig();
    const auto traces = faultTraces(16, 3000);

    HmaSystem plain_system(config);
    const auto plain = plain_system.run(
        traces, hbmHeavyPlacement(config, 16));

    InjectorConfig idle; // no sources configured
    idle.epochCycles = 2000;
    FaultInjector injector(idle);
    HmaSystem faulted_system(config);
    const auto faulted = faulted_system.run(
        traces, hbmHeavyPlacement(config, 16), nullptr, &injector);

    EXPECT_EQ(plain.makespan, faulted.makespan);
    EXPECT_EQ(plain.ipc, faulted.ipc);
    EXPECT_EQ(plain.ser, faulted.ser);
    EXPECT_EQ(faulted.faultsInjected, 0u);
    EXPECT_FALSE(faulted.degraded);
}

TEST(FaultSystem, StormDegradesButCompletesStatic)
{
    const auto config = faultConfig();
    const auto traces = faultTraces(16, 3000);

    FaultInjector injector(stormConfig());
    HmaSystem system(config);
    const auto result = system.run(
        traces, hbmHeavyPlacement(config, 16), nullptr, &injector);

    EXPECT_GT(result.makespan, 0u); // completed, did not abort
    EXPECT_GE(result.faultsInjected, 3u);
    EXPECT_EQ(result.pagesRetired, 1u);
    EXPECT_GT(result.capacityLostPages, 0u);
    EXPECT_TRUE(result.degraded);
}

TEST(FaultSystem, StormDegradesButCompletesUnderEngines)
{
    const auto config = faultConfig();
    const auto traces = faultTraces(16, 3000);

    FcReliabilityMigration fc(config.fcIntervalCycles, 64);
    CrossCounterMigration cc(config.meaIntervalCycles,
                             config.fcPerMea());
    for (MigrationEngine *engine :
         {static_cast<MigrationEngine *>(&fc),
          static_cast<MigrationEngine *>(&cc)}) {
        FaultInjector injector(stormConfig());
        HmaSystem system(config);
        const auto result = system.run(
            traces, hbmHeavyPlacement(config, 16), engine,
            &injector);
        EXPECT_GT(result.makespan, 0u) << engine->name();
        EXPECT_TRUE(result.degraded) << engine->name();
        EXPECT_EQ(result.pagesRetired, 1u) << engine->name();
    }
}

TEST(FaultSystem, SameSeedSameSchedule)
{
    const auto config = faultConfig();
    const auto traces = faultTraces(16, 3000);

    InjectorConfig faults = stormConfig();
    faults.poissonFaultsPerEpoch = 0.5;
    faults.seed = 99;

    SimResult results[2];
    for (auto &result : results) {
        FaultInjector injector(faults);
        HmaSystem system(config);
        result = system.run(traces, hbmHeavyPlacement(config, 16),
                            nullptr, &injector);
    }
    EXPECT_EQ(results[0].makespan, results[1].makespan);
    EXPECT_EQ(results[0].ser, results[1].ser);
    EXPECT_EQ(results[0].faultsInjected,
              results[1].faultsInjected);
    EXPECT_EQ(results[0].pagesRetired, results[1].pagesRetired);
    EXPECT_EQ(results[0].responseMoves, results[1].responseMoves);
    EXPECT_GT(results[0].faultsInjected, 3u); // Poisson fired too
}

} // namespace
} // namespace ramp
