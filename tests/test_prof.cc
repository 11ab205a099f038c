/**
 * @file
 * Tests for the cycle-level hot-path profiler (src/prof).
 *
 * Locks the subsystem's contracts: nested scopes account self and
 * total cycles exactly under a deterministic cycle source, the
 * cross-thread merge conserves call counts, a disabled run
 * allocates no per-thread state, PMU-unavailable hosts degrade to
 * TSC-only profiles, the exporters (ramp-profile-v1 JSON, folded
 * stacks) stay self-consistent, the profile diff flags real
 * regressions and nothing else, and the analyzer's calls view is
 * byte-identical at --jobs 1 and --jobs 4.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "perf/prof_report.hh"
#include "prof/pmu.hh"
#include "prof/prof.hh"
#include "prof/tsc.hh"
#include "runner/pool.hh"

namespace ramp
{
namespace
{

/** Deterministic cycle source: every read advances 100 cycles. */
std::atomic<std::uint64_t> fakeClock{0};

std::uint64_t
fakeCycles()
{
    return fakeClock.fetch_add(100, std::memory_order_relaxed);
}

/** Fresh, enabled profiler per test; everything off afterwards. */
class ProfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        prof::reset();
        obs::set(obs::Prof, true);
    }

    void TearDown() override
    {
        obs::set(obs::Prof, false);
        prof::detail::setCycleSourceForTest(nullptr);
        prof::pmuForceUnavailableForTest(false);
        prof::reset();
    }

    /** The snapshot phase with the given path, or nullptr. */
    static const prof::PhaseStat *
    findPhase(const prof::ProfileSnapshot &snap,
              const std::string &path)
    {
        for (const prof::PhaseStat &phase : snap.phases)
            if (phase.path == path)
                return &phase;
        return nullptr;
    }
};

TEST_F(ProfTest, NestedScopesAccountSelfAndTotalExactly)
{
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);

    {
        RAMP_PROF_SCOPE(outer, "outer"); // start read: 0
        {
            RAMP_PROF_SCOPE(inner, "inner"); // start read: 100
        } // stop read: 200 -> inner total 100
    } // stop read: 300 -> outer total 300

    const auto snap = prof::snapshot();
    const auto *outer = findPhase(snap, "outer");
    const auto *inner = findPhase(snap, "outer;inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(inner->calls, 1u);
    EXPECT_EQ(outer->totalCycles, 300u);
    EXPECT_EQ(inner->totalCycles, 100u);
    EXPECT_EQ(inner->selfCycles, 100u);
    // Self excludes exactly the child's total.
    EXPECT_EQ(outer->selfCycles, 200u);
}

TEST_F(ProfTest, RepeatedAndSiblingScopesAccumulate)
{
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);

    for (int i = 0; i < 3; ++i) {
        RAMP_PROF_SCOPE(work, "work");
        {
            RAMP_PROF_SCOPE(a, "a");
        }
        {
            RAMP_PROF_SCOPE(b, "b");
        }
    }

    const auto snap = prof::snapshot();
    const auto *work = findPhase(snap, "work");
    const auto *a = findPhase(snap, "work;a");
    const auto *b = findPhase(snap, "work;b");
    ASSERT_NE(work, nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(work->calls, 3u);
    EXPECT_EQ(a->calls, 3u);
    EXPECT_EQ(b->calls, 3u);
    // Per iteration: work spans 5 intervals of 100, a and b one
    // each; self = total - children exactly.
    EXPECT_EQ(work->totalCycles, 3u * 500u);
    EXPECT_EQ(a->totalCycles, 3u * 100u);
    EXPECT_EQ(b->totalCycles, 3u * 100u);
    EXPECT_EQ(work->selfCycles,
              work->totalCycles - a->totalCycles -
                  b->totalCycles);
}

TEST_F(ProfTest, ThreadMergeConservesCallCounts)
{
    constexpr unsigned threads = 4;
    constexpr unsigned iterations = 25;

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([] {
            for (unsigned i = 0; i < iterations; ++i) {
                RAMP_PROF_SCOPE(outer, "merge.outer");
                RAMP_PROF_SCOPE(inner, "merge.inner");
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    const auto snap = prof::snapshot();
    const auto *outer = findPhase(snap, "merge.outer");
    const auto *inner =
        findPhase(snap, "merge.outer;merge.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // The merge is exact: no call is lost or double-counted at
    // any interleaving.
    EXPECT_EQ(outer->calls, threads * iterations);
    EXPECT_EQ(inner->calls, threads * iterations);
    EXPECT_GE(outer->totalCycles, inner->totalCycles);
    EXPECT_EQ(outer->selfCycles,
              outer->totalCycles - inner->totalCycles);
}

TEST_F(ProfTest, DisabledScopesAllocateNoThreadState)
{
    obs::set(obs::Prof, false);
    const std::size_t states_before =
        prof::threadStateCountForTest();

    // A fresh thread running only disabled scopes must never
    // register per-thread state (the disabled path is one relaxed
    // load and a branch, no allocation).
    std::thread worker([] {
        for (int i = 0; i < 1000; ++i) {
            RAMP_PROF_SCOPE(scope, "disabled.phase");
            RAMP_PROF_SCOPE_PMU(pmu_scope, "disabled.pmu");
        }
    });
    worker.join();

    EXPECT_EQ(prof::threadStateCountForTest(), states_before);
    EXPECT_EQ(findPhase(prof::snapshot(), "disabled.phase"),
              nullptr);
}

TEST_F(ProfTest, PmuUnavailableDegradesToTscOnly)
{
    prof::pmuForceUnavailableForTest(true);
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);

    {
        RAMP_PROF_SCOPE_PMU(scope, "pmu.phase");
    }

    const auto snap = prof::snapshot();
    EXPECT_FALSE(snap.pmuAvailable);
    const auto *phase = findPhase(snap, "pmu.phase");
    ASSERT_NE(phase, nullptr);
    // Cycles still recorded; PMU aggregates empty, not garbage.
    EXPECT_EQ(phase->calls, 1u);
    EXPECT_EQ(phase->totalCycles, 100u);
    EXPECT_EQ(phase->pmuCalls, 0u);
    EXPECT_EQ(phase->pmuInstructions, 0u);

    // The rendered document says so too.
    JsonValue json;
    std::string error;
    ASSERT_TRUE(
        parseJson(prof::profileJson("test", 1), json, error))
        << error;
    const JsonValue *pmu = json.find("pmu");
    ASSERT_NE(pmu, nullptr);
    EXPECT_FALSE(pmu->boolOr("available", true));
}

TEST_F(ProfTest, ExportersStaySelfConsistent)
{
    fakeClock.store(0);
    prof::detail::setCycleSourceForTest(&fakeCycles);
    {
        RAMP_PROF_SCOPE(outer, "export.outer");
        RAMP_PROF_SCOPE(inner, "export.inner");
    }

    // The JSON document parses back to the same snapshot.
    perf::ProfileDoc doc;
    std::string error;
    JsonValue json;
    ASSERT_TRUE(
        parseJson(prof::profileJson("test", 2), json, error))
        << error;
    ASSERT_TRUE(perf::parseProfileDoc(json, doc, error)) << error;
    EXPECT_EQ(doc.tool, "test");
    EXPECT_EQ(doc.jobs, 2u);
    EXPECT_GT(doc.tscHz, 0.0);
    ASSERT_EQ(doc.phases.size(), 2u);
    EXPECT_EQ(doc.phases[0].path, "export.outer");
    EXPECT_EQ(doc.phases[1].path, "export.outer;export.inner");

    // Folded stacks carry exactly the nonzero self cycles.
    std::uint64_t folded_sum = 0;
    std::istringstream folded(prof::foldedStacks());
    std::string path;
    std::uint64_t self = 0;
    while (folded >> path >> self)
        folded_sum += self;
    std::uint64_t snap_sum = 0;
    for (const auto &phase : prof::snapshot().phases)
        snap_sum += phase.selfCycles;
    EXPECT_EQ(folded_sum, snap_sum);
}

/** Build a minimal synthetic profile document. */
perf::ProfileDoc
syntheticProfile(std::uint64_t hot_self)
{
    const std::string text =
        "{\"schema\": \"ramp-profile-v1\", \"tool\": \"synthetic\","
        " \"jobs\": 1,"
        " \"host\": {\"cpu_model\": \"test\", \"tsc_hz\": 1e9},"
        " \"pmu\": {\"available\": false},"
        " \"phases\": ["
        "  {\"path\": \"hot\", \"name\": \"hot\", \"depth\": 0,"
        "   \"calls\": 10, \"total_cycles\": " +
        std::to_string(hot_self) +
        ", \"self_cycles\": " + std::to_string(hot_self) +
        "},"
        "  {\"path\": \"cold\", \"name\": \"cold\", \"depth\": 0,"
        "   \"calls\": 10, \"total_cycles\": 5000000,"
        "   \"self_cycles\": 5000000}"
        " ]}";
    JsonValue json;
    perf::ProfileDoc doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, json, error)) << error;
    EXPECT_TRUE(perf::parseProfileDoc(json, doc, error)) << error;
    return doc;
}

TEST(ProfDiff, IdenticalProfilesShowZeroDelta)
{
    const auto base = syntheticProfile(100000000);
    const auto deltas = perf::diffProfiles(base, base, 25, 1000000);
    ASSERT_EQ(deltas.size(), 2u);
    for (const auto &delta : deltas) {
        EXPECT_EQ(delta.baseSelf, delta.candSelf);
        EXPECT_EQ(delta.deltaPct, 0.0);
        EXPECT_FALSE(delta.significant);
        EXPECT_FALSE(delta.regressed);
    }
}

TEST(ProfDiff, DoubledPhaseIsFlaggedSlower)
{
    const auto base = syntheticProfile(100000000);
    const auto cand = syntheticProfile(200000000);
    const auto deltas = perf::diffProfiles(base, cand, 25, 1000000);
    ASSERT_EQ(deltas.size(), 2u);
    // Path-sorted join: "cold" first, then "hot".
    EXPECT_EQ(deltas[0].path, "cold");
    EXPECT_FALSE(deltas[0].significant);
    EXPECT_EQ(deltas[1].path, "hot");
    EXPECT_TRUE(deltas[1].significant);
    EXPECT_TRUE(deltas[1].regressed);
    EXPECT_NEAR(deltas[1].deltaPct, 100.0, 1e-9);

    // Below the cycle floor nothing fires, whatever the percent.
    const auto small_base = syntheticProfile(100);
    const auto small_cand = syntheticProfile(200);
    for (const auto &delta :
         perf::diffProfiles(small_base, small_cand, 25, 1000000))
        EXPECT_FALSE(delta.significant);
}

TEST(ProfDiff, NewPhaseReportedAsNew)
{
    auto base = syntheticProfile(100000000);
    const auto cand = syntheticProfile(100000000);
    base.phases.pop_back(); // drop "cold" from the baseline
    const auto deltas = perf::diffProfiles(base, cand, 25, 1000000);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_EQ(deltas[0].path, "cold");
    EXPECT_FALSE(deltas[0].inBase);
    EXPECT_TRUE(deltas[0].inCand);
    EXPECT_TRUE(deltas[0].significant);
    EXPECT_TRUE(deltas[0].regressed);
}

TEST_F(ProfTest, CallsViewIsInvariantAcrossJobs)
{
    const auto run_campaign = [](unsigned jobs) {
        prof::reset();
        runner::ThreadPool pool(jobs);
        pool.runIndexed(64, [](std::size_t index) {
            RAMP_PROF_SCOPE(task, "campaign.task");
            for (std::size_t i = 0; i <= index % 3; ++i) {
                RAMP_PROF_SCOPE(step, "campaign.step");
            }
        });
        JsonValue json;
        perf::ProfileDoc doc;
        std::string error;
        EXPECT_TRUE(parseJson(
            prof::profileJson("campaign", jobs), json, error))
            << error;
        EXPECT_TRUE(perf::parseProfileDoc(json, doc, error))
            << error;
        return perf::renderCalls(doc);
    };

    const std::string serial = run_campaign(1);
    const std::string parallel = run_campaign(4);
    EXPECT_FALSE(serial.empty());
    // Aggregated structure (phase paths + call counts) must be
    // byte-identical at any pool width; only raw cycles may move.
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace ramp
