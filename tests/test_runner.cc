/**
 * @file
 * Tests for the parallel experiment runner (src/runner): the
 * deterministic thread pool, the profile cache (memory and disk
 * layers), the result sink, fault containment in runPasses(), and
 * FaultSim trial sharding.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/obs.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "reliability/faultsim.hh"
#include "runner/harness.hh"

namespace ramp
{
namespace
{

using runner::Harness;
using runner::PassDesc;
using runner::PassError;
using runner::PassErrorCode;
using runner::PassStatus;
using runner::ProfileCache;
using runner::ProfiledWorkloadPtr;
using runner::RatioColumn;
using runner::RunnerOptions;
using runner::ThreadPool;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

GeneratorOptions
smallTraces()
{
    GeneratorOptions options;
    options.traceScale = 0.02;
    return options;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.migratedPages, b.migratedPages);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.mpki, b.mpki);
    EXPECT_DOUBLE_EQ(a.ser, b.ser);
    EXPECT_DOUBLE_EQ(a.memoryAvf, b.memoryAvf);
    EXPECT_DOUBLE_EQ(a.avgReadLatency, b.avgReadLatency);
    EXPECT_DOUBLE_EQ(a.hbmAccessFraction, b.hbmAccessFraction);
}

TEST(TaskSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(runner::taskSeed(42, 0), runner::taskSeed(42, 0));
    EXPECT_NE(runner::taskSeed(42, 0), runner::taskSeed(42, 1));
    EXPECT_NE(runner::taskSeed(42, 0), runner::taskSeed(43, 0));
    // Zero inputs must still produce a usable stream.
    EXPECT_NE(runner::taskSeed(0, 0), 0u);
}

TEST(ThreadPool, MapIndexCollectsInOrder)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    const auto squares =
        pool.mapIndex(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(1000);
    pool.runIndexed(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, NestedMapDoesNotDeadlock)
{
    ThreadPool pool(2);
    const auto sums = pool.mapIndex(8, [&](std::size_t outer) {
        const auto inner = pool.mapIndex(
            8, [&](std::size_t i) { return outer * 100 + i; });
        std::size_t sum = 0;
        for (const auto value : inner)
            sum += value;
        return sum;
    });
    for (std::size_t outer = 0; outer < sums.size(); ++outer)
        EXPECT_EQ(sums[outer], outer * 800 + 28);
}

TEST(ThreadPool, RethrowsFirstTaskException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.runIndexed(64,
                                 [](std::size_t i) {
                                     if (i == 5)
                                         throw std::invalid_argument(
                                             "task 5 boom");
                                 }),
                 std::invalid_argument);
    // The pool must stay usable after a failed batch.
    const auto values =
        pool.mapIndex(8, [](std::size_t i) { return i + 1; });
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i], i + 1);
}

TEST(ThreadPool, CancellationStopsDispatch)
{
    runner::clearCancellation();
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    runner::requestCancellation();
    pool.runIndexed(100, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 0);
    runner::clearCancellation();
    pool.runIndexed(10, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 10);
}

TEST(PassErrorTaxonomy, ClassifiesCommonExceptions)
{
    const auto classify = [](auto &&thrower) {
        try {
            thrower();
        } catch (...) {
            return runner::describeException(
                std::current_exception());
        }
        return runner::ErrorInfo{};
    };
    EXPECT_EQ(classify([] {
                  throw std::invalid_argument("bad spec");
              }).code,
              PassErrorCode::InvalidInput);
    EXPECT_EQ(classify([] { throw std::bad_alloc(); }).code,
              PassErrorCode::OutOfMemory);
    EXPECT_EQ(classify([] {
                  throw std::logic_error("broken invariant");
              }).code,
              PassErrorCode::Internal);
    EXPECT_EQ(classify([] {
                  throw PassError(PassErrorCode::Corrupt,
                                  "bad checksum");
              }).code,
              PassErrorCode::Corrupt);
    EXPECT_EQ(classify([] { throw 42; }).code,
              PassErrorCode::Unknown);
    EXPECT_EQ(classify([] {
                  throw std::invalid_argument("msg text");
              }).message,
              "msg text");
    EXPECT_STREQ(
        runner::passErrorCodeName(PassErrorCode::InvalidInput),
        "invalid-input");
    EXPECT_STREQ(runner::passStatusName(PassStatus::Failed),
                 "failed");
}

TEST(ThreadPool, SimulationPassesMatchSerial)
{
    const SystemConfig config = SystemConfig::scaledDefault();
    const auto data =
        prepareWorkload(homogeneousWorkload("astar"), smallTraces());
    const SimResult base = runDdrOnly(config, data);

    const std::vector<StaticPolicy> policies = {
        StaticPolicy::PerfFocused, StaticPolicy::Balanced,
        StaticPolicy::WrRatio, StaticPolicy::Wr2Ratio};

    std::vector<SimResult> serial;
    for (const StaticPolicy policy : policies)
        serial.push_back(
            runStaticPolicy(config, data, policy, base.profile));

    ThreadPool pool(4);
    const auto parallel =
        pool.map(policies, [&](const StaticPolicy policy) {
            return runStaticPolicy(config, data, policy,
                                   base.profile);
        });

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(parallel[i], serial[i]);
}

TEST(ProfileCache, MemoryHitSharesOneComputation)
{
    const SystemConfig config = SystemConfig::scaledDefault();
    ProfileCache cache;
    const auto first = cache.get(
        config, homogeneousWorkload("astar"), smallTraces());
    const auto second = cache.get(
        config, homogeneousWorkload("astar"), smallTraces());
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().memoryHits, 1u);
    EXPECT_EQ(cache.stats().diskHits, 0u);
    EXPECT_GT(first->profile().footprintPages(), 0u);
}

TEST(ProfileCache, DistinctKeysDistinctEntries)
{
    const SystemConfig config = SystemConfig::scaledDefault();
    SystemConfig other = config;
    other.robSize = config.robSize / 2;
    ProfileCache cache;
    const auto a = cache.get(config, homogeneousWorkload("astar"),
                             smallTraces());
    const auto b = cache.get(other, homogeneousWorkload("astar"),
                             smallTraces());
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_NE(
        ProfileCache::fingerprint(config,
                                  homogeneousWorkload("astar"),
                                  smallTraces()),
        ProfileCache::fingerprint(other,
                                  homogeneousWorkload("astar"),
                                  smallTraces()));
}

TEST(ProfileCache, DiskLayerSkipsReprofiling)
{
    const SystemConfig config = SystemConfig::scaledDefault();
    const std::string dir =
        ::testing::TempDir() + "ramp_runner_cache";
    std::filesystem::remove_all(dir); // stale runs must not hit
    const auto spec = homogeneousWorkload("astar");

    ProfileCache writer;
    writer.setDiskDir(dir);
    const auto computed = writer.get(config, spec, smallTraces());
    EXPECT_EQ(writer.stats().misses, 1u);
    EXPECT_EQ(writer.stats().diskWrites, 1u);

    // A fresh process-equivalent: new cache, same directory.
    ProfileCache reader;
    reader.setDiskDir(dir);
    const auto loaded = reader.get(config, spec, smallTraces());
    EXPECT_EQ(reader.stats().misses, 0u);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    expectSameResult(loaded->base, computed->base);
    EXPECT_EQ(loaded->profile().footprintPages(),
              computed->profile().footprintPages());
    for (const auto &[page, stats] : computed->profile().pages()) {
        const auto restored = loaded->profile().statsOf(page);
        EXPECT_EQ(restored.reads, stats.reads);
        EXPECT_EQ(restored.writes, stats.writes);
        EXPECT_DOUBLE_EQ(restored.avf, stats.avf);
    }
    // Traces are regenerated, not stored: same shape either way.
    ASSERT_EQ(loaded->data.traces.size(),
              computed->data.traces.size());
}

TEST(ProfileCache, BaselineRoundTripRejectsMismatch)
{
    const SystemConfig config = SystemConfig::scaledDefault();
    const auto data =
        prepareWorkload(homogeneousWorkload("astar"), smallTraces());
    const SimResult base = runDdrOnly(config, data);

    const auto bytes =
        ProfileCache::serializeBaseline("key-a", base);
    SimResult restored;
    ASSERT_TRUE(
        ProfileCache::deserializeBaseline(bytes, "key-a", restored));
    expectSameResult(restored, base);

    SimResult rejected;
    EXPECT_FALSE(ProfileCache::deserializeBaseline(bytes, "key-b",
                                                   rejected));
    auto truncated = bytes;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(ProfileCache::deserializeBaseline(
        truncated, "key-a", rejected));
}

TEST(FaultSim, ShardingIndependentOfPool)
{
    const FaultSim sim(FaultSimConfig::hbmSecDed());
    // 125000 trials = two shards; run serially and on two pools.
    const auto serial = sim.run(125000, 42);
    ThreadPool pool2(2), pool4(4);
    const auto on2 = sim.run(125000, 42, &pool2);
    const auto on4 = sim.run(125000, 42, &pool4);
    for (const auto *result : {&on2, &on4}) {
        EXPECT_DOUBLE_EQ(result->pUncorrected, serial.pUncorrected);
        EXPECT_DOUBLE_EQ(result->fitUncorrectedPerRank,
                         serial.fitUncorrectedPerRank);
        EXPECT_DOUBLE_EQ(result->fitUncorrectedPerGB,
                         serial.fitUncorrectedPerGB);
    }
}

TEST(RatioColumn, MeanAndCells)
{
    RatioColumn empty;
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.averageCell(), "-");

    RatioColumn column;
    EXPECT_DOUBLE_EQ(column.add(0.8), 0.8);
    column.add(0.9);
    EXPECT_NEAR(column.mean(), 0.85, 1e-12);
    EXPECT_EQ(column.averageCell(), "0.85x");
    EXPECT_EQ(column.lossCell(), "15.0%");
    EXPECT_DOUBLE_EQ(
        runner::meanRatio(std::span<const double>(column.values())),
        column.mean());
}

TEST(RunnerOptions, ParsesFlagsAndPositionals)
{
    const char *argv[] = {"tool",  "--jobs", "3",     "alpha",
                          "--json", "out.json", "-j",  "5",
                          "--cache-dir", "cachedir", "beta"};
    const auto options = RunnerOptions::parse(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(options.jobs, 5u);
    EXPECT_EQ(options.jsonPath, "out.json");
    EXPECT_EQ(options.cacheDir, "cachedir");
    ASSERT_EQ(options.positional.size(), 2u);
    EXPECT_EQ(options.positional[0], "alpha");
    EXPECT_EQ(options.positional[1], "beta");
}

TEST(RunnerOptions, ParsesCheckpointAndTimeoutFlags)
{
    const char *argv[] = {"tool", "--checkpoint", "ckptdir",
                          "--pass-timeout", "2.5", "--bench-out",
                          "BENCH_tool.json"};
    const auto options = RunnerOptions::parse(
        static_cast<int>(std::size(argv)),
        const_cast<char **>(argv));
    EXPECT_EQ(options.checkpointDir, "ckptdir");
    EXPECT_DOUBLE_EQ(options.passTimeout, 2.5);
    EXPECT_EQ(options.benchPath, "BENCH_tool.json");
}

TEST(DerivedRatios, HitRateAndAccessShareSemantics)
{
    // hitRate: hits out of hits+misses.
    EXPECT_DOUBLE_EQ(runner::hitRate(3, 1), 0.75);
    EXPECT_DOUBLE_EQ(runner::hitRate(0, 5), 0.0);
    EXPECT_DOUBLE_EQ(runner::hitRate(5, 0), 1.0);
    EXPECT_TRUE(std::isnan(runner::hitRate(0, 0)));

    // accessShare: one memory's share of the combined traffic. The
    // arithmetic matches hitRate but the second argument is the
    // *other* memory's traffic, not a miss count.
    EXPECT_DOUBLE_EQ(runner::accessShare(600, 400), 0.6);
    EXPECT_DOUBLE_EQ(runner::accessShare(0, 400), 0.0);
    EXPECT_TRUE(std::isnan(runner::accessShare(0, 0)));
}

TEST(RunnerOptions, RejectsBadFlagsWithUsageErrors)
{
    const auto expect_usage = [](std::vector<const char *> argv) {
        try {
            RunnerOptions::parse(static_cast<int>(argv.size()),
                                 const_cast<char **>(argv.data()));
            FAIL() << "expected PassError(Usage)";
        } catch (const PassError &error) {
            EXPECT_EQ(error.code(), PassErrorCode::Usage);
            EXPECT_FALSE(std::string(error.what()).empty());
        }
    };
    expect_usage({"tool", "--jobs", "zero"});
    expect_usage({"tool", "--jobs", "0"});
    expect_usage({"tool", "--pass-timeout", "nope"});
    expect_usage({"tool", "--pass-timeout", "-1"});
    expect_usage({"tool", "--checkpoint"});
    expect_usage({"tool", "--json"});

    // The ledger knobs are environment-only and validated up front.
    for (const char *env : {"RAMP_EVENTS_LIMIT", "RAMP_EVENTS_DUMP"}) {
        for (const char *bad : {"abc", "-1", "12x", ""}) {
            ::setenv(env, bad, 1);
            expect_usage({"tool"});
        }
        ::unsetenv(env);
    }
    ::setenv("RAMP_EVENTS_LIMIT", "12", 1);
    ::setenv("RAMP_EVENTS_DUMP", "0", 1);
    const char *argv[] = {"tool"};
    const auto options =
        RunnerOptions::parse(1, const_cast<char **>(argv));
    EXPECT_EQ(options.eventsLimit, 12u);
    EXPECT_EQ(options.eventsDump, 0u);
    ::unsetenv("RAMP_EVENTS_LIMIT");
    ::unsetenv("RAMP_EVENTS_DUMP");

    // Negative and overflowing counts are refused, not wrapped or
    // saturated: 4294967297 would cast to one worker.
    expect_usage({"tool", "--jobs", "-1"});
    expect_usage({"tool", "--jobs", "4294967297"});
    expect_usage({"tool", "--sample-ms", "4294967306"});
    expect_usage({"tool", "--pass-timeout", "inf"});
    ::setenv("RAMP_EVENTS_LIMIT", "99999999999999999999", 1);
    expect_usage({"tool"});
    ::unsetenv("RAMP_EVENTS_LIMIT");

    // RAMP_JOBS reads through the same reader, with --jobs's error.
    const auto message = [](std::vector<const char *> argv) {
        try {
            RunnerOptions::parse(static_cast<int>(argv.size()),
                                 const_cast<char **>(argv.data()));
        } catch (const PassError &error) {
            EXPECT_EQ(error.code(), PassErrorCode::Usage);
            return std::string(error.what());
        }
        return std::string("parsed");
    };
    for (const char *bad : {"4x", "abc", "0", "-1", "4294967297", ""}) {
        ::setenv("RAMP_JOBS", bad, 1);
        EXPECT_EQ(message({"tool"}),
                  message({"tool", "--jobs", bad}))
            << bad;
        EXPECT_EQ(message({"tool"}),
                  std::string("--jobs needs a positive integer, got '") +
                      bad + "'");
    }
    ::setenv("RAMP_JOBS", "3", 1);
    EXPECT_EQ(RunnerOptions::parse(1, const_cast<char **>(argv)).jobs,
              3u);
    const char *flag_wins[] = {"tool", "--jobs", "5"};
    EXPECT_EQ(
        RunnerOptions::parse(3, const_cast<char **>(flag_wins)).jobs,
        5u);
    ::unsetenv("RAMP_JOBS");
}

/** One output flag as the runner documents it. */
struct OutputCase
{
    const char *flag;
    const char *env;
    std::string RunnerOptions::*value;

    /** obs:: layers it switches on. */
    std::uint8_t layers;

    /** (suffix, noun) of each file it writes, in order. */
    std::vector<std::pair<std::string, std::string>> files;
};

std::vector<OutputCase>
outputCases()
{
    constexpr std::uint8_t monitor =
        obs::Telemetry | obs::Events | obs::Health;
    return {
        {"--json", "RAMP_JSON", &RunnerOptions::jsonPath, 0,
         {{"", "JSON report"}}},
        {"--metrics-out", "RAMP_METRICS_OUT",
         &RunnerOptions::metricsPath, obs::Telemetry,
         {{"", "metrics snapshot"}}},
        {"--trace-out", "RAMP_TRACE_OUT", &RunnerOptions::tracePath,
         obs::Trace, {{"", "trace"}}},
        {"--bench-out", "RAMP_BENCH_OUT", &RunnerOptions::benchPath,
         obs::Telemetry, {{"", "bench report"}}},
        {"--events-out", "RAMP_EVENTS_OUT", &RunnerOptions::eventsPath,
         obs::Events, {{"", "events file"}}},
        {"--timeline-out", "RAMP_TIMELINE_OUT",
         &RunnerOptions::timelinePath, monitor,
         {{"", "health timeline"}}},
        {"--profile-out", "RAMP_PROF_OUT", &RunnerOptions::profilePath,
         obs::Prof, {{"", "cycle profile"}, {".folded", "folded stacks"}}},
        {"--health-rules", "RAMP_HEALTH_RULES",
         &RunnerOptions::healthRules, monitor, {}},
    };
}

/** Switch every layer off and drop what the monitors recorded. */
void
resetObservability()
{
    obs::set(obs::All, false);
    eventlog::reset();
    health::reset();
}

TEST(RunnerOptions, EveryOutputReadsItsEnvAndTheFlagWins)
{
    for (const OutputCase &out : outputCases()) {
        ::setenv(out.env, "from-env", 1);
        const char *env_only[] = {"tool"};
        EXPECT_EQ(RunnerOptions::parse(1, const_cast<char **>(env_only))
                      .*out.value,
                  "from-env")
            << out.env;
        const char *both[] = {"tool", out.flag, "from-flag"};
        EXPECT_EQ(
            RunnerOptions::parse(3, const_cast<char **>(both)).*out.value,
            "from-flag")
            << out.flag;
        ::unsetenv(out.env);
    }
}

TEST(RunnerOptions, HelpTextIsUnchanged)
{
    EXPECT_STREQ(
        RunnerOptions::flagsHelp(),
        "  --jobs N        parallel simulation passes "
        "(default: all cores; env RAMP_JOBS)\n"
        "  --json PATH     write machine-readable results "
        "(env RAMP_JSON)\n"
        "  --metrics-out PATH  write a telemetry metrics "
        "snapshot (env RAMP_METRICS_OUT)\n"
        "  --trace-out PATH  write a Chrome trace-event file "
        "(env RAMP_TRACE_OUT)\n"
        "  --bench-out PATH  write a BENCH_<tool>.json "
        "performance report (env RAMP_BENCH_OUT)\n"
        "  --events-out PATH  write the decision ledger as "
        "JSONL (env RAMP_EVENTS_OUT)\n"
        "  --timeline-out PATH  write the epoch health timeline "
        "as JSONL (env RAMP_TIMELINE_OUT)\n"
        "  --profile-out PATH  write a ramp-profile-v1 cycle "
        "profile (+PATH.folded flamegraph stacks; env "
        "RAMP_PROF_OUT)\n"
        "  --health-rules R  SLO rules evaluated per epoch, e.g. "
        "alert:p99_slowdown>2,for=3 (env RAMP_HEALTH_RULES)\n"
        "  --sample-ms N   resource-sampler period, >= 10 "
        "(default 50; env RAMP_SAMPLE_MS)\n"
        "  --cache-dir D   persist profiling passes on disk "
        "(env RAMP_CACHE_DIR)\n"
        "  --checkpoint D  journal completed passes; resume a "
        "killed campaign (env RAMP_CHECKPOINT)\n"
        "  --pass-timeout S  flag passes running longer than S "
        "seconds (env RAMP_PASS_TIMEOUT)\n");
}

TEST(Harness, EachOutputSwitchesOnItsLayersAndNamesItsFiles)
{
    const std::string dir = ::testing::TempDir() + "ramp_outputs";
    std::filesystem::create_directories(dir);
    // A path below a regular file can never be created.
    const std::string blocker = dir + "/blocker";
    std::ofstream(blocker) << "x";
    for (const OutputCase &out : outputCases()) {
        const bool rules = out.value == &RunnerOptions::healthRules;
        resetObservability();
        RunnerOptions options;
        options.*out.value = rules ? "alert:shard_degraded" : dir + "/out";
        Harness writable("outputs_tool", options);
        EXPECT_EQ(obs::mask.load(), out.layers) << out.flag;
        EXPECT_EQ(writable.finish(), 0) << out.flag;
        if (rules)
            continue;

        options.*out.value = blocker + "/out";
        Harness unwritable("outputs_tool", options);
        std::string expected;
        for (const auto &[suffix, noun] : out.files)
            expected += "outputs_tool: cannot write " + noun + " to " +
                        blocker + "/out" + suffix + "\n";
        testing::internal::CaptureStderr();
        EXPECT_EQ(unwritable.finish(), 1) << out.flag;
        EXPECT_EQ(testing::internal::GetCapturedStderr(), expected)
            << out.flag;
    }
    resetObservability();
    std::filesystem::remove_all(dir);
}

TEST(Harness, FailingPassBecomesFailedRow)
{
    RunnerOptions options;
    options.jobs = 2;
    options.jsonPath =
        ::testing::TempDir() + "ramp_runner_contained.json";
    std::remove(options.jsonPath.c_str());

    Harness harness("contained_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const SystemConfig &config = harness.config();

    const std::vector<PassDesc> descs = {
        {wl, "good-a"},
        {wl, "bad"},
        {wl, "good-b"},
    };
    const auto outcomes = harness.runPasses(
        descs, [&](std::size_t i) {
            if (i == 1)
                throw std::invalid_argument("synthetic failure");
            return runStaticPolicy(config, wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].status, PassStatus::Ok);
    EXPECT_EQ(outcomes[1].status, PassStatus::Failed);
    EXPECT_EQ(outcomes[1].error, PassErrorCode::InvalidInput);
    EXPECT_EQ(outcomes[1].message, "synthetic failure");
    EXPECT_EQ(outcomes[1].result.instructions, 0u);
    EXPECT_EQ(outcomes[2].status, PassStatus::Ok);

    // One pass failed: the campaign still completed, the report
    // carries the failure, and the exit code is nonzero.
    testing::internal::CaptureStderr();
    EXPECT_EQ(harness.finish(), 3);
    const std::string summary =
        testing::internal::GetCapturedStderr();
    EXPECT_NE(summary.find("did not complete"), std::string::npos);
    EXPECT_NE(summary.find("synthetic failure"), std::string::npos);

    const std::string json = slurp(options.jsonPath);
    EXPECT_NE(json.find("\"status\": \"failed\""),
              std::string::npos);
    EXPECT_NE(json.find("\"error\": \"invalid-input\""),
              std::string::npos);
    EXPECT_NE(json.find("\"message\": \"synthetic failure\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    std::remove(options.jsonPath.c_str());
}

TEST(Harness, TimeoutFlagsSlowPasses)
{
    RunnerOptions options;
    options.jobs = 1;
    options.passTimeout = 1e-9; // everything overstays
    Harness harness("timeout_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const SystemConfig &config = harness.config();

    const std::vector<PassDesc> descs = {{wl, "slow"}};
    const auto outcomes = harness.runPasses(
        descs, [&](std::size_t) {
            return runStaticPolicy(config, wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, PassStatus::Timeout);
    // The metrics are valid (the pass did finish)...
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_GT(outcomes[0].result.instructions, 0u);
    // ...but the campaign still reports the budget violation.
    testing::internal::CaptureStderr();
    EXPECT_EQ(harness.finish(), 3);
    testing::internal::GetCapturedStderr();
}

TEST(Harness, CancellationSkipsRemainingPasses)
{
    runner::clearCancellation();
    RunnerOptions options;
    options.jobs = 1;
    Harness harness("cancel_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const SystemConfig &config = harness.config();

    std::vector<PassDesc> descs;
    for (const char *label : {"one", "two", "three"})
        descs.push_back({wl, label});

    std::atomic<int> ran{0};
    try {
        testing::internal::CaptureStderr();
        harness.runPasses(descs, [&](std::size_t i) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 0)
                runner::requestCancellation();
            return runStaticPolicy(config, wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });
        testing::internal::GetCapturedStderr();
        FAIL() << "expected PassError(Cancelled)";
    } catch (const PassError &error) {
        testing::internal::GetCapturedStderr();
        EXPECT_EQ(error.code(), PassErrorCode::Cancelled);
    }
    runner::clearCancellation();

    // Only the first pass ran; every recorded pass is non-Ok (the
    // first completed after the flag was raised, so its result is
    // untrusted and demoted to skipped).
    EXPECT_EQ(ran.load(), 1);
    const auto passes = harness.report().passes();
    std::size_t skipped = 0;
    for (const auto &pass : passes)
        if (pass.status == PassStatus::Skipped)
            ++skipped;
    EXPECT_EQ(skipped, 3u);
}

TEST(Harness, PassKeyCoversFingerprintAndLabel)
{
    RunnerOptions options;
    options.jobs = 1;
    Harness harness("key_tool", options);
    const auto astar =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const auto mcf =
        harness.profile(homogeneousWorkload("mcf"), smallTraces());
    EXPECT_NE(Harness::passKey(astar, "perf"),
              Harness::passKey(astar, "rel"));
    EXPECT_NE(Harness::passKey(astar, "perf"),
              Harness::passKey(mcf, "perf"));
    EXPECT_EQ(Harness::passKey(astar, "perf"),
              Harness::passKey(astar, "perf"));
}

TEST(Harness, RecordsAndWritesJson)
{
    RunnerOptions options;
    options.jobs = 2;
    options.jsonPath =
        ::testing::TempDir() + "ramp_runner_report.json";
    std::remove(options.jsonPath.c_str());

    runner::Harness harness("test_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const auto outcomes = harness.runPasses(
        std::vector<PassDesc>{{wl, "perf"}}, [&](std::size_t) {
            return runStaticPolicy(harness.config(), wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, PassStatus::Ok);
    EXPECT_GT(outcomes[0].seconds, 0);
    // profile() recorded the baseline, runPasses() the perf pass.
    EXPECT_EQ(harness.report().passes().size(), 2u);
    EXPECT_EQ(harness.finish(), 0);

    const std::string json = slurp(options.jsonPath);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"tool\": \"test_tool\""),
              std::string::npos);
    EXPECT_NE(json.find("\"profile_cache\""), std::string::npos);
    EXPECT_NE(json.find("\"ipc\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"astar\""),
              std::string::npos);
    std::remove(options.jsonPath.c_str());
}

TEST(Harness, DerivesPassIdentityFromWorkloadAndLabel)
{
    const std::string dir =
        ::testing::TempDir() + "ramp_runner_identity_ckpt";
    std::filesystem::remove_all(dir);
    RunnerOptions options;
    options.jobs = 2;
    options.checkpointDir = dir;
    const std::vector<std::string> labels = {"perf-focused/clean",
                                             "perf-focused/storm"};

    // One campaign: returns the outcomes and, per pass, the ledger
    // run label the pass body ran under.
    std::vector<std::string> run_labels(labels.size());
    auto campaign = [&](Harness &harness) {
        const auto wl = harness.profile(homogeneousWorkload("astar"),
                                        smallTraces());
        std::vector<PassDesc> descs;
        for (const auto &label : labels)
            descs.push_back({wl, label});
        auto outcomes = harness.runPasses(descs, [&](std::size_t i) {
            run_labels[i] = eventlog::currentRunLabel();
            return runStaticPolicy(harness.config(), wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });
        return std::make_pair(wl, outcomes);
    };

    eventlog::reset();
    obs::set(obs::Events, true);
    Harness first("identity_tool", options);
    const auto [wl, outcomes] = campaign(first);
    obs::set(obs::Events, false);
    eventlog::reset();
    EXPECT_EQ(run_labels[0], "astar/perf-focused/clean");
    EXPECT_EQ(run_labels[1], "astar/perf-focused/storm");
    const auto passes = first.report().passes();
    ASSERT_EQ(passes.size(), 3u); // baseline + two passes
    for (const auto &pass : passes)
        EXPECT_EQ(pass.workload, "astar");
    for (const auto &out : outcomes)
        EXPECT_FALSE(out.fromCheckpoint);
    EXPECT_EQ(first.finish(), 0);

    // A second harness on the same directory replays every pass,
    // journaled under Harness::passKey(workload, label).
    Harness second("identity_tool", options);
    testing::internal::CaptureStderr();
    const auto [wl2, replayed] = campaign(second);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "resumed 2 of 2"),
              std::string::npos);
    ASSERT_EQ(replayed.size(), labels.size());
    runner::CheckpointJournal journal(dir, "identity_tool");
    for (std::size_t i = 0; i < labels.size(); ++i) {
        EXPECT_TRUE(replayed[i].fromCheckpoint) << labels[i];
        expectSameResult(replayed[i].result, outcomes[i].result);
        std::string workload;
        SimResult journaled;
        EXPECT_TRUE(journal.lookup(Harness::passKey(wl2, labels[i]),
                                   workload, journaled))
            << labels[i];
        EXPECT_EQ(workload, "astar");
    }
    EXPECT_EQ(second.finish(), 0);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ramp
