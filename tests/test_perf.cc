/**
 * @file
 * Tests for the performance-observability layer (src/perf): the
 * resource sampler, the steady-state microbenchmark framework, the
 * JSON reader, the BENCH_<tool>.json emitter, and the regression
 * comparator — plus the Harness integration that flushes a BENCH
 * document even when the campaign is cancelled or runs under the
 * pass watchdog.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "hma/experiment.hh"
#include "perf/artifact.hh"
#include "perf/bench_report.hh"
#include "perf/microbench.hh"
#include "perf/resource.hh"
#include "runner/harness.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{
namespace
{

using perf::BenchOptions;
using perf::BenchReportSpec;
using perf::DiffOptions;
using perf::Microbench;
using runner::Harness;
using runner::PassDesc;
using runner::PassError;
using runner::PassErrorCode;
using runner::RunnerOptions;

/** The perf layer switches telemetry on; leave no global residue. */
class PerfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        telemetry::resetAll();
        obs::set(obs::Telemetry, true);
    }

    void TearDown() override
    {
        obs::set(obs::Telemetry, false);
        telemetry::resetAll();
    }
};

TEST(ResourceUsage, ReadsLiveAndPeakRss)
{
    const auto usage = perf::readResourceUsage();
    // A running gtest binary is resident well past a megabyte.
    EXPECT_GT(usage.rssBytes, 1u << 20);
    EXPECT_GE(usage.peakRssBytes, usage.rssBytes);
    EXPECT_GE(usage.userCpuSeconds + usage.sysCpuSeconds, 0.0);
}

TEST_F(PerfTest, SamplerObservesAndJoinsCleanly)
{
    perf::ResourceSampler sampler(std::chrono::milliseconds(5));
    // Touch some memory so the series has something to see.
    std::vector<char> ballast(8u << 20, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sampler.stop();
    sampler.stop(); // idempotent: the second join is a no-op

    const auto summary = sampler.summary();
    EXPECT_GE(summary.samples, 2u);
    EXPECT_GT(summary.peakRssBytes, 1u << 20);
    EXPECT_GT(summary.rssSeries.mean(), 0.0);
    EXPECT_GE(summary.peakRssBytes,
              static_cast<std::uint64_t>(summary.rssSeries.max()));

    // The sampler published its gauges through telemetry.
    const auto snap = telemetry::metrics().snapshot();
    EXPECT_GT(snap.gauges.at("proc.rss_bytes"), 0.0);
    EXPECT_GT(snap.gauges.at("proc.peak_rss_bytes"), 0.0);
    (void)ballast;
}

TEST(ResourceSampler, StopInsideFirstPeriodStillSamples)
{
    perf::ResourceSampler sampler(std::chrono::minutes(10));
    sampler.stop(); // must not wait out the period
    EXPECT_GE(sampler.summary().samples, 1u);
}

TEST(Microbench, MeasuresStatsAndThroughput)
{
    Microbench suite;
    suite.add("spin", "items", [] {
        volatile std::uint64_t x = 0;
        for (int i = 0; i < 20000; ++i)
            x = x + static_cast<std::uint64_t>(i);
        return std::uint64_t{1000};
    });

    BenchOptions options;
    options.iterations = 6;
    options.maxWarmupIterations = 8;
    const auto results = suite.run(options);
    ASSERT_EQ(results.size(), 1u);
    const auto &r = results[0];
    EXPECT_EQ(r.name, "spin");
    EXPECT_EQ(r.unit, "items");
    EXPECT_EQ(r.itemsPerIteration, 1000u);
    EXPECT_EQ(r.iterations, 6u);
    EXPECT_LE(r.warmupIterations, 8u);
    EXPECT_GT(r.meanSeconds, 0.0);
    EXPECT_LE(r.minSeconds, r.meanSeconds);
    EXPECT_GE(r.maxSeconds, r.meanSeconds);
    EXPECT_GE(r.stddevSeconds, 0.0);
    EXPECT_GE(r.ci95Seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.itemsPerSecond, 1000.0 / r.minSeconds);
}

TEST(Microbench, SubsetSelectionAndOrder)
{
    Microbench suite;
    for (const char *name : {"alpha", "beta", "gamma"})
        suite.add(name, "items", [] { return std::uint64_t{1}; });
    EXPECT_EQ(suite.names(),
              (std::vector<std::string>{"alpha", "beta", "gamma"}));

    BenchOptions options;
    options.iterations = 1;
    options.maxWarmupIterations = 1;
    const auto results = suite.run(options, {"gamma", "alpha"});
    ASSERT_EQ(results.size(), 2u);
    // Registration order wins, not selection order.
    EXPECT_EQ(results[0].name, "alpha");
    EXPECT_EQ(results[1].name, "gamma");
}

TEST(Microbench, BudgetCapsIterations)
{
    Microbench suite;
    suite.add("slow", "items", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return std::uint64_t{1};
    });
    BenchOptions options;
    options.iterations = 1000;
    options.maxWarmupIterations = 2;
    options.maxSecondsPerCase = 0.05;
    const auto results = suite.run(options);
    ASSERT_EQ(results.size(), 1u);
    // The budget stopped it long before 1000, but the floor of 3
    // measured iterations still holds.
    EXPECT_LT(results[0].iterations, 1000u);
    EXPECT_GE(results[0].iterations, 3u);
}

TEST(MicrobenchDeath, RejectsDuplicateNames)
{
    Microbench suite;
    suite.add("dup", "items", [] { return std::uint64_t{1}; });
    EXPECT_DEATH(
        suite.add("dup", "items", [] { return std::uint64_t{1}; }),
        "dup");
}

TEST(Json, ParsesScalarsContainersAndEscapes)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"a": 1.5, "b": [true, null, -2e3], "c": "x\n\"yA"})",
        doc, error))
        << error;
    EXPECT_DOUBLE_EQ(doc.numberOr("a", 0), 1.5);
    const JsonValue *b = doc.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_DOUBLE_EQ(b->array[2].number, -2000.0);
    EXPECT_EQ(doc.stringOr("c", ""), "x\n\"yA");
}

TEST(Json, DecodesUnicodeEscapesAsUtf8)
{
    JsonValue doc;
    std::string error;
    // ASCII, 2-byte, 3-byte, and a surrogate pair (4-byte):
    // A, e-acute, euro sign, and an emoji outside the BMP.
    ASSERT_TRUE(parseJson(
        "{\"s\": \"\\u0041\\u00e9\\u20ac\\ud83d\\ude00\"}", doc,
        error))
        << error;
    EXPECT_EQ(doc.stringOr("s", ""),
              "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
    // Upper-case hex digits decode identically.
    ASSERT_TRUE(
        parseJson("[\"\\u20AC\"]", doc, error))
        << error;
    EXPECT_EQ(doc.array.at(0).string, "\xe2\x82\xac");
}

TEST(Json, RejectsBrokenUnicodeEscapes)
{
    JsonValue doc;
    std::string error;
    // Non-hex digit.
    EXPECT_FALSE(parseJson(R"(["\u12zf"])", doc, error));
    // Truncated escape at end of input.
    EXPECT_FALSE(parseJson(R"(["\u12)", doc, error));
    // High surrogate with no low surrogate after it.
    EXPECT_FALSE(parseJson(R"(["\ud83dx"])", doc, error));
    // High surrogate followed by a non-surrogate escape.
    EXPECT_FALSE(parseJson(R"(["\ud83dA"])", doc, error));
    // Low surrogate on its own.
    EXPECT_FALSE(parseJson(R"(["\ude00"])", doc, error));
    EXPECT_FALSE(error.empty());
}

TEST(Json, RejectsMalformedAndTrailingGarbage)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson("{\"a\": }", doc, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("[1, 2] tail", doc, error));
    EXPECT_FALSE(parseJson("", doc, error));
    EXPECT_FALSE(parseJson("{\"a\": 1", doc, error));
}

/** A report spec with deterministic, nontrivial content. */
BenchReportSpec
sampleSpec()
{
    BenchReportSpec spec;
    spec.tool = "unit_tool";
    spec.jobs = 2;
    spec.wallSeconds = 2.0;
    spec.resources.samples = 3;
    spec.resources.peakRssBytes = 64u << 20;
    spec.resources.rssSeries.add(50e6);
    spec.resources.rssSeries.add(60e6);
    spec.resources.userCpuSeconds = 1.5;
    spec.resources.sysCpuSeconds = 0.25;
    spec.metrics.counters["hma.accesses.hbm"] = 600;
    spec.metrics.counters["hma.accesses.ddr"] = 400;
    spec.metrics.counters["faultsim.trials"] = 2000;
    spec.metrics.counters["pool.tasks"] = 8;
    auto hist = telemetry::FixedHistogram::linear(0.0, 1.0, 10);
    for (int i = 0; i < 100; ++i)
        hist.add(i / 100.0);
    spec.metrics.histograms.emplace("pool.task_seconds", hist);
    spec.passes.count = 4;
    spec.passes.ok = 4;
    spec.passes.seconds.add(0.5);
    spec.passes.seconds.add(0.7);
    perf::BenchResult micro;
    micro.name = "kernel";
    micro.unit = "items";
    micro.itemsPerIteration = 100;
    micro.iterations = 10;
    micro.meanSeconds = 0.01;
    micro.minSeconds = 0.008;
    micro.maxSeconds = 0.012;
    micro.itemsPerSecond = 100 / 0.008;
    spec.microbenchmarks.push_back(micro);
    return spec;
}

TEST(BenchReport, RendersParseableDocument)
{
    const std::string json = perf::renderBenchReport(sampleSpec());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, error)) << error;

    EXPECT_EQ(doc.stringOr("schema", ""), perf::benchSchema);
    EXPECT_EQ(doc.stringOr("tool", ""), "unit_tool");
    EXPECT_DOUBLE_EQ(doc.numberOr("wall_seconds", 0), 2.0);
    const JsonValue *throughput = doc.find("throughput");
    ASSERT_NE(throughput, nullptr);
    // 1000 accesses over 2 s.
    EXPECT_DOUBLE_EQ(
        throughput->numberOr("accesses_per_second", 0), 500.0);
    EXPECT_DOUBLE_EQ(throughput->numberOr("trials_per_second", 0),
                     1000.0);
    const JsonValue *resources = doc.find("resources");
    ASSERT_NE(resources, nullptr);
    EXPECT_DOUBLE_EQ(resources->numberOr("peak_rss_bytes", 0),
                     static_cast<double>(64u << 20));
    const JsonValue *host = doc.find("host");
    ASSERT_NE(host, nullptr);
    EXPECT_GE(host->numberOr("cpus", -1), 0.0);
    const JsonValue *percentiles = doc.find("percentiles");
    ASSERT_NE(percentiles, nullptr);
    const JsonValue *task_hist =
        percentiles->find("pool.task_seconds");
    ASSERT_NE(task_hist, nullptr);
    EXPECT_NEAR(task_hist->numberOr("p50", 0), 0.5, 0.02);
    EXPECT_NEAR(task_hist->numberOr("p95", 0), 0.95, 0.02);
    const JsonValue *micros = doc.find("microbenchmarks");
    ASSERT_NE(micros, nullptr);
    ASSERT_EQ(micros->array.size(), 1u);
    EXPECT_EQ(micros->array[0].stringOr("name", ""), "kernel");
}

TEST(BenchReport, StampsOversubscribedHosts)
{
    const unsigned cpus = std::thread::hardware_concurrency();
    if (cpus == 0)
        GTEST_SKIP() << "CPU count unknown";
    const auto render = [](unsigned jobs) {
        BenchReportSpec spec = sampleSpec();
        spec.jobs = jobs;
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(perf::renderBenchReport(spec), doc,
                                    error))
            << error;
        return doc;
    };

    const JsonValue over = render(cpus + 1);
    ASSERT_NE(over.find("host"), nullptr);
    EXPECT_TRUE(over.find("host")->boolOr("oversubscribed", false));
    EXPECT_TRUE(perf::benchOversubscribed(over));

    const JsonValue fits = render(cpus);
    EXPECT_FALSE(fits.find("host")->boolOr("oversubscribed", true));
    EXPECT_FALSE(perf::benchOversubscribed(fits));

    // Documents older than the stamp: derived from jobs and cpus.
    JsonValue legacy;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"jobs": 4, "host": {"cpus": 1}})", legacy, error));
    EXPECT_TRUE(perf::benchOversubscribed(legacy));
    ASSERT_TRUE(parseJson(
        R"({"jobs": 1, "host": {"cpus": 1}})", legacy, error));
    EXPECT_FALSE(perf::benchOversubscribed(legacy));
    ASSERT_TRUE(parseJson(R"({"jobs": 4})", legacy, error));
    EXPECT_FALSE(perf::benchOversubscribed(legacy));
}

TEST(BenchReport, UnmeasuredThroughputRendersAsNull)
{
    BenchReportSpec spec;
    spec.tool = "idle_tool";
    spec.wallSeconds = 1.0; // no counters at all
    const std::string json = perf::renderBenchReport(spec);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, error)) << error;
    const JsonValue *throughput = doc.find("throughput");
    ASSERT_NE(throughput, nullptr);
    const JsonValue *accesses =
        throughput->find("accesses_per_second");
    ASSERT_NE(accesses, nullptr);
    EXPECT_TRUE(accesses->isNull());
}

TEST(BenchReport, ServiceAggregateCountsEveryAccessOverRunSeconds)
{
    // 1000 accesses (shared and solo alike) in a 0.5 s service run
    // inside a 2 s process.
    BenchReportSpec spec = sampleSpec();
    spec.metrics.counters["service.streams_admitted"] = 4;
    spec.metrics.counters["service.requests_served"] = 500;
    spec.metrics.gauges["service.run_seconds"] = 0.5;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(spec), doc,
                                error))
        << error;
    ASSERT_NE(doc.find("service"), nullptr);
    EXPECT_DOUBLE_EQ(doc.find("service")->numberOr(
                         "aggregate_accesses_per_second", 0),
                     2000.0);
    EXPECT_DOUBLE_EQ(doc.find("throughput")->numberOr(
                         "accesses_per_second", 0),
                     500.0);

    // Without the run's seconds the aggregate is unmeasured.
    spec.metrics.gauges.erase("service.run_seconds");
    ASSERT_TRUE(parseJson(perf::renderBenchReport(spec), doc,
                                error))
        << error;
    const JsonValue *aggregate =
        doc.find("service")->find("aggregate_accesses_per_second");
    ASSERT_NE(aggregate, nullptr);
    EXPECT_TRUE(aggregate->isNull());
}

TEST(BenchDiff, IdenticalDocumentsHaveNoRegressions)
{
    const std::string json = perf::renderBenchReport(sampleSpec());
    JsonValue a, b;
    std::string error;
    ASSERT_TRUE(parseJson(json, a, error)) << error;
    ASSERT_TRUE(parseJson(json, b, error)) << error;
    const auto diffs =
        perf::compareBenchReports(a, b, DiffOptions{}, error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(diffs.empty());
    for (const auto &diff : diffs) {
        EXPECT_FALSE(diff.regressed) << diff.name;
        EXPECT_DOUBLE_EQ(diff.deltaPct, 0.0) << diff.name;
    }
}

TEST(BenchDiff, FlagsRegressionsDirectionally)
{
    auto base_spec = sampleSpec();
    auto slow_spec = sampleSpec();
    // Wall time doubles (lower-is-better: regression at +100%) and
    // microbenchmark throughput halves (higher-is-better).
    slow_spec.wallSeconds = 4.0;
    slow_spec.microbenchmarks[0].minSeconds = 0.02;
    slow_spec.microbenchmarks[0].itemsPerSecond = 100 / 0.02;

    JsonValue base, cand;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(base_spec),
                                base, error));
    ASSERT_TRUE(parseJson(perf::renderBenchReport(slow_spec),
                                cand, error));
    const auto diffs =
        perf::compareBenchReports(base, cand, DiffOptions{}, error);
    EXPECT_TRUE(error.empty()) << error;

    bool wall_regressed = false, micro_regressed = false;
    for (const auto &diff : diffs) {
        if (diff.name == "wall_seconds")
            wall_regressed = diff.regressed;
        if (diff.name == "micro.kernel.min_seconds")
            micro_regressed = diff.regressed;
    }
    EXPECT_TRUE(wall_regressed);
    EXPECT_TRUE(micro_regressed);

    // Counters unchanged over a doubled wall time: a campaign's (no
    // microbenchmark rows) derived throughput halves, beyond the
    // threshold.
    base_spec.microbenchmarks.clear();
    slow_spec.microbenchmarks.clear();
    JsonValue base_campaign, slow_campaign;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(base_spec),
                          base_campaign, error));
    ASSERT_TRUE(parseJson(perf::renderBenchReport(slow_spec),
                          slow_campaign, error));
    bool throughput_regressed = false;
    for (const auto &diff : perf::compareBenchReports(
             base_campaign, slow_campaign, DiffOptions{}, error))
        if (diff.name == "throughput.accesses_per_second")
            throughput_regressed = diff.regressed;
    EXPECT_TRUE(throughput_regressed);

    // A generous relax multiplier absorbs the same deltas.
    const auto relaxed = perf::compareBenchReports(
        base, cand, DiffOptions{.relax = 10.0, .families = {}}, error);
    for (const auto &diff : relaxed)
        EXPECT_FALSE(diff.regressed) << diff.name;
}

/** The number at an object path, created on the way. */
double &
numberSlot(JsonValue &doc, const std::vector<std::string> &path)
{
    JsonValue *node = &doc;
    for (const std::string &key : path) {
        node->kind = JsonValue::Kind::Object;
        node = &node->object[key];
    }
    node->kind = JsonValue::Kind::Number;
    return node->number;
}

TEST(BenchDiff, TwoXSlowdownFailsEveryFamilyUnderCiRelax)
{
    // One metric per family. Micro rows live in an array, so they
    // are addressed by field name below.
    struct Metric
    {
        const char *name;
        std::vector<std::string> path;
        const char *microField;
        double value;
        bool higherIsBetter;
    };
    const Metric metrics[] = {
        {"wall_seconds", {"wall_seconds"}, nullptr, 2.0, false},
        {"throughput.accesses_per_second",
         {"throughput", "accesses_per_second"}, nullptr, 1e6, true},
        {"throughput.events_per_second",
         {"throughput", "events_per_second"}, nullptr, 1e6, true},
        {"service.aggregate_accesses_per_second",
         {"service", "aggregate_accesses_per_second"}, nullptr, 1e6,
         true},
        {"service.fairness_index", {"service", "fairness_index"},
         nullptr, 0.9, true},
        {"service.p99_slowdown", {"service", "p99_slowdown"}, nullptr,
         1.5, false},
        {"health.alerts", {"health", "alerts"}, nullptr, 10, false},
        {"resources.peak_rss_bytes", {"resources", "peak_rss_bytes"},
         nullptr, 1e9, false},
        {"percentiles.pool.task_seconds.p50",
         {"percentiles", "pool.task_seconds", "p50"}, nullptr, 0.5,
         false},
        {"percentiles.eventlog.drain_seconds.p99",
         {"percentiles", "eventlog.drain_seconds", "p99"}, nullptr,
         0.5, false},
        {"micro.kernel.min_seconds", {}, "min_seconds", 0.008, false},
        {"micro.kernel.items_per_second", {}, "items_per_second",
         12500, true},
    };
    JsonValue base;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(sampleSpec()),
                                base, error))
        << error;
    const auto slot = [](JsonValue &doc, const Metric &metric)
        -> double & {
        if (metric.microField != nullptr)
            return doc.object["microbenchmarks"]
                .array[0]
                .object[metric.microField]
                .number;
        return numberSlot(doc, metric.path);
    };
    for (const Metric &metric : metrics)
        slot(base, metric) = metric.value;

    // Run-level rates are gated only in documents without
    // microbenchmark rows (a campaign's, not a suite's).
    JsonValue campaign = base;
    campaign.object.erase("microbenchmarks");

    const DiffOptions ci{.relax = 4.0, .families = {}};
    // factor > 1 moves the metric the bad way, < 1 the good way.
    for (const double factor : {2.0, 3.0, 10.0, 1.5, 0.5}) {
        for (const Metric &metric : metrics) {
            SCOPED_TRACE(std::string(metric.name) + " worse by " +
                         std::to_string(factor) + "x");
            const JsonValue &from =
                metric.path.empty() || metric.path[0] != "throughput"
                    ? base
                    : campaign;
            JsonValue cand = from;
            double &value = slot(cand, metric);
            value = metric.higherIsBetter ? value / factor
                                          : value * factor;
            const auto diffs =
                perf::compareBenchReports(from, cand, ci, error);
            ASSERT_TRUE(error.empty()) << error;
            const perf::MetricDiff *diff = nullptr;
            for (const auto &d : diffs) {
                if (d.name == metric.name)
                    diff = &d;
                else
                    EXPECT_FALSE(d.regressed || d.improved) << d.name;
            }
            ASSERT_NE(diff, nullptr);
            // The printed delta stays linear.
            EXPECT_NEAR(diff->deltaPct,
                        ((metric.higherIsBetter ? 1.0 / factor
                                                : factor) -
                         1.0) * 100.0,
                        1e-9);
            // The band is a factor, symmetric in direction.
            EXPECT_GT(diff->limitFactor, 1.0);
            EXPECT_EQ(diff->regressed, factor > diff->limitFactor);
            EXPECT_EQ(diff->improved, 1.0 / factor > diff->limitFactor);
            if (factor >= 2.0) {
                EXPECT_TRUE(diff->regressed);
            }
            // Only the near-noise-free fairness index fails at 1.5x.
            if (factor == 1.5) {
                EXPECT_EQ(diff->regressed,
                          std::string(metric.name) ==
                              "service.fairness_index");
            }
            if (factor == 0.5) {
                EXPECT_TRUE(diff->improved);
            }
        }
    }
}

TEST(BenchDiff, MismatchedToolsRefuseToCompare)
{
    auto a_spec = sampleSpec();
    auto b_spec = sampleSpec();
    b_spec.tool = "other_tool";
    JsonValue a, b;
    std::string error;
    ASSERT_TRUE(
        parseJson(perf::renderBenchReport(a_spec), a, error));
    ASSERT_TRUE(
        parseJson(perf::renderBenchReport(b_spec), b, error));
    const auto diffs =
        perf::compareBenchReports(a, b, DiffOptions{}, error);
    EXPECT_TRUE(diffs.empty());
    EXPECT_NE(error.find("tool mismatch"), std::string::npos);

    // Non-BENCH documents are rejected the same way.
    JsonValue junk;
    ASSERT_TRUE(parseJson("{\"x\": 1}", junk, error));
    error.clear();
    perf::compareBenchReports(junk, a, DiffOptions{}, error);
    EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(BenchDiff, DroppedMicrobenchmarkRegresses)
{
    auto base_spec = sampleSpec();
    perf::BenchResult dropped = base_spec.microbenchmarks[0];
    dropped.name = "dropped";
    base_spec.microbenchmarks.push_back(dropped);
    JsonValue base, cand;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(base_spec),
                                base, error));
    ASSERT_TRUE(parseJson(perf::renderBenchReport(sampleSpec()),
                                cand, error));

    // Under a family filter too: the row belongs to "micro.".
    for (const DiffOptions &options :
         {DiffOptions{}, DiffOptions{.relax = 4.0,
                                     .families = {"micro."}}}) {
        const auto diffs =
            perf::compareBenchReports(base, cand, options, error);
        ASSERT_TRUE(error.empty()) << error;
        std::size_t missing = 0;
        for (const auto &diff : diffs) {
            if (diff.name == "micro.dropped") {
                ++missing;
                EXPECT_TRUE(diff.missing);
                EXPECT_TRUE(diff.regressed);
            } else {
                EXPECT_FALSE(diff.missing || diff.regressed)
                    << diff.name;
            }
        }
        EXPECT_EQ(missing, 1u);
    }

    // A kernel only the candidate ran is new, not a regression.
    const auto reversed =
        perf::compareBenchReports(cand, base, DiffOptions{}, error);
    for (const auto &diff : reversed)
        EXPECT_FALSE(diff.missing || diff.regressed) << diff.name;
}

TEST(BenchDiff, CandidateOnlyKernelIsReportedNotGated)
{
    // A new kernel ten times slower than any baseline row: with no
    // row of its own it is listed, never judged.
    auto cand_spec = sampleSpec();
    perf::BenchResult fresh = cand_spec.microbenchmarks[0];
    fresh.name = "fresh";
    fresh.minSeconds *= 10;
    cand_spec.microbenchmarks.push_back(fresh);
    JsonValue base, cand;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(sampleSpec()),
                                base, error));
    ASSERT_TRUE(parseJson(perf::renderBenchReport(cand_spec),
                                cand, error));

    for (const DiffOptions &options :
         {DiffOptions{}, DiffOptions{.relax = 4.0,
                                     .families = {"micro."}}}) {
        const auto diffs =
            perf::compareBenchReports(base, cand, options, error);
        ASSERT_TRUE(error.empty()) << error;
        std::size_t ungated = 0;
        for (const auto &diff : diffs) {
            EXPECT_FALSE(diff.regressed || diff.improved ||
                         diff.missing)
                << diff.name;
            EXPECT_EQ(diff.unbaselined, diff.name == "micro.fresh")
                << diff.name;
            EXPECT_EQ(diff.name.rfind("micro.fresh.", 0),
                      std::string::npos)
                << diff.name;
            ungated += diff.unbaselined ? 1 : 0;
        }
        EXPECT_EQ(ungated, 1u);
    }
}

TEST(BenchDiff, MicroRowIsJudgedOneBandBeyondItsSlowestRun)
{
    // The baseline row's runs read minima from 8 ms to 14 ms (a
    // bimodal kernel): under --relax 4 a 1.9x candidate (15.2 ms)
    // passes, one band beyond the slow mode (16.1 ms) fails. A steady
    // row keeps the relaxed band: its 1.9x fails, and so does 2x.
    JsonValue base, cand;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(sampleSpec()),
                          base, error));
    const DiffOptions ci{.relax = 4.0, .families = {"micro."}};
    const auto verdict = [&](double slowest, double factor) {
        JsonValue b = base;
        auto &row = b.object["microbenchmarks"].array[0].object;
        if (slowest > 0) {
            row["slowest_min_seconds"].kind = JsonValue::Kind::Number;
            row["slowest_min_seconds"].number = slowest;
        }
        cand = base;
        auto &crow = cand.object["microbenchmarks"].array[0].object;
        crow["min_seconds"].number *= factor;
        crow["items_per_second"].number /= factor;
        const auto diffs = perf::compareBenchReports(b, cand, ci, error);
        EXPECT_EQ(diffs.size(), 2u);
        bool regressed = false;
        for (const auto &d : diffs)
            regressed = regressed || d.regressed;
        return regressed;
    };
    EXPECT_FALSE(verdict(0.014, 1.9));
    EXPECT_TRUE(verdict(0.014, 2.1));
    EXPECT_TRUE(verdict(0.0, 1.9));
    EXPECT_TRUE(verdict(0.0, 2.0));
    // A slowest minimum below the committed one cannot tighten it.
    EXPECT_FALSE(verdict(0.004, 1.7));
}

TEST(BenchDiff, SuiteDocumentsGateRowsNotRunLevelRates)
{
    // A suite's trials/s divides one kernel's items by every kernel's
    // time, so a tenfold move of it is not judged; its rows are.
    JsonValue base, cand;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(sampleSpec()),
                          base, error));
    auto &rate = numberSlot(base, {"throughput", "trials_per_second"});
    ASSERT_GT(rate, 0.0);
    cand = base;
    numberSlot(cand, {"throughput", "trials_per_second"}) = rate / 10;
    const DiffOptions ci{.relax = 4.0, .families = {}};
    for (const auto &d : perf::compareBenchReports(base, cand, ci, error)) {
        EXPECT_EQ(d.name.rfind("throughput.", 0), std::string::npos)
            << d.name;
        EXPECT_FALSE(d.regressed) << d.name;
    }
    ASSERT_TRUE(error.empty()) << error;
}

TEST(BenchDiff, WarnsOnlyWhenBothSidesNameDifferentCpus)
{
    const auto doc = [](const char *json) {
        JsonValue value;
        std::string error;
        EXPECT_TRUE(parseJson(json, value, error)) << error;
        return value;
    };
    const JsonValue xeon = doc(R"({"host": {"cpu_model": "Xeon"}})");
    const JsonValue epyc = doc(R"({"host": {"cpu_model": "EPYC"}})");
    const JsonValue legacy = doc(R"({"host": {"cpus": 1}})");
    const JsonValue hostless = doc(R"({"jobs": 1})");

    EXPECT_EQ(perf::benchCpuMismatch(xeon, epyc),
              "baseline 'Xeon', candidate 'EPYC'");
    EXPECT_EQ(perf::benchCpuMismatch(xeon, xeon), "");
    EXPECT_EQ(perf::benchCpuMismatch(legacy, epyc), "");
    EXPECT_EQ(perf::benchCpuMismatch(xeon, legacy), "");
    EXPECT_EQ(perf::benchCpuMismatch(hostless, epyc), "");

    // Rendered documents stamp the host's model on both sides.
    JsonValue a, b;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(sampleSpec()),
                                a, error));
    ASSERT_TRUE(parseJson(perf::renderBenchReport(sampleSpec()),
                                b, error));
    EXPECT_EQ(perf::benchCpuMismatch(a, b), "");
}

/** Reads a JSONL file with one fixed schema, collecting records. */
class JsonlTest : public ::testing::Test
{
  protected:
    void TearDown() override { std::remove(path_.c_str()); }

    void write(const std::string &content)
    {
        std::ofstream(path_, std::ios::binary) << content;
    }

    bool read(bool ignore_partial_tail)
    {
        records_.clear();
        error_.clear();
        return readJsonl(
            path_, {"unit-v1"}, "unit", ignore_partial_tail, header_,
            [this](const JsonValue &record, std::string &why) {
                const double n = record.numberOr("n", -1);
                if (n < 0) {
                    why = "record without n";
                    return false;
                }
                records_.push_back(n);
                return true;
            },
            error_);
    }

    const std::string path_ = ::testing::TempDir() + "unit.jsonl";
    JsonValue header_;
    std::vector<double> records_;
    std::string error_;
};

TEST_F(JsonlTest, MissingFileIsUnreadable)
{
    std::remove(path_.c_str());
    EXPECT_FALSE(read(false));
    EXPECT_EQ(error_, "cannot read " + path_);
}

TEST_F(JsonlTest, EmptyFileHasNoHeader)
{
    write("");
    EXPECT_FALSE(read(false));
    EXPECT_EQ(error_, path_ + ": empty unit file (no header line)");
    write("\n\n");
    EXPECT_FALSE(read(false));
    EXPECT_EQ(error_, path_ + ": empty unit file (no header line)");
}

TEST_F(JsonlTest, ForeignSchemaIsRejected)
{
    write("{\"schema\": \"other-v1\"}\n{\"n\": 1}\n");
    EXPECT_FALSE(read(false));
    EXPECT_EQ(error_, path_ + ": not a unit-v1 file (schema 'other-v1')");
    EXPECT_TRUE(records_.empty());
}

TEST_F(JsonlTest, MalformedMiddleLineNamesItsLine)
{
    write("{\"schema\": \"unit-v1\"}\n{\"n\": 1}\n{\"n\": \n"
          "{\"n\": 3}\n");
    EXPECT_FALSE(read(false));
    EXPECT_EQ(error_.rfind(path_ + ":3: ", 0), 0u) << error_;
    EXPECT_EQ(records_, std::vector<double>{1});
}

TEST_F(JsonlTest, RejectedRecordNamesItsLine)
{
    write("{\"schema\": \"unit-v1\"}\n{\"n\": 1}\n{\"m\": 2}\n"
          "{\"n\": 3}\n");
    EXPECT_FALSE(read(false));
    EXPECT_EQ(error_, path_ + ":3: record without n");
    EXPECT_EQ(records_, std::vector<double>{1});
}

TEST_F(JsonlTest, UnterminatedLastLine)
{
    write("{\"schema\": \"unit-v1\"}\n{\"n\": 1}\n{\"n\": 2}");
    // A finished file: the last line counts without its newline.
    ASSERT_TRUE(read(false)) << error_;
    EXPECT_EQ(header_.stringOr("schema", ""), "unit-v1");
    EXPECT_EQ(records_, (std::vector<double>{1, 2}));
    // A live tail: the line may still be growing, so it is skipped.
    ASSERT_TRUE(read(true)) << error_;
    EXPECT_EQ(records_, std::vector<double>{1});

    // A torn line that would not parse is skipped the same way.
    write("{\"schema\": \"unit-v1\"}\n{\"n\": 1}\n{\"n\"");
    ASSERT_TRUE(read(true)) << error_;
    EXPECT_EQ(records_, std::vector<double>{1});
    EXPECT_FALSE(read(false));
    EXPECT_EQ(error_.rfind(path_ + ":3: ", 0), 0u) << error_;

    // A torn header alone leaves nothing to read.
    write("{\"schema\": \"unit");
    EXPECT_FALSE(read(true));
    EXPECT_EQ(error_, path_ + ": empty unit file (no header line)");
}

TEST(FileStamp, RewriteWithinOneSecondChangesTheStamp)
{
    // The predicate: any of nanosecond mtime, inode or size moving
    // is a rewrite, including a move within the same whole second.
    const perf::FileStamp base{100, 5, 7, 9};
    perf::FileStamp other = base;
    EXPECT_EQ(other, base);
    other.mtimeNanos = 6;
    EXPECT_NE(other, base);
    other = base;
    other.inode = 8;
    EXPECT_NE(other, base);
    other = base;
    other.size = 10;
    EXPECT_NE(other, base);

    // An atomic rewrite of the same size right after the first write
    // still reads as a new stamp.
    const std::string path = ::testing::TempDir() + "stamp.jsonl";
    ASSERT_TRUE(runner::atomicWriteFile(path, "first\n"));
    const auto before = perf::fileStamp(path);
    ASSERT_TRUE(before.has_value());
    EXPECT_EQ(perf::fileStamp(path), before);
    ASSERT_TRUE(runner::atomicWriteFile(path, "again\n"));
    EXPECT_NE(perf::fileStamp(path), before);
    std::remove(path.c_str());
    EXPECT_FALSE(perf::fileStamp(path).has_value());
}

GeneratorOptions
smallTraces()
{
    GeneratorOptions options;
    options.traceScale = 0.02;
    return options;
}

TEST_F(PerfTest, HarnessWritesBenchDocumentUnderWatchdog)
{
    RunnerOptions options;
    options.jobs = 2;
    options.passTimeout = 60.0; // watchdog armed, never fires
    options.benchPath = ::testing::TempDir() + "BENCH_unit.json";
    std::remove(options.benchPath.c_str());

    {
        Harness harness("bench_tool", options);
        ASSERT_NE(harness.sampler(), nullptr);
        const auto wl = harness.profile(homogeneousWorkload("astar"),
                                        smallTraces());
        const SystemConfig &config = harness.config();
        const std::vector<PassDesc> descs = {{wl, "perf"}};
        harness.runPasses(descs, [&](std::size_t) {
            return runStaticPolicy(config, wl->data,
                                   StaticPolicy::PerfFocused,
                                   wl->profile());
        });
        perf::Microbench suite;
        suite.add("noop", "items", [] { return std::uint64_t{1}; });
        perf::BenchOptions micro;
        micro.iterations = 2;
        micro.maxWarmupIterations = 1;
        harness.addMicrobenchResults(suite.run(micro));
        EXPECT_EQ(harness.finish(), 0);
        // finish() joined the sampler; its summary is final.
        EXPECT_GE(harness.sampler()->summary().samples, 1u);
    }

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJsonFile(options.benchPath, doc, error))
        << error;
    EXPECT_EQ(doc.stringOr("schema", ""), perf::benchSchema);
    EXPECT_EQ(doc.stringOr("tool", ""), "bench_tool");
    EXPECT_GT(doc.numberOr("wall_seconds", 0), 0.0);
    const JsonValue *passes = doc.find("passes");
    ASSERT_NE(passes, nullptr);
    EXPECT_DOUBLE_EQ(passes->numberOr("count", 0), 2.0);
    const JsonValue *resources = doc.find("resources");
    ASSERT_NE(resources, nullptr);
    EXPECT_GT(resources->numberOr("peak_rss_bytes", 0), 0.0);
    const JsonValue *micros = doc.find("microbenchmarks");
    ASSERT_NE(micros, nullptr);
    ASSERT_EQ(micros->array.size(), 1u);
    EXPECT_EQ(micros->array[0].stringOr("name", ""), "noop");
    std::remove(options.benchPath.c_str());
}

TEST_F(PerfTest, BenchDocumentCarriesTheRegistrySnapshot)
{
    RunnerOptions options;
    options.jobs = 2;
    options.benchPath = ::testing::TempDir() + "BENCH_metrics.json";
    std::remove(options.benchPath.c_str());

    Harness harness("metrics_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const SystemConfig &config = harness.config();
    harness.runPasses(std::vector<PassDesc>{{wl, "perf"}},
                      [&](std::size_t) {
                          return runStaticPolicy(
                              config, wl->data,
                              StaticPolicy::PerfFocused,
                              wl->profile());
                      });
    ASSERT_EQ(harness.finish(), 0);
    // finish() joined the sampler before the flush, so nothing has
    // touched the registry since the document took its snapshot.
    const auto snap = telemetry::metrics().snapshot();
    EXPECT_GT(snap.counterOr("hma.runs"), 0u);
    EXPECT_EQ(snap.gauges.count("proc.peak_rss_bytes"), 1u);

    std::ifstream in(options.benchPath);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("  \"metrics\": " + snap.toJson(2) + ",\n"),
              std::string::npos);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text.str(), doc, error)) << error;
    EXPECT_TRUE(perf::unknownBenchBlocks(doc).empty());
    std::remove(options.benchPath.c_str());
}

TEST(BenchDiff, GatesNothingInTheMetricsBlock)
{
    BenchReportSpec base_spec = sampleSpec();
    BenchReportSpec cand_spec = sampleSpec();
    base_spec.metrics.counters["unquoted.count"] = 100;
    cand_spec.metrics.counters["unquoted.count"] = 1;
    cand_spec.metrics.gauges["unquoted.level"] = 1e9;
    JsonValue base, cand;
    std::string error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(base_spec), base,
                          error))
        << error;
    ASSERT_TRUE(parseJson(perf::renderBenchReport(cand_spec), cand,
                          error))
        << error;
    ASSERT_NE(cand.find("metrics"), nullptr);
    const auto diffs =
        perf::compareBenchReports(base, cand, DiffOptions{}, error);
    EXPECT_TRUE(error.empty()) << error;
    for (const auto &diff : diffs) {
        EXPECT_FALSE(diff.regressed) << diff.name;
        EXPECT_NE(diff.name.rfind("metrics", 0), 0u) << diff.name;
    }
}

TEST_F(PerfTest, CancelledCampaignStillFlushesBenchDocument)
{
    runner::clearCancellation();
    RunnerOptions options;
    options.jobs = 1;
    options.benchPath =
        ::testing::TempDir() + "BENCH_cancelled.json";
    std::remove(options.benchPath.c_str());

    Harness harness("cancel_bench_tool", options);
    const auto wl =
        harness.profile(homogeneousWorkload("astar"), smallTraces());
    const SystemConfig &config = harness.config();
    std::vector<PassDesc> descs;
    for (const char *label : {"one", "two", "three"})
        descs.push_back({wl, label});

    try {
        testing::internal::CaptureStderr();
        harness.runPasses(descs, [&](std::size_t i) {
            if (i == 0)
                runner::requestCancellation(); // a SIGINT stand-in
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

    // The cancellation path ran finish(): the sampler thread is
    // joined and the BENCH document was written atomically.
    ASSERT_NE(harness.sampler(), nullptr);
    EXPECT_GE(harness.sampler()->summary().samples, 1u);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJsonFile(options.benchPath, doc, error))
        << error;
    EXPECT_EQ(doc.stringOr("tool", ""), "cancel_bench_tool");
    std::remove(options.benchPath.c_str());
}

} // namespace
} // namespace ramp
