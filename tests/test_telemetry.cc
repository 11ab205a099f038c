/**
 * @file
 * Unit tests for the telemetry subsystem (src/telemetry): sharded
 * counter exactness under threads, fixed-bucket histogram
 * semantics, snapshot determinism under the pool, trace-event JSON
 * well-formedness, and the split between the metrics bit
 * (obs::Telemetry) and the trace bit (obs::Trace) that the one
 * phase scope (prof::ScopedPhase) writes B/E pairs under.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "perf/resource.hh"
#include "prof/prof.hh"
#include "reliability/faultsim.hh"
#include "runner/pool.hh"
#include "telemetry/telemetry.hh"

namespace ramp::telemetry
{
namespace
{

/** Fresh metrics and trace state (both enabled) for each test body. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        resetAll();
        prof::reset();
        obs::set(obs::Telemetry | obs::Trace, true);
    }

    void TearDown() override
    {
        obs::set(obs::All, false);
        resetAll();
        prof::reset();
    }
};

TEST_F(TelemetryTest, ConcurrentCounterIncrementsSumExactly)
{
    Counter &counter = metrics().counter("test.concurrent");
    constexpr int threads = 8;
    constexpr std::uint64_t perThread = 10000;

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < perThread; ++i)
                counter.add(1);
        });
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(counter.total(), threads * perThread);
}

TEST_F(TelemetryTest, CounterAddHonoursWeight)
{
    Counter &counter = metrics().counter("test.weighted");
    counter.add(3);
    counter.add(4);
    EXPECT_EQ(counter.total(), 7u);
    counter.reset();
    EXPECT_EQ(counter.total(), 0u);
}

TEST(FixedHistogram, BucketBoundaries)
{
    auto hist = FixedHistogram::linear(0.0, 10.0, 5);
    ASSERT_EQ(hist.numBuckets(), 5u);
    // Buckets are [lo, hi): a value on an interior edge lands in
    // the bucket it opens.
    EXPECT_EQ(hist.bucketOf(0.0), 0u);
    EXPECT_EQ(hist.bucketOf(1.99), 0u);
    EXPECT_EQ(hist.bucketOf(2.0), 1u);
    EXPECT_EQ(hist.bucketOf(9.99), 4u);
    EXPECT_DOUBLE_EQ(hist.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(hist.bucketHigh(0), 2.0);
    EXPECT_DOUBLE_EQ(hist.bucketLow(4), 8.0);
    EXPECT_DOUBLE_EQ(hist.bucketHigh(4), 10.0);
}

TEST(FixedHistogram, ClampsOutOfRange)
{
    auto hist = FixedHistogram::linear(0.0, 10.0, 5);
    hist.add(-100.0);
    hist.add(100.0);
    hist.add(10.0); // the exclusive upper edge clamps down too
    EXPECT_EQ(hist.bucketCount(0), 1u);
    EXPECT_EQ(hist.bucketCount(4), 2u);
    EXPECT_EQ(hist.total(), 3u);
}

TEST(FixedHistogram, ExplicitEdgesAndCounts)
{
    FixedHistogram hist({0.0, 1.0, 10.0, 100.0});
    hist.add(0.5);
    hist.add(5.0, 3);
    hist.add(50.0);
    EXPECT_EQ(hist.bucketCount(0), 1u);
    EXPECT_EQ(hist.bucketCount(1), 3u);
    EXPECT_EQ(hist.bucketCount(2), 1u);
    EXPECT_EQ(hist.total(), 5u);
}

TEST(FixedHistogram, PercentilesInterpolateWithinBuckets)
{
    auto hist = FixedHistogram::linear(0.0, 100.0, 10);
    // A uniform series: quantiles track the identity line.
    for (int i = 0; i < 100; ++i)
        hist.add(i + 0.5);
    EXPECT_NEAR(hist.percentile(0.0), 0.0, 1.0);
    EXPECT_NEAR(hist.p50(), 50.0, 1.0);
    EXPECT_NEAR(hist.p95(), 95.0, 1.0);
    EXPECT_NEAR(hist.p99(), 99.0, 1.0);
    EXPECT_NEAR(hist.percentile(1.0), 100.0, 1.0);
    // Out-of-range quantiles clamp instead of extrapolating.
    EXPECT_DOUBLE_EQ(hist.percentile(-1.0), hist.percentile(0.0));
    EXPECT_DOUBLE_EQ(hist.percentile(2.0), hist.percentile(1.0));
}

TEST(FixedHistogram, PercentileOfSkewedMassLandsInItsBucket)
{
    auto hist = FixedHistogram::linear(0.0, 10.0, 10);
    hist.add(0.5, 99);
    hist.add(9.5, 1);
    // 99% of the mass sits in [0, 1): the median must too, and only
    // the extreme tail reaches the last bucket.
    EXPECT_LT(hist.p50(), 1.0);
    EXPECT_LT(hist.p95(), 1.0);
    EXPECT_GE(hist.percentile(0.995), 9.0);
}

TEST(FixedHistogram, PercentileOfEmptyHistogramIsNaN)
{
    const auto hist = FixedHistogram::linear(0.0, 1.0, 4);
    EXPECT_TRUE(std::isnan(hist.p50()));
    EXPECT_TRUE(std::isnan(hist.percentile(1.0)));
}

TEST(FixedHistogram, PercentilesClampToTheSampleRange)
{
    // One 88 s task in a [60, 600) bucket: interpolation alone
    // would report p95 = 573 s, a time no task took.
    FixedHistogram hist({0.0, 60.0, 600.0});
    hist.add(88.0);
    EXPECT_EQ(hist.min(), 88.0);
    EXPECT_EQ(hist.max(), 88.0);
    EXPECT_DOUBLE_EQ(hist.p50(), 88.0);
    EXPECT_DOUBLE_EQ(hist.p95(), 88.0);
    EXPECT_DOUBLE_EQ(hist.percentile(1.0), 88.0);

    // Extremes survive merge and are forgotten by reset.
    FixedHistogram other({0.0, 60.0, 600.0});
    other.add(30.0);
    hist.merge(other);
    EXPECT_EQ(hist.min(), 30.0);
    EXPECT_EQ(hist.max(), 88.0);
    EXPECT_LE(hist.p95(), 88.0);
    hist.reset();
    EXPECT_GT(hist.min(), hist.max());
}

TEST(FixedHistogram, MergeAddsCountsOfSameLayout)
{
    auto a = FixedHistogram::linear(0.0, 1.0, 4);
    auto b = FixedHistogram::linear(0.0, 1.0, 4);
    a.add(0.1);
    b.add(0.1);
    b.add(0.9, 2);
    a.merge(b);
    EXPECT_EQ(a.bucketCount(0), 2u);
    EXPECT_EQ(a.bucketCount(3), 2u);
    EXPECT_EQ(a.total(), 4u);
}

TEST(FixedHistogramDeath, MergeRejectsLayoutMismatch)
{
    auto a = FixedHistogram::linear(0.0, 1.0, 4);
    auto b = FixedHistogram::linear(0.0, 2.0, 4);
    EXPECT_FALSE(a.sameLayout(b));
    EXPECT_DEATH(a.merge(b), "layout");
}

TEST_F(TelemetryTest, HistogramMetricObservesAcrossThreads)
{
    auto &metric = metrics().histogram(
        "test.hist", FixedHistogram::linear(0.0, 4.0, 4));
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&metric, t] {
            for (int i = 0; i < 100; ++i)
                metric.observe(static_cast<double>(t) + 0.5);
        });
    for (auto &worker : workers)
        worker.join();

    const auto snap = metric.snapshot();
    for (std::size_t bucket = 0; bucket < 4; ++bucket)
        EXPECT_EQ(snap.bucketCount(bucket), 100u);
    EXPECT_EQ(snap.total(), 400u);
}

TEST_F(TelemetryTest, HistogramMetricSnapshotKeepsSampleRange)
{
    auto &metric = metrics().histogram(
        "test.wide", FixedHistogram({0.0, 60.0, 600.0}));
    metric.observe(88.0);
    const auto snap = metric.snapshot();
    EXPECT_EQ(snap.min(), 88.0);
    EXPECT_EQ(snap.max(), 88.0);
    EXPECT_DOUBLE_EQ(snap.p95(), 88.0);
    metric.reset();
    EXPECT_EQ(metric.snapshot().total(), 0u);
    EXPECT_GT(metric.snapshot().min(), metric.snapshot().max());
}

TEST_F(TelemetryTest, SnapshotIsDeterministicUnderThePool)
{
    // The same work fanned out over differently-sized pools must
    // merge to identical totals: every mutation is an unconditional
    // sharded add, so scheduling cannot change the sums.
    auto run = [](unsigned jobs) {
        metrics().resetValues();
        Counter &items = metrics().counter("test.pool.items");
        auto &weights = metrics().histogram(
            "test.pool.weights",
            FixedHistogram::linear(0.0, 64.0, 8));
        runner::ThreadPool pool(jobs);
        pool.runIndexed(64, [&](std::size_t i) {
            items.add(i);
            weights.observe(static_cast<double>(i));
        });
        const auto snap = metrics().snapshot();
        std::pair<std::uint64_t, std::vector<std::uint64_t>> out;
        out.first = snap.counterOr("test.pool.items");
        out.second =
            snap.histograms.at("test.pool.weights").counts();
        return out;
    };

    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(serial.first, 64u * 63u / 2u);
    EXPECT_EQ(serial, parallel);
}

TEST_F(TelemetryTest, DisabledSitesRecordNothing)
{
    obs::set(obs::Telemetry | obs::Trace, false);
    Counter &counter = metrics().counter("test.disabled");
    RAMP_OBS(Telemetry, counter.add(1));
    {
        RAMP_PROF_SCOPE(span, "test.span");
    }
    instant("test.instant", "test");
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_TRUE(collectEvents().empty());
}

TEST_F(TelemetryTest, SnapshotJsonHasAllSections)
{
    metrics().counter("test.json.counter").add(2);
    metrics().gauge("test.json.gauge").set(1.5);
    metrics()
        .histogram("test.json.hist",
                   FixedHistogram::linear(0.0, 1.0, 2))
        .observe(0.25);
    const std::string json = metrics().snapshot().toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.counter\": 2"),
              std::string::npos);
}

/**
 * Minimal JSON well-formedness scanner: validates balanced
 * braces/brackets outside strings and legal escape sequences. Not a
 * full parser, but enough to catch the classic emitter bugs
 * (trailing commas are additionally checked below).
 */
bool
jsonBalanced(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': stack.push_back('}'); break;
          case '[': stack.push_back(']'); break;
          case '}':
          case ']':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !in_string;
}

TEST_F(TelemetryTest, TraceJsonIsWellFormedWithNestedSpans)
{
    {
        RAMP_PROF_SCOPE(outer, "outer", "key", "value \"quoted\"\n");
        {
            RAMP_PROF_SCOPE(inner, "inner");
        }
        instant("marker", "test");
    }

    const std::string json = traceJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(json.find(",]"), std::string::npos);
    EXPECT_EQ(json.find(",}"), std::string::npos);

    // The args object carries the escaped value.
    const std::string args =
        "\"args\": {\"key\": \"value \\\"quoted\\\"\\n\"}";
    EXPECT_NE(json.find(args), std::string::npos) << json;

    // Scopes are well-nested per thread by construction: walking
    // this thread's events, every E closes the latest open B.
    std::vector<std::string> open;
    for (const auto &event : collectEvents()) {
        if (event.phase == 'B') {
            open.push_back(event.name);
        } else if (event.phase == 'E') {
            ASSERT_FALSE(open.empty());
            open.pop_back();
        }
    }
    EXPECT_TRUE(open.empty());
}

TEST_F(TelemetryTest, SpanOrderIsBeginInnerEnd)
{
    {
        RAMP_PROF_SCOPE(outer, "outer");
        RAMP_PROF_SCOPE(inner, "inner");
    }
    const auto events = collectEvents();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].phase, 'B');
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].phase, 'B');
    // Destruction order is inverse construction order.
    EXPECT_EQ(events[2].name, "inner");
    EXPECT_EQ(events[2].phase, 'E');
    EXPECT_EQ(events[3].name, "outer");
    EXPECT_EQ(events[3].phase, 'E');
    EXPECT_LE(events[0].tsMicros, events[3].tsMicros);
}

TEST_F(TelemetryTest, FaultSimShardsEmitSpansAndCounters)
{
    FaultSim sim(FaultSimConfig::hbmSecDed());
    sim.run(2000, 42);

    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counterOr("faultsim.trials"), 2000u);
    EXPECT_GE(snap.counterOr("faultsim.shards"), 1u);

    // The shard scopes cover the whole campaign; each B names the
    // configuration and has its E.
    std::uint64_t shard_begins = 0, shard_ends = 0;
    for (const auto &event : collectEvents()) {
        if (event.name != "faultsim.shard")
            continue;
        if (event.phase == 'B') {
            ++shard_begins;
            EXPECT_NE(event.argsJson.find("\"config\""),
                      std::string::npos);
        }
        shard_ends += event.phase == 'E';
    }
    EXPECT_EQ(shard_begins, snap.counterOr("faultsim.shards"));
    EXPECT_EQ(shard_ends, shard_begins);
}

/** Calls recorded for the phase at `path` (0 when it has none). */
std::uint64_t
phaseCalls(const std::string &path)
{
    for (const prof::PhaseStat &phase : prof::snapshot().phases)
        if (phase.path == path)
            return phase.calls;
    return 0;
}

TEST_F(TelemetryTest, ScopeRecordsWhatItsBitsSelect)
{
    auto events_named = [](const std::string &name) {
        std::vector<TraceEvent> out;
        for (const auto &event : collectEvents())
            if (event.name == name)
                out.push_back(event);
        return out;
    };

    // Prof only: a phase record and no trace event.
    obs::set(obs::All, false);
    obs::set(obs::Prof, true);
    {
        RAMP_PROF_SCOPE(scope, "test.prof_only", "key", "value");
    }
    EXPECT_EQ(phaseCalls("test.prof_only"), 1u);
    EXPECT_TRUE(collectEvents().empty());

    // Trace only: a B/E pair with args, and no profiler state, even
    // on a thread that never profiled.
    obs::set(obs::All, false);
    obs::set(obs::Trace, true);
    const std::size_t states = prof::threadStateCountForTest();
    std::thread([] {
        RAMP_PROF_SCOPE(scope, "test.trace_only", "key", "value");
    }).join();
    EXPECT_EQ(prof::threadStateCountForTest(), states);
    EXPECT_EQ(phaseCalls("test.trace_only"), 0u);
    const auto traced = events_named("test.trace_only");
    ASSERT_EQ(traced.size(), 2u);
    EXPECT_EQ(traced[0].phase, 'B');
    EXPECT_EQ(traced[0].argsJson, "{\"key\": \"value\"}");
    EXPECT_EQ(traced[1].phase, 'E');
    EXPECT_LE(traced[0].tsMicros, traced[1].tsMicros);

    // Both: both.
    obs::set(obs::Prof | obs::Trace, true);
    {
        RAMP_PROF_SCOPE_PMU(scope, "test.both");
    }
    EXPECT_EQ(phaseCalls("test.both"), 1u);
    const auto both = events_named("test.both");
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0].phase, 'B');
    EXPECT_EQ(both[0].argsJson, "");
    EXPECT_EQ(both[1].phase, 'E');
}

TEST_F(TelemetryTest, MetricsWithoutTraceBufferNoEvents)
{
    // What --bench-out and --metrics-out switch on: the metrics
    // registry and nothing that only --trace-out reads. Log capture
    // stays installed from any earlier --trace-out in the process.
    obs::set(obs::All, false);
    obs::set(obs::Telemetry, true);
    captureLogEvents();

    constexpr std::size_t tasks = 16;
    {
        runner::ThreadPool pool(2);
        pool.runIndexed(tasks, [](std::size_t) {});
    }
    ramp_warn("metrics-only log probe");
    perf::ResourceSampler sampler(std::chrono::milliseconds(1000));
    sampler.stop();

    EXPECT_TRUE(collectEvents().empty());
    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counterOr("pool.tasks"), tasks);
    ASSERT_EQ(snap.histograms.count("pool.task_seconds"), 1u);
    EXPECT_EQ(snap.histograms.at("pool.task_seconds").total(), tasks);
    EXPECT_GE(sampler.summary().samples, 1u);
}

TEST_F(TelemetryTest, LogCaptureEmitsInstantEvents)
{
    captureLogEvents();
    ramp_warn("telemetry capture probe");

    bool saw = false;
    for (const auto &event : collectEvents())
        if (event.phase == 'i' && event.cat == "log" &&
            event.argsJson.find("telemetry capture probe") !=
                std::string::npos)
            saw = true;
    EXPECT_TRUE(saw);
}

TEST_F(TelemetryTest, SnapshotQuantileAccessorMatchesHistogram)
{
    auto &metric = metrics().histogram(
        "test.quantiles", FixedHistogram::linear(0.0, 10.0, 10));
    for (int i = 0; i < 100; ++i)
        metric.observe((i % 10) + 0.5);
    const auto snap = metrics().snapshot();
    EXPECT_NEAR(snap.histogramPercentile("test.quantiles", 0.5),
                5.0, 0.5);
    // Unknown names and empty histograms answer NaN, not zero.
    EXPECT_TRUE(
        std::isnan(snap.histogramPercentile("no.such.hist", 0.5)));
}

TEST_F(TelemetryTest, CounterEventsAppearAsCounterPhase)
{
    counterEvent("proc.rss", "resource", "mb", 123.5);
    bool saw = false;
    for (const auto &event : collectEvents()) {
        if (event.phase != 'C' || event.name != "proc.rss")
            continue;
        saw = true;
        EXPECT_EQ(event.cat, "resource");
        EXPECT_NE(event.argsJson.find("\"mb\""),
                  std::string::npos);
        EXPECT_NE(event.argsJson.find("123.5"), std::string::npos);
    }
    EXPECT_TRUE(saw);

    const std::string json = traceJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST(TelemetryRegistryDeath, HistogramRelayoutPanics)
{
    metrics().histogram("test.relayout",
                        FixedHistogram::linear(0.0, 1.0, 2));
    EXPECT_DEATH(metrics().histogram(
                     "test.relayout",
                     FixedHistogram::linear(0.0, 2.0, 2)),
                 "layout");
}

} // namespace
} // namespace ramp::telemetry
