/**
 * @file
 * Tests for the health monitor and epoch timeline (src/health).
 *
 * Locks the subsystem's contracts: the rule grammar round-trips and
 * rejects malformed input, `for=` hysteresis fires exactly once per
 * sustained breach, the timeline's final metrics record is an exact
 * registry delta even under concurrent pool writers, the rendered
 * timeline of a placement-service run is byte-identical at any pool
 * width, and an injected fault storm keeps the monitor, the
 * decision ledger, and the telemetry counters in exact agreement on
 * how many rules fired.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "eventlog/eventlog.hh"
#include "faults/injector.hh"
#include "health/health.hh"
#include "health/rules.hh"
#include "hma/system.hh"
#include "perf/json.hh"
#include "runner/pool.hh"
#include "service/service.hh"
#include "telemetry/telemetry.hh"

namespace ramp
{
namespace
{

/** The layers the harness switches on with the health timeline. */
constexpr std::uint8_t monitorLayers =
    obs::Telemetry | obs::Events | obs::Health;

/** Fresh, enabled monitor per test; everything off afterwards. */
class HealthTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        telemetry::resetAll();
        eventlog::reset();
        health::reset();
        obs::set(monitorLayers, true);
    }

    void TearDown() override
    {
        obs::set(monitorLayers, false);
        health::reset();
        eventlog::reset();
        telemetry::resetAll();
    }
};

TEST(HealthRules, CanonicalFormsRoundTrip)
{
    const char *canonical[] = {
        "alert:p99_slowdown>2,for=3",
        "warn:fairness<0.9,for=2",
        "alert:shard_degraded",
        "warn:degraded",
        "alert:slowdown>1.5,tenant=7",
        "warn:hbm_share<0.25,for=4,tenant=2",
        "alert:shard_occupancy>0.95,shard=3",
        "warn:churn>4096",
        "alert:fault_backlog>128,for=2",
    };
    for (const char *text : canonical) {
        std::string error;
        const auto rules = health::parseHealthRules(text, error);
        ASSERT_TRUE(error.empty()) << text << ": " << error;
        ASSERT_EQ(rules.size(), 1u) << text;
        EXPECT_EQ(health::formatHealthRule(rules[0]), text);
    }

    // A full rule set round-trips through the ';' join, and a
    // re-parse of the canonical spelling yields the same rules.
    const std::string set =
        "alert:shard_degraded;alert:p99_slowdown>2,for=3;"
        "warn:fairness<0.9,for=2";
    std::string error;
    const auto rules = health::parseHealthRules(set, error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(rules.size(), 3u);
    EXPECT_EQ(health::formatHealthRules(rules), set);
    const auto again = health::parseHealthRules(
        health::formatHealthRules(rules), error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(again, rules);

    // Whitespace and number spellings normalize to canonical form.
    const auto spaced = health::parseHealthRules(
        " alert : p99_slowdown > 2.0 , for = 3 ", error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(spaced.size(), 1u);
    EXPECT_EQ(health::formatHealthRule(spaced[0]),
              "alert:p99_slowdown>2,for=3");

    EXPECT_EQ(health::defaultRules(), rules);
}

TEST(HealthRules, RejectsMalformedInput)
{
    const char *bad[] = {
        "",                              // no rules at all
        "alert",                         // no signal
        "fatal:p99_slowdown>2",          // unknown severity
        "alert:p99_slowdown",            // numeric without threshold
        "alert:p99_slowdown>",           // empty threshold
        "alert:p99_slowdown>abc",        // non-numeric threshold
        "alert:shard_degraded>1",        // boolean with threshold
        "alert:no_such_signal>1",        // unknown signal
        "alert:p99_slowdown>2,for=0",    // for= must be >= 1
        "alert:p99_slowdown>2,for=abc",  // non-numeric for=
        "alert:p99_slowdown>2,bogus=1",  // unknown field
        "alert:p99_slowdown>2,tenant=1", // tenant= on run-wide signal
        "alert:slowdown>2,shard=0",      // shard= on tenant signal
        ";;",                            // only separators
    };
    for (const char *text : bad) {
        std::string error;
        const auto rules = health::parseHealthRules(text, error);
        EXPECT_FALSE(error.empty())
            << "'" << text << "' parsed as "
            << health::formatHealthRules(rules);
        EXPECT_TRUE(rules.empty()) << text;
    }
}

TEST(HealthRules, RejectsNonFiniteAndOutOfRangeNumbers)
{
    // A threshold must be finite and each field must fit its type;
    // failures keep the grammar's existing messages.
    const std::pair<const char *, const char *> cases[] = {
        {"warn:fairness<nan",
         "health rules: bad threshold in 'fairness<nan'"},
        {"warn:fairness<inf",
         "health rules: bad threshold in 'fairness<inf'"},
        {"warn:churn>-inf", "health rules: bad threshold in 'churn>-inf'"},
        {"warn:churn>1e400",
         "health rules: bad threshold in 'churn>1e400'"},
        {"warn:churn>5,for=nan", "health rules: bad number in 'for=nan'"},
        {"warn:churn>5,for=inf", "health rules: bad number in 'for=inf'"},
        {"warn:churn>5,for=1e10",
         "health rules: bad number in 'for=1e10'"},
        {"warn:churn>5,for=4294967296",
         "health rules: bad number in 'for=4294967296'"},
        {"warn:slowdown>2,tenant=nan",
         "health rules: bad number in 'tenant=nan'"},
        {"warn:slowdown>2,tenant=inf",
         "health rules: bad number in 'tenant=inf'"},
        {"warn:slowdown>2,tenant=1e10",
         "health rules: bad number in 'tenant=1e10'"},
        {"warn:shard_occupancy>0.5,shard=nan",
         "health rules: bad number in 'shard=nan'"},
        {"warn:shard_occupancy>0.5,shard=inf",
         "health rules: bad number in 'shard=inf'"},
        {"warn:shard_occupancy>0.5,shard=2147483648",
         "health rules: bad number in 'shard=2147483648'"},
    };
    for (const auto &[text, message] : cases) {
        std::string error;
        EXPECT_TRUE(health::parseHealthRules(text, error).empty())
            << text;
        EXPECT_EQ(error, message) << text;
    }
}

TEST_F(HealthTest, HysteresisFiresOncePerSustainedBreach)
{
    std::string error;
    health::setRules(
        health::parseHealthRules("alert:p99_slowdown>2,for=3",
                                 error));
    ASSERT_TRUE(error.empty()) << error;

    std::size_t callbacks = 0;
    health::addAlertCallback(
        [&](const health::HealthAlert &) { ++callbacks; });

    auto sample = [](std::uint64_t epoch, double p99) {
        health::TimelineSample s;
        s.source = "system";
        s.epoch = epoch;
        s.p99Slowdown = p99;
        return s;
    };

    // Five consecutive breaches: the rule fires exactly once, at
    // the third (for=3), not again while the breach persists.
    for (std::uint64_t epoch = 1; epoch <= 5; ++epoch)
        health::record(sample(epoch, 3.0));
    auto fired = health::alerts();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].epoch, 3u);
    EXPECT_EQ(fired[0].rule, 0u);
    EXPECT_EQ(fired[0].severity, health::Severity::Alert);
    EXPECT_EQ(fired[0].signal, health::HealthSignal::P99Slowdown);
    EXPECT_DOUBLE_EQ(fired[0].value, 3.0);
    EXPECT_DOUBLE_EQ(fired[0].threshold, 2.0);
    EXPECT_EQ(callbacks, 1u);

    // Two breaches, a recovery, two more: never reaches for=3.
    health::record(sample(6, 1.0)); // reset
    health::record(sample(7, 3.0));
    health::record(sample(8, 3.0));
    health::record(sample(9, 1.0)); // reset again
    health::record(sample(10, 3.0));
    health::record(sample(11, 3.0));
    EXPECT_EQ(health::alerts().size(), 1u);

    // A second sustained breach after recovery fires again.
    health::record(sample(12, 3.0));
    fired = health::alerts();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1].epoch, 12u);
    EXPECT_EQ(callbacks, 2u);

    // An unmeasured signal (NaN) is not a breach.
    health::record(sample(13, health::unmeasured));
    health::record(sample(14, 3.0));
    health::record(sample(15, 3.0));
    health::record(sample(16, 3.0));
    EXPECT_EQ(health::alerts().size(), 3u);
}

TEST_F(HealthTest, MetricsDeltaExactUnderConcurrentWriters)
{
    // Counts accumulated before the rules are installed must not
    // leak into the delta: install them after priming the counter.
    telemetry::metrics().counter("test.health.delta").add(1000);
    telemetry::metrics().counter("pool.fake").add(7);
    health::setRules({}); // captures the baseline

    runner::ThreadPool pool(4);
    constexpr std::uint64_t tasks = 256;
    pool.runIndexed(tasks, [](std::size_t index) {
        telemetry::metrics()
            .counter("test.health.delta")
            .add(index % 5 + 1);
        telemetry::metrics().counter("pool.fake").add(1);
    });
    std::uint64_t expected = 0;
    for (std::uint64_t index = 0; index < tasks; ++index)
        expected += index % 5 + 1;

    // The metrics record is the last JSONL line of the timeline.
    const std::string timeline = health::timelineJsonl("test");
    const std::size_t cut = timeline.rfind("{\"type\": \"metrics\"");
    ASSERT_NE(cut, std::string::npos);
    perf::JsonValue metrics;
    std::string error;
    std::string last = timeline.substr(cut);
    ASSERT_FALSE(last.empty());
    last.pop_back(); // trailing newline
    ASSERT_TRUE(perf::parseJson(last, metrics, error)) << error;
    const perf::JsonValue *counters = metrics.find("counters");
    ASSERT_NE(counters, nullptr);

    // Exact delta — the sharded counters summed exactly, and the
    // pre-install 1000 stayed out of it.
    EXPECT_DOUBLE_EQ(
        counters->numberOr("test.health.delta", -1),
        static_cast<double>(expected));
    // Host-dependent families never appear, even when touched.
    EXPECT_EQ(counters->find("pool.fake"), nullptr);
}

service::TenantSpec
healthTenantSpec(std::uint32_t id)
{
    service::TenantSpec spec;
    spec.id = id;
    spec.footprintPages = 192;
    spec.requests = 3000;
    spec.cores = 2;
    spec.zipfSkew = 0.8;
    spec.writeFraction = 0.25;
    spec.seed = 300 + id;
    spec.hbmQuotaFraction = 0.5;
    spec.relClass = static_cast<service::ReliabilityClass>(id % 3);
    return spec;
}

std::string
serviceTimeline(unsigned jobs)
{
    telemetry::resetAll();
    eventlog::reset();
    health::reset();
    obs::set(monitorLayers, true);
    health::setRules(health::defaultRules());

    SystemConfig system = SystemConfig::scaledDefault();
    system.cores = 4;
    service::ServiceConfig config;
    config.shards = 2;
    config.epochs = 3;
    config.soloBaselines = true;
    std::string error;
    config.faultPlan = parseFaultPlan(
        "uncorrected:page=3,epoch=2;"
        "capacity:tier=hbm,pct=25,epoch=2",
        error);
    EXPECT_TRUE(error.empty()) << error;
    config.faultShard = 0;

    service::PlacementService placement(system, config);
    for (std::uint32_t id = 1; id <= 6; ++id)
        EXPECT_TRUE(placement.admit(healthTenantSpec(id)));
    runner::ThreadPool pool(jobs);
    placement.run(pool);
    return health::timelineJsonl("test_health");
}

TEST_F(HealthTest, ServiceTimelineInvariantUnderJobs)
{
    const std::string serial = serviceTimeline(1);
    const std::string wide = serviceTimeline(4);
    EXPECT_GT(health::sampleCount(), 0u);
    EXPECT_EQ(serial, wide);
    // The run produced service-source samples (the global epochs)
    // and at least one fired rule (shard 0 degrades at epoch 2).
    EXPECT_NE(serial.find("\"source\": \"service\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"type\": \"alert\""),
              std::string::npos);
}

TEST_F(HealthTest, StormAlertsAgreeAcrossLedgerAndTelemetry)
{
    health::setRules(health::defaultRules());
    const auto before = telemetry::metrics().snapshot();

    SystemConfig config = SystemConfig::scaledDefault();
    config.cores = 2;
    config.fcIntervalCycles = 10000;
    config.meaIntervalCycles = 1000;

    std::vector<CoreTrace> traces(2);
    for (int core = 0; core < 2; ++core) {
        for (int i = 0; i < 3000; ++i) {
            MemRequest req;
            const int page = (i * 7 + core) % 16;
            req.addr = static_cast<Addr>(page) * pageSize +
                       static_cast<Addr>(i % 64) * lineSize;
            req.gap = 20;
            req.core = static_cast<CoreId>(core);
            req.isWrite = (i % 4) == 0;
            traces[static_cast<std::size_t>(core)].push_back(req);
        }
    }
    PlacementMap map(config.hbmPages());
    for (PageId page = 0; page < 16; ++page)
        map.place(page, MemoryId::HBM);

    InjectorConfig faults;
    std::string error;
    faults.script = parseFaultPlan(
        "uncorrected:page=3,epoch=1;"
        "capacity:tier=hbm,pct=25,epoch=2;"
        "correctable:page=1,count=4,epoch=3",
        error);
    ASSERT_TRUE(error.empty()) << error;
    faults.epochCycles = 2000;
    FaultInjector injector(faults);

    eventlog::RunScope scope("storm/static");
    HmaSystem system(config);
    const SimResult result =
        system.run(traces, map, nullptr, &injector);
    ASSERT_TRUE(result.degraded);

    // The capacity loss degrades the run's one shard, so the
    // default shard_degraded rule (for=1) fired at least once.
    const auto fired = health::alerts();
    ASSERT_FALSE(fired.empty());
    std::uint64_t alert_count = 0;
    std::uint64_t warn_count = 0;
    for (const health::HealthAlert &alert : fired) {
        if (alert.severity == health::Severity::Alert)
            ++alert_count;
        else
            ++warn_count;
    }

    // Monitor <-> telemetry agreement.
    const auto after = telemetry::metrics().snapshot();
    EXPECT_EQ(after.counterOr("health.alerts") -
                  before.counterOr("health.alerts"),
              alert_count);
    EXPECT_EQ(after.counterOr("health.warns") -
                  before.counterOr("health.warns"),
              warn_count);
    EXPECT_EQ(after.counterOr("health.samples") -
                  before.counterOr("health.samples"),
              health::sampleCount());

    // Monitor <-> ledger agreement: one alert-kind record per
    // fired rule, carrying the same rule index and epoch.
    std::istringstream ledger(eventlog::toJsonl("test_health"));
    std::string line;
    std::size_t ledger_alerts = 0;
    while (std::getline(ledger, line)) {
        if (line.find("\"kind\": \"alert\"") == std::string::npos)
            continue;
        perf::JsonValue record;
        ASSERT_TRUE(perf::parseJson(line, record, error)) << error;
        EXPECT_EQ(record.stringOr("run", ""), "storm/static");
        EXPECT_EQ(record.stringOr("signal", ""), "shard_degraded");
        EXPECT_EQ(record.numberOr("rule", -1), 0.0);
        ++ledger_alerts;
    }
    EXPECT_EQ(ledger_alerts, fired.size());

    // And the timeline document quotes the same counts it carries.
    const std::string timeline =
        health::timelineJsonl("test_health");
    std::istringstream lines(timeline);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    perf::JsonValue head;
    ASSERT_TRUE(perf::parseJson(header, head, error)) << error;
    EXPECT_EQ(head.stringOr("schema", ""), "ramp-timeline-v1");
    EXPECT_EQ(head.numberOr("alerts", -1),
              static_cast<double>(fired.size()));
    EXPECT_EQ(head.numberOr("samples", -1),
              static_cast<double>(health::sampleCount()));
}

} // namespace
} // namespace ramp
