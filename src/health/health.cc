#include "health/health.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/json.hh"
#include "common/parse.hh"
#include "eventlog/eventlog.hh"
#include "telemetry/telemetry.hh"

namespace ramp::health
{

namespace
{

/** Everything behind one lock; record() is epoch-rate, not hot. */
struct Store
{
    std::mutex mutex;
    std::vector<TimelineSample> samples;
    std::vector<HealthAlert> alerts;
    std::vector<HealthRule> rules;

    /** Next seq per (source '\n' run). */
    std::map<std::string, std::uint64_t> nextSeq;

    /** Consecutive breaches per (rule '\n' source '\n' run '\n' scope). */
    std::map<std::string, std::uint32_t> streaks;

    /** Counter totals at setRules() (delta baseline). */
    std::map<std::string, std::uint64_t> baseline;
};

Store &
store()
{
    static Store instance;
    return instance;
}

/** Host/scheduling-dependent counter families the timeline skips. */
bool
hostDependentCounter(const std::string &name)
{
    return name.rfind("proc.", 0) == 0 || name.rfind("pool.", 0) == 0;
}

std::string
streakKey(std::size_t rule, const TimelineSample &sample,
          std::uint32_t tenant, std::int32_t shard)
{
    std::string key = std::to_string(rule);
    key += '\n';
    key += sample.source;
    key += '\n';
    key += sample.run;
    key += '\n';
    if (tenant != 0)
        key += 't' + std::to_string(tenant);
    else if (shard >= 0)
        key += 's' + std::to_string(shard);
    return key;
}

/** Sample ordering: (source, run label, seq). */
bool
sampleBefore(const TimelineSample &a, const TimelineSample &b)
{
    return std::tie(a.source, a.run, a.seq) <
           std::tie(b.source, b.run, b.seq);
}

/** Alert ordering: sample order first, then rule, then scope. */
bool
alertBefore(const HealthAlert &a, const HealthAlert &b)
{
    return std::tie(a.source, a.run, a.seq, a.rule, a.tenant,
                    a.shard) < std::tie(b.source, b.run, b.seq,
                                        b.rule, b.tenant, b.shard);
}

void
fireLocked(Store &s, const HealthRule &rule, std::uint32_t rule_index,
           const TimelineSample &sample, std::uint32_t tenant,
           std::int32_t shard, double value)
{
    HealthAlert alert;
    alert.severity = rule.severity;
    alert.rule = rule_index;
    alert.signal = rule.signal;
    alert.source = sample.source;
    alert.run = sample.run;
    alert.epoch = sample.epoch;
    alert.seq = sample.seq;
    alert.tenant = tenant;
    alert.shard = shard;
    alert.value = value;
    alert.threshold = rule.cmp == Comparator::None ? unmeasured
                                                   : rule.threshold;
    s.alerts.push_back(alert);

    RAMP_OBS(Telemetry, {
        auto &metrics = telemetry::metrics();
        metrics.counter(rule.severity == Severity::Alert
                            ? "health.alerts"
                            : "health.warns")
            .add(1);
    });

    RAMP_OBS(Events, {
        eventlog::TenantScope tenant_scope(tenant);
        eventlog::EventRecord record;
        record.kind = eventlog::EventKind::Alert;
        record.epoch = sample.epoch;
        record.detail =
            static_cast<std::uint8_t>(rule.severity);
        record.span = rule_index;
        record.region = static_cast<std::uint32_t>(rule.signal);
        record.moved =
            shard >= 0 ? static_cast<std::uint32_t>(shard) + 1 : 0;
        record.hotness = static_cast<float>(value);
        record.threshHot = static_cast<float>(
            rule.cmp == Comparator::None ? unmeasured
                                         : rule.threshold);
        eventlog::emit(record);
    });
}

/**
 * One (rule, scope instance) evaluation: advance or reset the
 * hysteresis streak and fire exactly when it reaches for=.
 */
void
evaluateScopeLocked(Store &s, const HealthRule &rule,
                    std::uint32_t rule_index,
                    const TimelineSample &sample,
                    std::uint32_t tenant, std::int32_t shard,
                    double value, bool breach)
{
    auto &streak =
        s.streaks[streakKey(rule_index, sample, tenant, shard)];
    if (!breach) {
        streak = 0;
        return;
    }
    ++streak;
    if (streak == rule.forEpochs)
        fireLocked(s, rule, rule_index, sample, tenant, shard, value);
}

bool
numericBreach(const HealthRule &rule, double value)
{
    if (!std::isfinite(value))
        return false;
    return rule.cmp == Comparator::Greater ? value > rule.threshold
                                           : value < rule.threshold;
}

void
evaluateLocked(Store &s, const TimelineSample &sample)
{
    for (std::size_t i = 0; i < s.rules.size(); ++i) {
        const HealthRule &rule = s.rules[i];
        const auto index = static_cast<std::uint32_t>(i);
        switch (rule.signal) {
          case HealthSignal::P99Slowdown:
          case HealthSignal::Fairness:
          case HealthSignal::FaultBacklog:
          case HealthSignal::Churn: {
            double value = 0;
            if (rule.signal == HealthSignal::P99Slowdown)
                value = sample.p99Slowdown;
            else if (rule.signal == HealthSignal::Fairness)
                value = sample.fairness;
            else if (rule.signal == HealthSignal::FaultBacklog)
                value = sample.backlog;
            else
                value = static_cast<double>(sample.moves);
            evaluateScopeLocked(s, rule, index, sample, 0, -1, value,
                                numericBreach(rule, value));
            break;
          }
          case HealthSignal::Degraded:
            evaluateScopeLocked(s, rule, index, sample, 0, -1,
                                sample.degraded ? 1 : 0,
                                sample.degraded);
            break;
          case HealthSignal::Slowdown:
          case HealthSignal::HbmShare:
            for (const TenantSample &tenant : sample.tenants) {
                if (rule.tenant != 0 && tenant.id != rule.tenant)
                    continue;
                const double value =
                    rule.signal == HealthSignal::Slowdown
                        ? tenant.slowdown
                        : tenant.hbmShare;
                evaluateScopeLocked(s, rule, index, sample,
                                    tenant.id, -1, value,
                                    numericBreach(rule, value));
            }
            break;
          case HealthSignal::ShardOccupancy:
            for (const ShardSample &shard : sample.shards) {
                if (rule.shard >= 0 &&
                    shard.shard !=
                        static_cast<std::uint32_t>(rule.shard))
                    continue;
                evaluateScopeLocked(
                    s, rule, index, sample, 0,
                    static_cast<std::int32_t>(shard.shard),
                    shard.occupancy,
                    numericBreach(rule, shard.occupancy));
            }
            break;
          case HealthSignal::ShardDegraded:
            for (const ShardSample &shard : sample.shards) {
                if (rule.shard >= 0 &&
                    shard.shard !=
                        static_cast<std::uint32_t>(rule.shard))
                    continue;
                evaluateScopeLocked(
                    s, rule, index, sample, 0,
                    static_cast<std::int32_t>(shard.shard),
                    shard.degraded ? 1 : 0, shard.degraded);
            }
            break;
        }
    }
}

std::string
sampleJson(const TimelineSample &sample)
{
    std::ostringstream out;
    out << "{\"type\": \"sample\", \"source\": \""
        << jsonEscape(sample.source) << "\", \"run\": \""
        << jsonEscape(sample.run) << "\", \"epoch\": " << sample.epoch
        << ", \"seq\": " << sample.seq
        << ", \"moves\": " << sample.moves
        << ", \"faults_injected\": " << sample.faultsInjected
        << ", \"pages_retired\": " << sample.pagesRetired
        << ", \"capacity_lost\": " << sample.capacityLost
        << ", \"backlog\": " << jsonNumber(sample.backlog)
        << ", \"degraded\": "
        << (sample.degraded ? "true" : "false")
        << ", \"fairness\": " << jsonNumber(sample.fairness)
        << ", \"p99_slowdown\": " << jsonNumber(sample.p99Slowdown)
        << ", \"tenants\": [";
    bool first = true;
    for (const TenantSample &tenant : sample.tenants) {
        if (!first)
            out << ", ";
        first = false;
        out << "{\"tenant\": " << tenant.id
            << ", \"shard\": " << tenant.shard
            << ", \"resident\": " << tenant.resident
            << ", \"grant\": " << tenant.grant
            << ", \"hbm_share\": " << jsonNumber(tenant.hbmShare)
            << ", \"slowdown\": " << jsonNumber(tenant.slowdown)
            << "}";
    }
    out << "], \"shards\": [";
    first = true;
    for (const ShardSample &shard : sample.shards) {
        if (!first)
            out << ", ";
        first = false;
        out << "{\"shard\": " << shard.shard
            << ", \"capacity\": " << shard.capacityPages
            << ", \"used\": " << shard.usedPages
            << ", \"occupancy\": " << jsonNumber(shard.occupancy)
            << ", \"degraded\": " << (shard.degraded ? "true" : "false")
            << ", \"retired\": " << shard.retired << "}";
    }
    out << "]}";
    return out.str();
}

/**
 * The fields of one timeline record. A missing or mistyped field
 * names itself in `problem` (the first one wins), which fails the
 * record, so a renamed key never reads as a default.
 */
struct FieldReader
{
    const JsonValue &record;
    const char *what;
    std::string &problem;

    void fail(const char *key, const char *why = "missing or malformed")
    {
        if (problem.empty())
            problem = std::string(what) + " record: " + why +
                      " field '" + key + "'";
    }

    const JsonValue &get(const char *key, JsonValue::Kind kind)
    {
        static const JsonValue none;
        const JsonValue *value = record.find(key);
        if (value != nullptr && value->kind == kind)
            return *value;
        fail(key);
        return none;
    }

    std::string text(const char *key)
    {
        return get(key, JsonValue::Kind::String).string;
    }

    bool flag(const char *key)
    {
        return get(key, JsonValue::Kind::Bool).boolean;
    }

    template <typename T>
    T whole(const char *key)
    {
        T out{};
        if (!assignFinite(out, get(key, JsonValue::Kind::Number).number))
            fail(key);
        return out;
    }

    /** A signal value; null reads back as unmeasured. */
    double measured(const char *key)
    {
        const JsonValue *value = record.find(key);
        return value != nullptr && value->isNull()
                   ? unmeasured
                   : get(key, JsonValue::Kind::Number).number;
    }

    template <typename E>
    E name(const char *key, E last, const char *(*spell)(E))
    {
        const auto parsed =
            parseName(text(key), static_cast<E>(0), last, spell);
        if (!parsed)
            fail(key, "unknown value in");
        return parsed.value_or(last);
    }
};

/** sampleJson()'s inverse. */
TimelineSample
readSample(const JsonValue &record, std::string &problem)
{
    FieldReader in{record, "sample", problem};
    TimelineSample sample;
    sample.source = in.text("source");
    sample.run = in.text("run");
    sample.epoch = in.whole<std::uint64_t>("epoch");
    sample.seq = in.whole<std::uint64_t>("seq");
    sample.moves = in.whole<std::uint64_t>("moves");
    sample.faultsInjected = in.whole<std::uint64_t>("faults_injected");
    sample.pagesRetired = in.whole<std::uint64_t>("pages_retired");
    sample.capacityLost = in.whole<std::uint64_t>("capacity_lost");
    sample.backlog = in.measured("backlog");
    sample.degraded = in.flag("degraded");
    sample.fairness = in.measured("fairness");
    sample.p99Slowdown = in.measured("p99_slowdown");
    for (const JsonValue &row :
         in.get("tenants", JsonValue::Kind::Array).array) {
        FieldReader cell{row, "tenant", problem};
        TenantSample &tenant = sample.tenants.emplace_back();
        tenant.id = cell.whole<std::uint32_t>("tenant");
        tenant.shard = cell.whole<std::uint32_t>("shard");
        tenant.resident = cell.whole<std::uint64_t>("resident");
        tenant.grant = cell.whole<std::uint64_t>("grant");
        tenant.hbmShare = cell.measured("hbm_share");
        tenant.slowdown = cell.measured("slowdown");
    }
    for (const JsonValue &row :
         in.get("shards", JsonValue::Kind::Array).array) {
        FieldReader cell{row, "shard", problem};
        ShardSample &shard = sample.shards.emplace_back();
        shard.shard = cell.whole<std::uint32_t>("shard");
        shard.capacityPages = cell.whole<std::uint64_t>("capacity");
        shard.usedPages = cell.whole<std::uint64_t>("used");
        shard.occupancy = cell.measured("occupancy");
        shard.degraded = cell.flag("degraded");
        shard.retired = cell.whole<std::uint64_t>("retired");
    }
    return sample;
}

/** alertJson()'s inverse. */
HealthAlert
readAlert(const JsonValue &record, std::string &problem)
{
    FieldReader in{record, "alert", problem};
    HealthAlert alert;
    alert.severity = in.name("severity", Severity::Alert, severityName);
    alert.rule = in.whole<std::uint32_t>("rule");
    alert.signal = in.name("signal", HealthSignal::ShardDegraded,
                           healthSignalName);
    alert.source = in.text("source");
    alert.run = in.text("run");
    alert.epoch = in.whole<std::uint64_t>("epoch");
    alert.seq = in.whole<std::uint64_t>("seq");
    // Run-wide alerts omit their scope.
    if (record.find("tenant") != nullptr)
        alert.tenant = in.whole<std::uint32_t>("tenant");
    if (record.find("shard") != nullptr)
        alert.shard = in.whole<std::int32_t>("shard");
    alert.value = in.measured("value");
    alert.threshold = in.measured("threshold");
    return alert;
}

} // namespace

void
setRules(std::vector<HealthRule> rules)
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.baseline = telemetry::metrics().snapshot().counters;
    s.rules = std::move(rules);
    s.streaks.clear();
    RAMP_OBS(Telemetry,
             telemetry::metrics().gauge("health.rules").set(
                 static_cast<double>(s.rules.size())));
}

std::vector<HealthRule>
rules()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.rules;
}

std::vector<HealthRule>
defaultRules()
{
    std::string error;
    auto rules = parseHealthRules(
        "alert:shard_degraded;alert:p99_slowdown>2,for=3;"
        "warn:fairness<0.9,for=2",
        error);
    return rules;
}

void
record(TimelineSample sample)
{
    if (!obs::on(obs::Health))
        return;
    sample.run = eventlog::currentRunLabel();
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    sample.seq = s.nextSeq[sample.source + '\n' + sample.run]++;
    RAMP_OBS(Telemetry,
             telemetry::metrics().counter("health.samples").add(1));
    evaluateLocked(s, sample);
    s.samples.push_back(std::move(sample));
}

std::uint64_t
sampleCount()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.samples.size();
}

std::vector<HealthAlert>
alerts()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<HealthAlert> sorted = s.alerts;
    std::stable_sort(sorted.begin(), sorted.end(), alertBefore);
    return sorted;
}

std::string
alertJson(const HealthAlert &alert)
{
    std::ostringstream out;
    out << "{\"type\": \"alert\", \"severity\": \""
        << severityName(alert.severity)
        << "\", \"rule\": " << alert.rule << ", \"signal\": \""
        << healthSignalName(alert.signal) << "\", \"source\": \""
        << jsonEscape(alert.source) << "\", \"run\": \""
        << jsonEscape(alert.run) << "\", \"epoch\": " << alert.epoch
        << ", \"seq\": " << alert.seq;
    if (alert.tenant != 0)
        out << ", \"tenant\": " << alert.tenant;
    if (alert.shard >= 0)
        out << ", \"shard\": " << alert.shard;
    out << ", \"value\": " << jsonNumber(alert.value)
        << ", \"threshold\": " << jsonNumber(alert.threshold) << "}";
    return out.str();
}

std::string
timelineJsonl(const std::string &tool)
{
    Store &s = store();
    std::unique_lock<std::mutex> lock(s.mutex);
    std::vector<TimelineSample> samples = s.samples;
    const auto rule_set = s.rules;
    const auto baseline = s.baseline;
    lock.unlock();

    std::stable_sort(samples.begin(), samples.end(), sampleBefore);
    const auto sorted_alerts = alerts();

    std::ostringstream out;
    out << "{\"schema\": \"" << timelineSchema << "\", \"tool\": \""
        << jsonEscape(tool) << "\", \"samples\": " << samples.size()
        << ", \"alerts\": " << sorted_alerts.size()
        << ", \"rules\": \"" << jsonEscape(formatHealthRules(rule_set))
        << "\"}\n";
    for (const TimelineSample &sample : samples)
        out << sampleJson(sample) << "\n";
    for (const HealthAlert &alert : sorted_alerts)
        out << alertJson(alert) << "\n";

    // The registry delta since enable: sharded counters sum exactly
    // and independently of scheduling, so this one record is
    // byte-stable at any --jobs once the host-dependent families
    // (proc.*, pool.*) are dropped.
    out << "{\"type\": \"metrics\", \"counters\": {";
    bool first = true;
    const auto current = telemetry::metrics().snapshot().counters;
    for (const auto &[name, total] : current) {
        if (hostDependentCounter(name))
            continue;
        const auto it = baseline.find(name);
        const std::uint64_t base =
            it == baseline.end() ? 0 : it->second;
        if (total <= base)
            continue;
        if (!first)
            out << ", ";
        first = false;
        out << "\"" << jsonEscape(name) << "\": " << (total - base);
    }
    out << "}}\n";
    return out.str();
}

bool
readTimeline(const std::string &path, Timeline &timeline,
             std::string &error, bool ignore_partial_tail)
{
    timeline = Timeline{};
    const auto add = [&](const JsonValue &record, std::string &why) {
        const std::string type = record.stringOr("type", "");
        if (type == "sample")
            timeline.samples.push_back(readSample(record, why));
        else if (type == "alert")
            timeline.alerts.push_back(readAlert(record, why));
        // The "metrics" line is the registry delta for bench
        // tooling; no timeline analysis reads it.
        return why.empty();
    };
    JsonValue header;
    if (!readJsonl(path, {timelineSchema}, "timeline",
                   ignore_partial_tail, header, add, error))
        return false;
    timeline.tool = header.stringOr("tool", "?");
    timeline.rules = header.stringOr("rules", "");
    std::stable_sort(timeline.samples.begin(), timeline.samples.end(),
                     sampleBefore);
    std::stable_sort(timeline.alerts.begin(), timeline.alerts.end(),
                     alertBefore);
    return true;
}

void
reset()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.samples.clear();
    s.alerts.clear();
    s.rules.clear();
    s.nextSeq.clear();
    s.streaks.clear();
    s.baseline.clear();
}

} // namespace ramp::health
