#include "health/rules.hh"

#include <optional>
#include <sstream>

#include "common/parse.hh"

namespace ramp::health
{

namespace
{

constexpr std::string_view grammar = "health rules";

bool
parseField(const std::string &field, HealthRule &rule,
           std::string &error)
{
    std::string key, text;
    if (!splitKeyValue(grammar, field, key, text, error))
        return false;
    const auto bad_number = [&] {
        error = "health rules: bad number in '" + field + "'";
        return false;
    };
    const auto value = readNumber(text);
    if (!value)
        return bad_number();
    // Below the field's bound is its own error; beyond its type, a
    // bad number.
    const auto store = [&](double min, const char *below, auto &member) {
        if (*value < min) {
            error = std::string("health rules: ") + below;
            return false;
        }
        return assignFinite(member, *value) || bad_number();
    };
    if (key == "for")
        return store(1, "for= must be at least 1", rule.forEpochs);
    if (key == "tenant")
        return store(1, "tenant= must be a positive id", rule.tenant);
    if (key == "shard")
        return store(0, "shard= must be non-negative", rule.shard);
    error = "health rules: unknown field '" + key +
            "' (want for|tenant|shard)";
    return false;
}

bool
validate(const HealthRule &rule, std::string &error)
{
    if (healthSignalIsBoolean(rule.signal)) {
        if (rule.cmp != Comparator::None) {
            error = std::string("health rules: ") +
                    healthSignalName(rule.signal) +
                    " takes no threshold";
            return false;
        }
    } else if (rule.cmp == Comparator::None) {
        error = std::string("health rules: ") +
                healthSignalName(rule.signal) +
                " needs a > or < threshold";
        return false;
    }
    const bool per_tenant = rule.signal == HealthSignal::Slowdown ||
                            rule.signal == HealthSignal::HbmShare;
    const bool per_shard =
        rule.signal == HealthSignal::ShardOccupancy ||
        rule.signal == HealthSignal::ShardDegraded;
    if (rule.tenant != 0 && !per_tenant) {
        error = std::string("health rules: tenant= only applies to "
                            "per-tenant signals, not ") +
                healthSignalName(rule.signal);
        return false;
    }
    if (rule.shard >= 0 && !per_shard) {
        error = std::string("health rules: shard= only applies to "
                            "per-shard signals, not ") +
                healthSignalName(rule.signal);
        return false;
    }
    return true;
}

} // namespace

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Warn: return "warn";
      case Severity::Alert: return "alert";
    }
    return "?";
}

const char *
healthSignalName(HealthSignal signal)
{
    switch (signal) {
      case HealthSignal::P99Slowdown: return "p99_slowdown";
      case HealthSignal::Fairness: return "fairness";
      case HealthSignal::FaultBacklog: return "fault_backlog";
      case HealthSignal::Churn: return "churn";
      case HealthSignal::Degraded: return "degraded";
      case HealthSignal::Slowdown: return "slowdown";
      case HealthSignal::HbmShare: return "hbm_share";
      case HealthSignal::ShardOccupancy: return "shard_occupancy";
      case HealthSignal::ShardDegraded: return "shard_degraded";
    }
    return "?";
}

bool
healthSignalIsBoolean(HealthSignal signal)
{
    return signal == HealthSignal::Degraded ||
           signal == HealthSignal::ShardDegraded;
}

std::vector<HealthRule>
parseHealthRules(const std::string &text, std::string &error)
{
    error.clear();
    std::vector<HealthRule> rules;
    for (const SpecEntry &entry : specEntries(text)) {
        if (!entry.hasBody) {
            error = "health rules: rule '" + entry.text +
                    "' needs severity:signal";
            return {};
        }
        const auto severity = parseName(entry.head, Severity::Warn,
                                        Severity::Alert, severityName);
        if (!severity) {
            error = "health rules: unknown severity '" + entry.head +
                    "' (want warn|alert)";
            return {};
        }
        HealthRule rule;
        rule.severity = *severity;
        // The signal is the first field: an empty one is missing.
        if (entry.body.empty() || entry.body.front() == ',') {
            error = "health rules: rule '" + entry.text +
                    "' names no signal";
            return {};
        }
        const auto fields = splitSpec(entry.body, ',');
        const std::string &head = fields.front();
        const auto cmp = head.find_first_of("><");
        std::string name = head;
        std::optional<double> threshold;
        if (cmp != std::string::npos) {
            name = trimToken(std::string_view(head).substr(0, cmp));
            rule.cmp = head[cmp] == '>' ? Comparator::Greater
                                        : Comparator::Less;
            // readNumber skips leading blanks; the field ends trimmed.
            threshold = readNumber(std::string_view(head).substr(cmp + 1));
            if (!threshold) {
                error = "health rules: bad threshold in '" + head +
                        "'";
                return {};
            }
        }
        const auto signal =
            parseName(name, HealthSignal::P99Slowdown,
                      HealthSignal::ShardDegraded, healthSignalName);
        if (!signal) {
            error = "health rules: unknown signal '" + name + "'";
            return {};
        }
        rule.signal = *signal;
        if (threshold && !assignFinite(rule.threshold, *threshold)) {
            error = "health rules: bad threshold in '" + head + "'";
            return {};
        }
        for (std::size_t i = 1; i < fields.size(); ++i)
            if (!parseField(fields[i], rule, error))
                return {};
        if (!validate(rule, error))
            return {};
        rules.push_back(rule);
    }
    if (rules.empty())
        error = noEntriesError(grammar, "rules", text);
    return rules;
}

std::string
formatHealthRule(const HealthRule &rule)
{
    std::ostringstream out;
    out << severityName(rule.severity) << ":"
        << healthSignalName(rule.signal);
    if (rule.cmp != Comparator::None)
        out << (rule.cmp == Comparator::Greater ? ">" : "<")
            << formatNumber(rule.threshold);
    if (rule.forEpochs != 1)
        out << ",for=" << rule.forEpochs;
    if (rule.tenant != 0)
        out << ",tenant=" << rule.tenant;
    if (rule.shard >= 0)
        out << ",shard=" << rule.shard;
    return out.str();
}

std::string
formatHealthRules(const std::vector<HealthRule> &rules)
{
    return joinSpecs(rules, formatHealthRule);
}

} // namespace ramp::health
