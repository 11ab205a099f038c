#include "runner/report.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "eventlog/eventlog.hh"
#include "health/health.hh"
#include "runner/checkpoint.hh"

namespace ramp::runner
{

double
meanRatio(std::span<const double> ratios)
{
    return mean(ratios);
}

double
RatioColumn::mean() const
{
    return meanRatio(values_);
}

std::string
RatioColumn::averageCell(int precision) const
{
    if (values_.empty())
        return "-";
    return TextTable::ratio(mean(), precision);
}

std::string
RatioColumn::lossCell(int precision) const
{
    if (values_.empty())
        return "-";
    return TextTable::percent(1.0 - mean(), precision);
}

Report::Report(std::string tool)
    : tool_(std::move(tool))
{
}

void
Report::add(const std::string &workload, const SimResult &result,
            double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PassRecord record;
    record.workload = workload;
    record.result = result;
    record.seconds = seconds;
    passes_.push_back(std::move(record));
}

void
Report::add(const std::string &workload, const SimResult &result,
            PassStatus status, const std::string &error,
            const std::string &message, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    passes_.push_back(
        {workload, result, status, error, message, seconds});
}

std::vector<PassRecord>
Report::passes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return passes_;
}

std::vector<PassRecord>
Report::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PassRecord> out;
    for (const auto &pass : passes_)
        if (pass.status != PassStatus::Ok)
            out.push_back(pass);
    return out;
}

bool
Report::writeJson(const std::string &path, unsigned jobs,
                  const ProfileCacheStats &cache_stats,
                  const std::string *events_path,
                  const std::string *timeline_path) const
{
    std::ostringstream out;
    const auto passes = this->passes();
    out << "{\n"
        << "  \"tool\": \"" << jsonEscape(tool_) << "\",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"profile_cache\": {\n"
        << "    \"memory_hits\": " << cache_stats.memoryHits
        << ",\n"
        << "    \"disk_hits\": " << cache_stats.diskHits << ",\n"
        << "    \"misses\": " << cache_stats.misses << ",\n"
        << "    \"disk_writes\": " << cache_stats.diskWrites << "\n"
        << "  },\n";
    if (events_path != nullptr) {
        const auto stats = eventlog::stats();
        out << "  \"events\": {\n"
            << "    \"path\": \"" << jsonEscape(*events_path)
            << "\",\n"
            << "    \"records\": " << stats.recorded << ",\n"
            << "    \"dropped\": " << stats.dropped << "\n"
            << "  },\n";
    }
    if (timeline_path != nullptr) {
        const auto alerts = health::alerts();
        const auto warns = static_cast<std::size_t>(
            std::ranges::count(alerts, health::Severity::Warn,
                               &health::HealthAlert::severity));
        out << "  \"health\": {\n"
            << "    \"path\": \"" << jsonEscape(*timeline_path)
            << "\",\n"
            << "    \"rules\": \""
            << jsonEscape(health::formatHealthRules(health::rules()))
            << "\",\n"
            << "    \"samples\": " << health::sampleCount() << ",\n"
            << "    \"alerts\": " << alerts.size() - warns << ",\n"
            << "    \"warns\": " << warns << ",\n"
            << "    \"fired\": [\n";
        for (std::size_t i = 0; i < alerts.size(); ++i)
            out << "      " << health::alertJson(alerts[i])
                << (i + 1 < alerts.size() ? "," : "") << "\n";
        out << "    ]\n"
            << "  },\n";
    }
    out << "  \"passes\": [\n";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const auto &pass = passes[i];
        const auto &r = pass.result;
        out << "    {\"workload\": \"" << jsonEscape(pass.workload)
            << "\", \"label\": \"" << jsonEscape(r.label) << "\""
            << ", \"status\": \"" << passStatusName(pass.status)
            << "\"";
        if (pass.status != PassStatus::Ok)
            out << ", \"error\": \"" << jsonEscape(pass.error)
                << "\", \"message\": \"" << jsonEscape(pass.message)
                << "\"";
        out << ", \"ipc\": " << jsonNumber(r.ipc)
            << ", \"mpki\": " << jsonNumber(r.mpki)
            << ", \"ser\": " << jsonNumber(r.ser)
            << ", \"memory_avf\": " << jsonNumber(r.memoryAvf)
            << ", \"makespan\": " << r.makespan
            << ", \"instructions\": " << r.instructions
            << ", \"requests\": " << r.requests
            << ", \"avg_read_latency\": "
            << jsonNumber(r.avgReadLatency)
            << ", \"hbm_access_fraction\": "
            << jsonNumber(r.hbmAccessFraction)
            << ", \"migrated_pages\": " << r.migratedPages
            << ", \"migration_events\": " << r.migrationEvents;
        // Fault keys appear only for runs an injector touched, so
        // fault-free artifacts stay byte-identical to before.
        if (r.faultsInjected > 0 || r.capacityLostPages > 0 ||
            r.pagesRetired > 0 || r.degraded) {
            out << ", \"faults_injected\": " << r.faultsInjected
                << ", \"pages_retired\": " << r.pagesRetired
                << ", \"capacity_lost_pages\": "
                << r.capacityLostPages
                << ", \"response_moves\": " << r.responseMoves
                << ", \"response_retries\": " << r.responseRetries
                << ", \"degraded\": "
                << (r.degraded ? "true" : "false");
        }
        out << "}" << (i + 1 < passes.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return atomicWriteFile(path, out.str());
}

} // namespace ramp::runner
