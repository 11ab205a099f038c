/**
 * @file
 * ramp_health: the health-timeline analyzer.
 *
 *   ramp_health [queries] TIMELINE.jsonl
 *
 * Reads a timeline file written by --timeline-out (DESIGN.md §14)
 * and answers the questions the end-of-run report cannot: which
 * rules fired where, how a signal moved across the epochs of a run,
 * and — while a campaign is still running — what just went wrong.
 *
 *   --rule N      firing timeline of one rule (by index in the
 *                 header's rule set)
 *   --runs        per-run sample/signal summary
 *   --tenant ID   narrow alerts and samples to one tenant's scope
 *   --shard IDX   narrow alerts and samples to one shard's scope
 *   --follow      poll the file and stream newly appeared alerts
 *                 (the harness rewrites atomically, so each flush
 *                 is re-read whole and only unseen alerts print)
 *
 * With no query, prints the per-run alert summary. Records are
 * ordered by (source, run label, sequence) before any analysis, so
 * the output is identical for the same simulation regardless of the
 * --jobs width that produced the file. Exit code: 0 when every
 * requested query found records, 1 when one came up empty, 2 on
 * usage or a malformed file.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <tuple>
#include <vector>

#include "common/table.hh"
#include "perf/artifact.hh"

using namespace ramp;

namespace
{

constexpr const char *timelineSchema = "ramp-timeline-v1";

/** One "sample" line, denormalized. */
struct Sample
{
    std::string source;
    std::string run;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::uint64_t moves = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t pagesRetired = 0;
    double backlog = NAN;
    bool degraded = false;
    double fairness = NAN;
    double p99Slowdown = NAN;
    std::size_t tenants = 0;
    std::size_t shards = 0;
    bool anyShardDegraded = false;

    /** Scope hits for the --tenant / --shard filters. */
    std::set<std::uint64_t> tenantIds;
    std::set<std::uint64_t> shardIds;
};

/** One "alert" line, denormalized. */
struct Alert
{
    std::string severity;
    std::uint64_t rule = 0;
    std::string signal;
    std::string source;
    std::string run;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::uint64_t tenant = 0; ///< 0 = run-wide
    std::int64_t shard = -1;  ///< -1 = run-wide
    double value = NAN;
    double threshold = NAN;
};

struct Timeline
{
    std::string tool;
    std::string rules;
    std::vector<Sample> samples;
    std::vector<Alert> alerts;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ramp_health [queries] TIMELINE.jsonl\n"
        "\n"
        "  --rule N     firing timeline of rule N (header index)\n"
        "  --runs       per-run sample/signal summary\n"
        "  --tenant ID  narrow to one tenant's scope\n"
        "  --shard IDX  narrow to one shard's scope\n"
        "  --follow     poll the file, stream unseen alerts\n"
        "\n"
        "No query prints the per-run alert summary. Exit: 0 ok,\n"
        "1 empty result, 2 usage/malformed input.\n");
}

bool
loadTimeline(const std::string &path, Timeline &timeline,
             std::string &error, bool ignore_partial_tail = false)
{
    timeline = Timeline{};
    perf::JsonValue header;
    const auto add = [&](const perf::JsonValue &value) {
        const std::string type = value.stringOr("type", "");
        if (type == "sample") {
            Sample sample;
            sample.source = value.stringOr("source", "?");
            sample.run = value.stringOr("run", "unattributed");
            sample.epoch = value.uintOr("epoch", 0);
            sample.seq = value.uintOr("seq", 0);
            sample.moves = value.uintOr("moves", 0);
            sample.faultsInjected = value.uintOr("faults_injected", 0);
            sample.pagesRetired = value.uintOr("pages_retired", 0);
            sample.backlog = value.numberOr("backlog", NAN);
            sample.degraded = value.boolOr("degraded", false);
            sample.fairness = value.numberOr("fairness", NAN);
            sample.p99Slowdown =
                value.numberOr("p99_slowdown", NAN);
            if (const perf::JsonValue *tenants =
                    value.find("tenants");
                tenants != nullptr && tenants->isArray()) {
                sample.tenants = tenants->array.size();
                for (const perf::JsonValue &row : tenants->array)
                    sample.tenantIds.insert(row.uintOr("tenant", 0));
            }
            if (const perf::JsonValue *shards = value.find("shards");
                shards != nullptr && shards->isArray()) {
                sample.shards = shards->array.size();
                for (const perf::JsonValue &row : shards->array) {
                    sample.shardIds.insert(row.uintOr("shard", 0));
                    if (row.boolOr("degraded", false))
                        sample.anyShardDegraded = true;
                }
            }
            timeline.samples.push_back(std::move(sample));
        } else if (type == "alert") {
            Alert alert;
            alert.severity = value.stringOr("severity", "?");
            alert.rule = value.uintOr("rule", 0);
            alert.signal = value.stringOr("signal", "?");
            alert.source = value.stringOr("source", "?");
            alert.run = value.stringOr("run", "unattributed");
            alert.epoch = value.uintOr("epoch", 0);
            alert.seq = value.uintOr("seq", 0);
            alert.tenant = value.uintOr("tenant", 0);
            alert.shard = static_cast<std::int64_t>(value.uintOr(
                "shard", static_cast<std::uint64_t>(-1)));
            alert.value = value.numberOr("value", NAN);
            alert.threshold = value.numberOr("threshold", NAN);
            timeline.alerts.push_back(std::move(alert));
        }
        // "metrics" lines are the registry delta for bench tooling;
        // no per-run analysis reads them.
    };
    if (!perf::readJsonl(path, {timelineSchema}, "timeline",
                         ignore_partial_tail, header, add, error))
        return false;
    timeline.tool = header.stringOr("tool", "?");
    timeline.rules = header.stringOr("rules", "");
    // Canonical order: the writer already sorts, but an analyzer
    // must not trust its input to keep the --jobs invariance.
    std::stable_sort(timeline.samples.begin(),
                     timeline.samples.end(),
                     [](const Sample &a, const Sample &b) {
                         return std::tie(a.source, a.run, a.seq) <
                                std::tie(b.source, b.run, b.seq);
                     });
    std::stable_sort(
        timeline.alerts.begin(), timeline.alerts.end(),
        [](const Alert &a, const Alert &b) {
            return std::tie(a.source, a.run, a.seq, a.rule) <
                   std::tie(b.source, b.run, b.seq, b.rule);
        });
    return true;
}

std::string
num(double value, int precision = 4)
{
    return perf::numberCell(value, precision);
}

std::string
scopeCell(const Alert &alert)
{
    if (alert.tenant != 0)
        return "tenant " + std::to_string(alert.tenant);
    if (alert.shard >= 0)
        return "shard " + std::to_string(alert.shard);
    return "run";
}

/** Apply the --tenant / --shard scope filters in place. */
void
applyFilters(Timeline &timeline, bool have_tenant,
             std::uint64_t tenant, bool have_shard,
             std::uint64_t shard)
{
    if (have_tenant) {
        std::erase_if(timeline.alerts, [&](const Alert &alert) {
            return alert.tenant != tenant;
        });
        std::erase_if(timeline.samples, [&](const Sample &sample) {
            return sample.tenantIds.count(tenant) == 0;
        });
    }
    if (have_shard) {
        std::erase_if(timeline.alerts, [&](const Alert &alert) {
            return alert.shard !=
                   static_cast<std::int64_t>(shard);
        });
        std::erase_if(timeline.samples, [&](const Sample &sample) {
            return sample.shardIds.count(shard) == 0;
        });
    }
}

int
summarize(const Timeline &timeline)
{
    if (timeline.samples.empty() && timeline.alerts.empty()) {
        std::cout << "ramp_health: the timeline is empty\n";
        return 1;
    }
    struct RunSummary
    {
        std::uint64_t samples = 0;
        std::uint64_t lastEpoch = 0;
        std::uint64_t alerts = 0;
        std::uint64_t warns = 0;
        std::uint64_t moves = 0;
        std::uint64_t retired = 0;
        double worstP99 = NAN;
        double worstFairness = NAN;
        bool degraded = false;
    };
    std::map<std::pair<std::string, std::string>, RunSummary> runs;
    for (const Sample &sample : timeline.samples) {
        RunSummary &run = runs[{sample.source, sample.run}];
        ++run.samples;
        run.lastEpoch = std::max(run.lastEpoch, sample.epoch);
        run.moves += sample.moves;
        run.retired += sample.pagesRetired;
        if (std::isfinite(sample.p99Slowdown) &&
            !(run.worstP99 >= sample.p99Slowdown))
            run.worstP99 = sample.p99Slowdown;
        if (std::isfinite(sample.fairness) &&
            !(run.worstFairness <= sample.fairness))
            run.worstFairness = sample.fairness;
        if (sample.degraded || sample.anyShardDegraded)
            run.degraded = true;
    }
    for (const Alert &alert : timeline.alerts) {
        RunSummary &run = runs[{alert.source, alert.run}];
        if (alert.severity == "alert")
            ++run.alerts;
        else
            ++run.warns;
    }

    TextTable table({"source", "run", "samples", "epochs", "moves",
                     "retired", "worst_p99", "worst_fairness",
                     "degraded", "alerts", "warns"});
    for (const auto &[key, run] : runs)
        table.addRow({key.first, key.second,
                      std::to_string(run.samples),
                      std::to_string(run.lastEpoch),
                      std::to_string(run.moves),
                      std::to_string(run.retired),
                      num(run.worstP99), num(run.worstFairness),
                      run.degraded ? "yes" : "no",
                      std::to_string(run.alerts),
                      std::to_string(run.warns)});
    table.print(std::cout,
                timeline.tool + ": " +
                    std::to_string(timeline.samples.size()) +
                    " samples, " +
                    std::to_string(timeline.alerts.size()) +
                    " fired rules across " +
                    std::to_string(runs.size()) + " runs (rules: " +
                    (timeline.rules.empty() ? "none"
                                            : timeline.rules) +
                    ")");
    return 0;
}

int
queryRule(const Timeline &timeline, std::uint64_t rule)
{
    TextTable table({"severity", "signal", "source", "run", "epoch",
                     "scope", "value", "threshold"});
    std::size_t rows = 0;
    for (const Alert &alert : timeline.alerts) {
        if (alert.rule != rule)
            continue;
        table.addRow({alert.severity, alert.signal, alert.source,
                      alert.run, std::to_string(alert.epoch),
                      scopeCell(alert), num(alert.value),
                      num(alert.threshold)});
        ++rows;
    }
    if (rows == 0) {
        std::cout << "ramp_health: rule " << rule
                  << " never fired\n";
        return 1;
    }
    table.print(std::cout, "rule " + std::to_string(rule) +
                               " firings (" + std::to_string(rows) +
                               ")");
    return 0;
}

int
queryRuns(const Timeline &timeline)
{
    if (timeline.samples.empty()) {
        std::cout << "ramp_health: no samples\n";
        return 1;
    }
    TextTable table({"source", "run", "epoch", "moves", "faults",
                     "retired", "backlog", "fairness", "p99",
                     "degraded", "tenants", "shards"});
    for (const Sample &sample : timeline.samples)
        table.addRow(
            {sample.source, sample.run,
             std::to_string(sample.epoch),
             std::to_string(sample.moves),
             std::to_string(sample.faultsInjected),
             std::to_string(sample.pagesRetired),
             num(sample.backlog), num(sample.fairness),
             num(sample.p99Slowdown),
             sample.degraded || sample.anyShardDegraded ? "yes"
                                                        : "no",
             std::to_string(sample.tenants),
             std::to_string(sample.shards)});
    table.print(std::cout,
                "epoch samples (" +
                    std::to_string(timeline.samples.size()) + ")");
    return 0;
}

/** One alert as a human-readable --follow line. */
std::string
followLine(const Alert &alert)
{
    std::ostringstream out;
    out << "[" << alert.severity << "] rule " << alert.rule << " "
        << alert.signal << " " << scopeCell(alert) << " ("
        << alert.source << " " << alert.run << " epoch "
        << alert.epoch << ")";
    if (std::isfinite(alert.threshold))
        out << " value " << num(alert.value) << " vs "
            << num(alert.threshold);
    return out.str();
}

int
follow(const std::string &path, bool have_tenant,
       std::uint64_t tenant, bool have_shard, std::uint64_t shard)
{
    // The harness writes the timeline atomically (tmp + rename), so
    // a poll sees either the old document or the new one, never a
    // torn line; each flush is re-read whole and only alerts not
    // yet printed stream out. Keyed by the deterministic
    // (source, run, seq, rule, tenant, shard) coordinates so a
    // rewrite never re-prints an already-seen firing.
    std::set<std::tuple<std::string, std::string, std::uint64_t,
                        std::uint64_t, std::uint64_t, std::int64_t>>
        seen;
    std::cout << "ramp_health: following " << path
              << " (interrupt to stop)\n";
    time_t last_mtime = 0;
    bool reported_missing = false;
    for (;;) {
        struct stat st{};
        if (::stat(path.c_str(), &st) != 0) {
            if (!reported_missing) {
                std::cout << "ramp_health: waiting for " << path
                          << "\n";
                reported_missing = true;
            }
        } else if (st.st_mtime != last_mtime) {
            last_mtime = st.st_mtime;
            reported_missing = false;
            Timeline timeline;
            std::string error;
            if (loadTimeline(path, timeline, error,
                             /*ignore_partial_tail=*/true)) {
                applyFilters(timeline, have_tenant, tenant,
                             have_shard, shard);
                for (const Alert &alert : timeline.alerts) {
                    const auto key = std::make_tuple(
                        alert.source, alert.run, alert.seq,
                        alert.rule, alert.tenant, alert.shard);
                    if (!seen.insert(key).second)
                        continue;
                    std::cout << followLine(alert) << "\n";
                }
                std::cout.flush();
            }
            // A half-written file (a writer outside the harness)
            // simply parses on the next poll.
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(500));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool want_rule = false;
    bool want_runs = false;
    bool want_follow = false;
    bool have_tenant = false;
    bool have_shard = false;
    std::uint64_t rule = 0;
    std::uint64_t tenant = 0;
    std::uint64_t shard = 0;
    std::vector<std::string> paths;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) {
            return perf::flagValue("ramp_health", args, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--rule") {
            want_rule = true;
            rule = perf::parseCountArg("ramp_health", "--rule",
                                       value("--rule"));
        } else if (arg == "--runs") {
            want_runs = true;
        } else if (arg == "--follow") {
            want_follow = true;
        } else if (arg == "--tenant") {
            have_tenant = true;
            tenant = perf::parseCountArg("ramp_health", "--tenant",
                                         value("--tenant"));
        } else if (arg == "--shard") {
            have_shard = true;
            shard = perf::parseCountArg("ramp_health", "--shard",
                                        value("--shard"));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "ramp_health: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 1) {
        usage();
        return 2;
    }

    if (want_follow)
        return follow(paths[0], have_tenant, tenant, have_shard,
                      shard);

    Timeline timeline;
    std::string error;
    if (!loadTimeline(paths[0], timeline, error)) {
        std::fprintf(stderr, "ramp_health: %s\n", error.c_str());
        return 2;
    }
    applyFilters(timeline, have_tenant, tenant, have_shard, shard);

    int code = 0;
    bool ran = false;
    if (want_rule) {
        code = std::max(code, queryRule(timeline, rule));
        ran = true;
    }
    if (want_runs) {
        code = std::max(code, queryRuns(timeline));
        ran = true;
    }
    if (!ran)
        code = summarize(timeline);
    return code;
}
