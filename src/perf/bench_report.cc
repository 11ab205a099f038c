#include "perf/bench_report.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include <sys/utsname.h>

#include "common/json.hh"
#include "prof/tsc.hh"
#include "telemetry/telemetry.hh"

namespace ramp::perf
{

namespace
{

/** Throughput quote: count/wall, null-rendered when unmeasured. */
double
perSecond(std::uint64_t count, double wall_seconds)
{
    if (count == 0 || !(wall_seconds > 0))
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(count) / wall_seconds;
}

std::string
hostJson(unsigned sample_ms, unsigned jobs)
{
    utsname uts{};
    const bool have_uname = uname(&uts) == 0;
    const unsigned cpus = std::thread::hardware_concurrency();
    std::ostringstream out;
    out << "{\"os\": \""
        << jsonEscape(have_uname ? uts.sysname : "unknown")
        << "\", \"release\": \""
        << jsonEscape(have_uname ? uts.release : "unknown")
        << "\", \"arch\": \""
        << jsonEscape(have_uname ? uts.machine : "unknown")
        << "\", \"cpus\": " << cpus
        // More workers than CPUs: the timings measure contention.
        << ", \"oversubscribed\": "
        << (cpus > 0 && jobs > cpus ? "true" : "false")
        // Profiles quote cycles; the baseline records which CPU
        // produced them and what a cycle is worth in seconds.
        << ", \"cpu_model\": \""
        << jsonEscape(prof::cpuModelName())
        << "\", \"tsc_hz\": " << jsonNumber(prof::tscHz())
        << ", \"sample_ms\": " << sample_ms << ", \"compiler\": \""
#if defined(__clang__)
        << "clang " << jsonEscape(__clang_version__)
#elif defined(__GNUC__)
        << "gcc " << jsonEscape(__VERSION__)
#else
        << "unknown"
#endif
        << "\", \"build\": \""
#ifdef NDEBUG
        << "release"
#else
        << "debug"
#endif
        << "\"}";
    return out.str();
}

/** Gauge value from a snapshot, NaN when never registered. */
double
gaugeOr(const telemetry::MetricsSnapshot &snap,
        const std::string &name)
{
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end()
               ? std::numeric_limits<double>::quiet_NaN()
               : it->second;
}

} // namespace

std::string
renderBenchReport(const BenchReportSpec &spec)
{
    const auto &snap = spec.metrics;
    const std::uint64_t accesses =
        snap.counterOr("hma.accesses.hbm") +
        snap.counterOr("hma.accesses.ddr");
    const std::uint64_t trials = snap.counterOr("faultsim.trials");
    const std::uint64_t tasks = snap.counterOr("pool.tasks");

    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"" << benchSchema << "\",\n"
        << "  \"tool\": \"" << jsonEscape(spec.tool) << "\",\n"
        << "  \"jobs\": " << spec.jobs << ",\n"
        << "  \"host\": " << hostJson(spec.sampleMs, spec.jobs) << ",\n"
        << "  \"wall_seconds\": " << jsonNumber(spec.wallSeconds)
        << ",\n";

    const ResourceSummary &res = spec.resources;
    out << "  \"resources\": {\n"
        << "    \"samples\": " << res.samples << ",\n"
        << "    \"peak_rss_bytes\": " << res.peakRssBytes << ",\n"
        << "    \"mean_rss_bytes\": "
        << jsonNumber(res.rssSeries.mean()) << ",\n"
        << "    \"max_rss_bytes\": "
        << jsonNumber(res.rssSeries.max()) << ",\n"
        << "    \"user_cpu_seconds\": "
        << jsonNumber(res.userCpuSeconds) << ",\n"
        << "    \"sys_cpu_seconds\": "
        << jsonNumber(res.sysCpuSeconds) << ",\n"
        << "    \"major_faults\": " << res.majorFaults << ",\n"
        << "    \"minor_faults\": " << res.minorFaults << "\n"
        << "  },\n";

    out << "  \"throughput\": {\n"
        << "    \"accesses_per_second\": "
        << jsonNumber(perSecond(accesses, spec.wallSeconds)) << ",\n"
        << "    \"trials_per_second\": "
        << jsonNumber(perSecond(trials, spec.wallSeconds)) << ",\n"
        << "    \"tasks_per_second\": "
        << jsonNumber(perSecond(tasks, spec.wallSeconds)) << ",\n"
        << "    \"events_per_second\": "
        << jsonNumber(perSecond(spec.eventRecords,
                                spec.wallSeconds))
        << "\n"
        << "  },\n";

    out << "  \"counters\": {\n"
        << "    \"accesses\": " << accesses << ",\n"
        << "    \"trials\": " << trials << ",\n"
        << "    \"tasks\": " << tasks << ",\n"
        << "    \"events\": " << spec.eventRecords << "\n"
        << "  },\n";

    // The multi-tenant placement service family, present only when
    // the tool ran the service (other tools' documents unchanged).
    if (snap.counterOr("service.streams_admitted") != 0) {
        // Every simulated access (shared and solo runs) over the
        // service run's seconds: the phases overlap, so the shared
        // run has no wall time of its own.
        const double run_seconds =
            gaugeOr(snap, "service.run_seconds");
        out << "  \"service\": {\n"
            << "    \"tenants\": "
            << snap.counterOr("service.streams_admitted") << ",\n"
            << "    \"shards\": "
            << jsonNumber(gaugeOr(snap, "service.shards")) << ",\n"
            << "    \"arbitration_rounds\": "
            << snap.counterOr("service.arbitration_rounds") << ",\n"
            << "    \"quota_clips\": "
            << snap.counterOr("service.quota_clips") << ",\n"
            << "    \"rebalance_moves\": "
            << snap.counterOr("service.rebalance_moves") << ",\n"
            << "    \"faults_applied\": "
            << snap.counterOr("service.faults_applied") << ",\n"
            << "    \"aggregate_accesses_per_second\": "
            << jsonNumber(perSecond(accesses, run_seconds))
            << ",\n"
            << "    \"fairness_index\": "
            << jsonNumber(gaugeOr(snap, "service.fairness_index"))
            << ",\n"
            << "    \"p99_slowdown\": "
            << jsonNumber(gaugeOr(snap, "service.p99_slowdown"))
            << "\n  },\n";
    }

    // The health-monitor family, present only when the timeline
    // recorded at least one sample (other tools' documents
    // unchanged).
    if (snap.counterOr("health.samples") != 0) {
        out << "  \"health\": {\n"
            << "    \"rules\": "
            << jsonNumber(gaugeOr(snap, "health.rules")) << ",\n"
            << "    \"samples\": "
            << snap.counterOr("health.samples") << ",\n"
            << "    \"alerts\": " << snap.counterOr("health.alerts")
            << ",\n"
            << "    \"warns\": " << snap.counterOr("health.warns")
            << "\n  },\n";
    }

    // The cycle-profile summary, present only when the profiler
    // ran (--profile-out); bench_diff skips it.
    if (!spec.profileBlock.empty())
        out << "  \"profile\": " << spec.profileBlock << ",\n";

    const BenchPassSummary &passes = spec.passes;
    out << "  \"passes\": {\n"
        << "    \"count\": " << passes.count << ",\n"
        << "    \"ok\": " << passes.ok << ",\n"
        << "    \"total_seconds\": "
        << jsonNumber(passes.seconds.sum()) << ",\n"
        << "    \"mean_seconds\": "
        << jsonNumber(passes.seconds.mean()) << ",\n"
        << "    \"min_seconds\": "
        << jsonNumber(passes.seconds.min()) << ",\n"
        << "    \"max_seconds\": "
        << jsonNumber(passes.seconds.max()) << "\n"
        << "  },\n";

    out << "  \"percentiles\": {";
    bool first = true;
    for (const auto &[name, hist] : snap.histograms) {
        out << (first ? "\n" : ",\n") << "    \""
            << jsonEscape(name) << "\": {\"p50\": "
            << jsonNumber(hist.p50())
            << ", \"p95\": " << jsonNumber(hist.p95())
            << ", \"p99\": " << jsonNumber(hist.p99())
            << ", \"total\": " << hist.total() << "}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"microbenchmarks\": [";
    for (std::size_t i = 0; i < spec.microbenchmarks.size(); ++i) {
        const BenchResult &r = spec.microbenchmarks[i];
        out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
            << jsonEscape(r.name) << "\", \"unit\": \""
            << jsonEscape(r.unit) << "\", \"items_per_iteration\": "
            << r.itemsPerIteration
            << ", \"warmup_iterations\": " << r.warmupIterations
            << ", \"iterations\": " << r.iterations
            << ", \"mean_seconds\": " << jsonNumber(r.meanSeconds)
            << ", \"stddev_seconds\": "
            << jsonNumber(r.stddevSeconds)
            << ", \"ci95_seconds\": " << jsonNumber(r.ci95Seconds)
            << ", \"min_seconds\": " << jsonNumber(r.minSeconds)
            << ", \"max_seconds\": " << jsonNumber(r.maxSeconds)
            << ", \"items_per_second\": "
            << jsonNumber(r.itemsPerSecond) << "}";
    }
    out << (spec.microbenchmarks.empty() ? "" : "\n  ") << "]\n"
        << "}\n";
    return out.str();
}

namespace
{

/**
 * The gate's family table: each metric family's noise band as the
 * factor a metric may move in its bad direction, and the noise
 * floors below which a metric is too small to compare. A band is a
 * ratio, so it is the same for a time that grows and a rate that
 * falls. --relax multiplies its logarithm: a 1.15x band admits
 * 1.15^4 = 1.75x under CI's --relax 4, and every band is below
 * 2^(1/4) = 1.189x, so that CI fails a 2x slowdown in every family.
 */
constexpr struct
{
    double wall = 1.15;
    double throughput = 1.15;
    double rss = 1.15;
    double percentile = 1.18;
    double micro = 1.15;

    /** Decision ledger (throughput.events_per_second and eventlog.*
     * percentiles): its cost scales with how chatty the policies
     * are, so its band is wider. */
    double eventlog = 1.18;

    /** Multi-tenant service: aggregate accesses/s regresses
     * downward, p99 slowdown upward. */
    double service = 1.15;

    /** The fairness index is bounded in [0, 1] and nearly
     * noise-free, so it gets a much tighter band. */
    double fairness = 1.02;

    /** Health monitor (timeline samples, fired alerts/warns):
     * deterministic for a fixed workload, but rule sets evolve with
     * the defaults, so the band matches throughput's. */
    double health = 1.15;

    /** @{ @name Noise floors */
    double minSeconds = 1e-3;
    double minBytes = 16.0 * 1024 * 1024;
    double minPerSecond = 1.0;
    /** @} */
} limits;

/** A metric at a fixed path of every BENCH document. */
struct FixedMetric
{
    std::vector<std::string> path;
    double band;
    bool higherIsBetter;
    double floor;
};

/**
 * The fixed-path metrics, in comparison order. Blocks a document
 * lacks (the service block outside datacenter_service, health
 * without a timeline, events before the ledger existed) read as NaN
 * and skip the comparison.
 */
const FixedMetric fixedMetrics[] = {
    {{"wall_seconds"}, limits.wall, false, limits.minSeconds},
    {{"throughput", "accesses_per_second"}, limits.throughput, true,
     limits.minPerSecond},
    {{"throughput", "trials_per_second"}, limits.throughput, true,
     limits.minPerSecond},
    {{"throughput", "tasks_per_second"}, limits.throughput, true,
     limits.minPerSecond},
    {{"throughput", "events_per_second"}, limits.eventlog, true,
     limits.minPerSecond},
    {{"service", "aggregate_accesses_per_second"}, limits.service,
     true, limits.minPerSecond},
    {{"service", "fairness_index"}, limits.fairness, true, 0.01},
    {{"service", "p99_slowdown"}, limits.service, false, 1e-3},
    // Health counts regress in either direction; fired-alert
    // deltas are what matter.
    {{"health", "samples"}, limits.health, false, 1.0},
    {{"health", "alerts"}, limits.health, false, 1.0},
    {{"health", "warns"}, limits.health, false, 1.0},
    {{"resources", "peak_rss_bytes"}, limits.rss, false,
     limits.minBytes},
};

/** One side's value at an object path, NaN when absent/null. */
double
numberAt(const JsonValue &doc,
         const std::vector<std::string> &path)
{
    const JsonValue *node = &doc;
    for (const std::string &key : path) {
        node = node->find(key);
        if (node == nullptr)
            return std::numeric_limits<double>::quiet_NaN();
    }
    return node->isNumber()
               ? node->number
               : std::numeric_limits<double>::quiet_NaN();
}

/** The microbenchmark row with the given name, or nullptr. */
const JsonValue *
findMicro(const JsonValue &doc, const std::string &name)
{
    const JsonValue *rows = doc.find("microbenchmarks");
    if (rows == nullptr || !rows->isArray())
        return nullptr;
    for (const JsonValue &row : rows->array)
        if (row.stringOr("name", "") == name)
            return &row;
    return nullptr;
}

/**
 * Compare one metric; appends only when both sides measured it.
 * `band` is the family's factor before --relax.
 */
void
compareOne(std::vector<MetricDiff> &diffs, const std::string &name,
           double base, double cand, double band, double relax,
           bool higher_is_better, double floor_value)
{
    if (!std::isfinite(base) || !std::isfinite(cand))
        return;
    // Below the noise floor a ratio means nothing (a 2 ms wall
    // time doubling is not a regression signal).
    if (base < floor_value && cand < floor_value)
        return;
    if (!(base > 0))
        return;
    MetricDiff diff;
    diff.name = name;
    diff.baseline = base;
    diff.candidate = cand;
    diff.deltaPct = (cand - base) / base * 100.0;
    diff.higherIsBetter = higher_is_better;
    // Judged on the log ratio in the bad direction: a rate that
    // halves and a time that doubles are the same regression, and a
    // rate that drops to zero is an unbounded one.
    const double up_log = cand > 0 ? std::log(cand / base)
                                   : -std::numeric_limits<double>::infinity();
    const double bad_log = higher_is_better ? -up_log : up_log;
    const double limit_log = std::log(band) * relax;
    diff.limitFactor = std::exp(limit_log);
    diff.regressed = bad_log > limit_log;
    diff.improved = -bad_log > limit_log;
    diffs.push_back(std::move(diff));
}

} // namespace

std::vector<MetricDiff>
compareBenchReports(const JsonValue &baseline,
                    const JsonValue &candidate,
                    const DiffOptions &options, std::string &error)
{
    std::vector<MetricDiff> diffs;
    const std::string base_schema = baseline.stringOr("schema", "");
    const std::string cand_schema =
        candidate.stringOr("schema", "");
    if (base_schema != benchSchema || cand_schema != benchSchema) {
        error = "not a " + std::string(benchSchema) +
                " document (baseline schema '" + base_schema +
                "', candidate schema '" + cand_schema + "')";
        return diffs;
    }
    const std::string base_tool = baseline.stringOr("tool", "");
    const std::string cand_tool = candidate.stringOr("tool", "");
    if (base_tool != cand_tool) {
        error = "tool mismatch: baseline is '" + base_tool +
                "', candidate is '" + cand_tool + "'";
        return diffs;
    }

    const double relax = options.relax;
    for (const FixedMetric &metric : fixedMetrics) {
        std::string name;
        for (const std::string &key : metric.path)
            name += (name.empty() ? "" : ".") + key;
        compareOne(diffs, name, numberAt(baseline, metric.path),
                   numberAt(candidate, metric.path), metric.band,
                   relax, metric.higherIsBetter, metric.floor);
    }

    if (const JsonValue *percentiles =
            baseline.find("percentiles")) {
        for (const auto &[hist, quantiles] :
             percentiles->object) {
            if (!quantiles.isObject())
                continue;
            const double band = hist.rfind("eventlog.", 0) == 0
                                    ? limits.eventlog
                                    : limits.percentile;
            for (const char *q : {"p50", "p95", "p99"})
                compareOne(
                    diffs, "percentiles." + hist + "." + q,
                    numberAt(baseline, {"percentiles", hist, q}),
                    numberAt(candidate, {"percentiles", hist, q}),
                    band, relax, false, limits.minSeconds);
        }
    }

    if (const JsonValue *rows = baseline.find("microbenchmarks");
        rows != nullptr && rows->isArray()) {
        for (const JsonValue &row : rows->array) {
            const std::string name = row.stringOr("name", "");
            if (name.empty())
                continue;
            const JsonValue *other = findMicro(candidate, name);
            if (other == nullptr) {
                MetricDiff diff;
                diff.name = "micro." + name;
                diff.regressed = true;
                diff.missing = true;
                diffs.push_back(std::move(diff));
                continue;
            }
            compareOne(diffs, "micro." + name + ".min_seconds",
                       row.numberOr("min_seconds", NAN),
                       other->numberOr("min_seconds", NAN),
                       limits.micro, relax, false,
                       limits.minSeconds / 100);
            compareOne(diffs,
                       "micro." + name + ".items_per_second",
                       row.numberOr("items_per_second", NAN),
                       other->numberOr("items_per_second", NAN),
                       limits.micro, relax, true,
                       limits.minPerSecond);
        }
    }

    if (!options.families.empty()) {
        std::erase_if(diffs, [&](const MetricDiff &diff) {
            return std::none_of(
                options.families.begin(), options.families.end(),
                [&](const std::string &family) {
                    return diff.name.rfind(family, 0) == 0;
                });
        });
    }
    return diffs;
}

bool
benchOversubscribed(const JsonValue &doc)
{
    const JsonValue *host = doc.find("host");
    if (host == nullptr)
        return false;
    const double cpus = host->numberOr("cpus", 0);
    return host->boolOr("oversubscribed",
                        cpus > 0 && doc.numberOr("jobs", 0) > cpus);
}

std::string
benchCpuMismatch(const JsonValue &baseline, const JsonValue &candidate)
{
    const auto model = [](const JsonValue &doc) {
        const JsonValue *host = doc.find("host");
        return host == nullptr ? std::string()
                               : host->stringOr("cpu_model", "");
    };
    const std::string base = model(baseline);
    const std::string cand = model(candidate);
    if (base.empty() || cand.empty() || base == cand)
        return "";
    return "baseline '" + base + "', candidate '" + cand + "'";
}

std::vector<std::string>
unknownBenchBlocks(const JsonValue &doc)
{
    // Every top-level key this build's reader understands; a key
    // outside the set came from a newer (or older, since-removed)
    // schema revision.
    static const char *const known[] = {
        "schema",        "tool",      "jobs",
        "host",          "wall_seconds", "resources",
        "throughput",    "counters",  "service",
        "health",        "profile",   "passes",
        "percentiles",   "microbenchmarks",
    };
    std::vector<std::string> unknown;
    if (!doc.isObject())
        return unknown;
    for (const auto &[key, value] : doc.object) {
        bool found = false;
        for (const char *name : known)
            if (key == name)
                found = true;
        if (!found)
            unknown.push_back(key);
    }
    return unknown;
}

} // namespace ramp::perf
