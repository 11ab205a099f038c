/**
 * @file
 * BENCH_<tool>.json: the repo's machine-readable performance
 * trajectory.
 *
 * Every harness binary can emit one document per run (--bench-out)
 * with a stable schema ("ramp-bench-v1"): host/build metadata, the
 * campaign wall time, throughput derived from the telemetry
 * counters (accesses/s, FaultSim trials/s, pool tasks/s), the
 * resource sampler's peak-RSS/CPU summary, pass-duration summary
 * statistics, p50/p95/p99 of every telemetry histogram, and — for
 * the microbenchmark suite — the per-kernel BenchResult rows.
 *
 * compareBenchReports() is the regression gate: it joins two parsed
 * documents metric by metric, applies a per-family noise band from
 * one constant table (seconds and RSS regress upward, throughput
 * regresses downward), and reports every comparison so CI can fail
 * a PR with a human-readable table. Committed baselines live at the repo root
 * (BENCH_fig01_pareto.json, BENCH_perf_suite.json).
 */

#ifndef RAMP_PERF_BENCH_REPORT_HH
#define RAMP_PERF_BENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "perf/json.hh"
#include "perf/microbench.hh"
#include "perf/resource.hh"
#include "telemetry/registry.hh"

namespace ramp::perf
{

/** Schema identifier stamped into (and checked in) every document. */
inline constexpr const char *benchSchema = "ramp-bench-v1";

/** Pass-duration summary the harness aggregates from its report. */
struct BenchPassSummary
{
    /** Recorded passes, and how many completed Ok. */
    std::size_t count = 0;
    std::size_t ok = 0;

    /** Durations of the measured (non-replayed) passes. */
    RunningStat seconds;
};

/** Everything one BENCH document is rendered from. */
struct BenchReportSpec
{
    std::string tool;
    unsigned jobs = 0;

    /** Harness-construction-to-finish wall time, seconds. */
    double wallSeconds = 0;

    /** Resource-sampler period (--sample-ms), stamped into host
     * metadata so a baseline records the cadence it was taken at. */
    unsigned sampleMs = 50;

    /** The resource sampler's window (zero samples = no sampler). */
    ResourceSummary resources;

    /** Merged telemetry snapshot (throughput + percentiles). */
    telemetry::MetricsSnapshot metrics;

    BenchPassSummary passes;

    /** Decision-ledger records accepted this run (0 = disabled). */
    std::uint64_t eventRecords = 0;

    /** Microbenchmark rows (empty for figure binaries). */
    std::vector<BenchResult> microbenchmarks;

    /** Pre-rendered `profile` block (prof::profileBlockJson());
     * "" = profiler off, block omitted. */
    std::string profileBlock;
};

/** Render the BENCH_<tool>.json document. */
std::string renderBenchReport(const BenchReportSpec &spec);

/** One metric comparison of a bench diff. */
struct MetricDiff
{
    /**
     * Dotted metric path ("wall_seconds",
     * "micro.avf_tracker.min_seconds", ...).
     */
    std::string name;

    double baseline = 0;
    double candidate = 0;

    /** Relative change in percent ((candidate-baseline)/baseline). */
    double deltaPct = 0;

    /**
     * Allowed noise band, --relax applied: the factor the metric may
     * move by in its bad direction (candidate/baseline for a
     * lower-is-better metric, baseline/candidate for a rate).
     */
    double limitFactor = 1;

    /** Direction: throughput regresses down, seconds/RSS up. */
    bool higherIsBetter = false;

    /** Moved beyond limitFactor in the bad / the good direction. */
    bool regressed = false;
    bool improved = false;

    /**
     * A baseline microbenchmark the candidate did not run at all;
     * reported as regressed so a dropped kernel cannot leave the
     * gate silently. No values or band apply.
     */
    bool missing = false;
};

/**
 * Gate settings. The per-family noise bands and noise floors are
 * one constant table in bench_report.cc; a run only scales them or
 * narrows the comparison to some families.
 */
struct DiffOptions
{
    /**
     * Multiplies the logarithm of every noise band (CLI --relax): a
     * band of factor b admits b^relax.
     */
    double relax = 1.0;

    /**
     * Metric-name prefix filters (CLI --family, repeatable). When
     * non-empty, only metrics whose dotted name starts with one of
     * these prefixes are compared — so one family (e.g. "micro.") can
     * be gated or relaxed independently of the others.
     */
    std::vector<std::string> families;
};

/**
 * Join two parsed BENCH documents metric by metric. The metric list
 * comes from the baseline; metrics missing (or null / below the
 * noise floor) on either side are skipped rather than flagged,
 * except a baseline microbenchmark row absent from the candidate,
 * which yields one `missing` regression named "micro.<name>".
 * Returns every comparison made; `error` is set (and the result
 * empty) when the documents are not comparable (schema or tool
 * mismatch).
 */
std::vector<MetricDiff>
compareBenchReports(const JsonValue &baseline,
                    const JsonValue &candidate,
                    const DiffOptions &options, std::string &error);

/**
 * True when the document's run had more workers than its host has
 * CPUs (`jobs` > `host.cpus`), so its timings measure contention as
 * much as the code. Reads the `host.oversubscribed` stamp, and
 * derives it from `jobs` and `host.cpus` in documents older than
 * the stamp.
 */
bool benchOversubscribed(const JsonValue &doc);

/**
 * "baseline 'A', candidate 'B'" when both documents stamp a
 * `host.cpu_model` and the two differ, so their timings compare
 * different hardware; "" when they match or either side lacks the
 * stamp (documents older than it).
 */
std::string benchCpuMismatch(const JsonValue &baseline,
                             const JsonValue &candidate);

/**
 * Top-level keys of a ramp-bench-v1 document that this build does
 * not know (newer schema additions, e.g. a baseline carrying a
 * block this binary predates). bench_diff notes and skips them
 * instead of erroring, so documents stay comparable across schema
 * growth. Sorted, deduplicated.
 */
std::vector<std::string> unknownBenchBlocks(const JsonValue &doc);

} // namespace ramp::perf

#endif // RAMP_PERF_BENCH_REPORT_HH
