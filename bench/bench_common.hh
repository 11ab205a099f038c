/**
 * @file
 * Shared context for the figure/table harness binaries.
 *
 * Every bench binary regenerates one paper table or figure on the
 * src/runner subsystem: a Harness parses the shared flags (--jobs,
 * --json, --cache-dir, --checkpoint, --pass-timeout), profiles
 * workloads through the process-wide (and optionally on-disk)
 * profile cache, and runs every simulated pass through
 * Harness::runPasses: one PassDesc {workload, label} per pass, fanned
 * out over the thread pool with deterministic, ordered,
 * fault-contained, checkpointed results recorded into the JSON
 * report. A pass that did not finish prints statusCell() in its
 * table row. main() wraps its body in
 * runner::benchMain, which installs the SIGINT/SIGTERM handlers and
 * maps failures onto exit codes (usage 2, cancelled 128+signal,
 * anything else 1; Harness::finish() returns 3 when a pass failed).
 * See DESIGN.md Section 3 for the experiment index and
 * EXPERIMENTS.md for paper-vs-measured values.
 */

#ifndef RAMP_BENCH_BENCH_COMMON_HH
#define RAMP_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "hma/experiment.hh"
#include "perf/artifact.hh"
#include "perf/microbench.hh"
#include "placement/profile.hh"
#include "runner/harness.hh"
#include "telemetry/histogram.hh"

namespace ramp::bench
{

using runner::Harness;
using runner::PassDesc;
using runner::PassOutcome;
using runner::ProfiledWorkload;
using runner::ProfiledWorkloadPtr;
using runner::RatioColumn;
using runner::benchMain;
using runner::meanRatio;

/**
 * The paper's write-share bucketing: five equal bins over [0, 1]
 * (0-20%, 21-40%, ...). The epsilon keeps a pure-write page (share
 * exactly 1.0) in the last bin instead of clamping past it.
 */
inline telemetry::FixedHistogram
writeShareHistogram()
{
    return telemetry::FixedHistogram::linear(0.0, 1.0 + 1e-9, 5);
}

/** Bin every page's write share of accesses into `histogram`. */
inline void
addWriteShares(telemetry::FixedHistogram &histogram,
               const PageProfile &profile)
{
    for (const auto &[page, stats] : profile.pages()) {
        const double total = static_cast<double>(stats.hotness());
        histogram.add(total == 0 ? 0.0
                                 : static_cast<double>(stats.writes) /
                                       total);
    }
}

/** Print a write-share histogram as the standard two-column table. */
inline void
printWriteShareTable(const telemetry::FixedHistogram &histogram,
                     const std::string &title)
{
    TextTable table({"write share bin", "pages"});
    for (std::size_t bin = 0; bin < histogram.numBuckets(); ++bin) {
        table.addRow(
            {TextTable::percent(histogram.bucketLow(bin), 0) +
                 " - " +
                 TextTable::percent(
                     std::min(1.0, histogram.bucketHigh(bin)), 0),
             TextTable::num(histogram.bucketCount(bin))});
    }
    table.print(std::cout, title);
}

/** Table cell for a pass that produced no metrics ("FAILED"...). */
inline std::string
statusCell(const PassOutcome &outcome)
{
    std::string name = runner::passStatusName(outcome.status);
    for (auto &c : name)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return name;
}

/** Print microbenchmark rows as the standard table. */
inline void
printMicrobenchTable(const std::vector<perf::BenchResult> &rows,
                     const std::string &title)
{
    TextTable table({"benchmark", "unit", "mean", "stddev",
                     "ci95", "min", "items/s"});
    for (const auto &r : rows) {
        table.addRow(
            {r.name, r.unit, TextTable::num(r.meanSeconds * 1e3, 3),
             TextTable::num(r.stddevSeconds * 1e3, 3),
             TextTable::num(r.ci95Seconds * 1e3, 3),
             TextTable::num(r.minSeconds * 1e3, 3),
             TextTable::num(r.itemsPerSecond, 0)});
    }
    table.print(std::cout, title + " (times in ms)");
}

/**
 * One placement policy under test: a static placement or a dynamic
 * migration scheme. The policy-sweep benches (fault_storm,
 * datacenter_service's per-tenant arbitration table) iterate one
 * case list instead of hand-rolling parallel static/dynamic loops.
 */
struct PolicyCase
{
    std::string label;
    bool isDynamic = false;
    StaticPolicy policy = StaticPolicy::Balanced;
    DynamicScheme scheme = DynamicScheme::PerfFocused;
};

/** The standard sweep: five static placements, three engines. */
inline std::vector<PolicyCase>
policyCases()
{
    std::vector<PolicyCase> cases;
    for (const StaticPolicy policy :
         {StaticPolicy::PerfFocused, StaticPolicy::ReliabilityFocused,
          StaticPolicy::Balanced, StaticPolicy::WrRatio,
          StaticPolicy::Wr2Ratio})
        cases.push_back({policyName(policy), false, policy, {}});
    for (const DynamicScheme scheme :
         {DynamicScheme::PerfFocused, DynamicScheme::FcReliability,
          DynamicScheme::CrossCounter})
        cases.push_back(
            {dynamicSchemeName(scheme), true, {}, scheme});
    return cases;
}

/** Run one policy case clean. */
inline SimResult
runPolicyCase(const SystemConfig &config, const WorkloadData &data,
              const PolicyCase &pc, const PageProfile &profile)
{
    return pc.isDynamic
               ? runDynamic(config, data, pc.scheme, profile)
               : runStaticPolicy(config, data, pc.policy, profile);
}

/** Run one policy case under online fault injection. */
inline SimResult
runPolicyCaseFaulted(const SystemConfig &config,
                     const WorkloadData &data, const PolicyCase &pc,
                     const PageProfile &profile,
                     const InjectorConfig &faults)
{
    return pc.isDynamic
               ? runDynamicFaulted(config, data, pc.scheme, profile,
                                   faults)
               : runStaticFaulted(config, data, pc.policy, profile,
                                  faults);
}

/**
 * Pass-label suffix naming the binary's own arguments (those left
 * after the shared harness flags): empty when there are none,
 * otherwise "@" plus a hash of them. Appended to the labels of the
 * passes those arguments shape, so a checkpoint journal written
 * under other values is not replayed for them.
 */
inline std::string
argumentsTag(const Harness &harness)
{
    std::string args;
    for (const std::string &arg : harness.options().positional) {
        args += arg;
        args += '\0';
    }
    if (args.empty())
        return {};
    std::string tag = "@";
    tag += runner::hashHex(runner::fnv1a64(args));
    return tag;
}

/**
 * Run a microbenchmark suite under the harness: positional
 * arguments select cases (all when none given), results print as a
 * table and fold into the --bench-out document.
 */
inline std::vector<perf::BenchResult>
runMicrobenchSuite(Harness &harness, const perf::Microbench &suite,
                   const perf::BenchOptions &options = {})
{
    const auto results =
        suite.run(options, harness.options().positional);
    harness.addMicrobenchResults(results);
    return results;
}

} // namespace ramp::bench

#endif // RAMP_BENCH_BENCH_COMMON_HH
