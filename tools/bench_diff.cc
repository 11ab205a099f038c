/**
 * @file
 * bench_diff: the BENCH_*.json regression gate.
 *
 *   bench_diff [options] BASELINE CANDIDATE
 *
 * Compares two ramp-bench-v1 documents metric by metric with the
 * per-family noise bands of perf/bench_report.cc and prints a
 * human-readable verdict table. A baseline microbenchmark the
 * candidate did not run counts as a regression. Exit code: 0 when
 * no metric regressed beyond its threshold, 1 on any regression, 2
 * on usage or unreadable/incomparable inputs. CI runs it against the
 * baselines committed at the repo root, so a PR that slows a hot
 * kernel down fails visibly instead of silently.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "perf/artifact.hh"
#include "perf/bench_report.hh"

using namespace ramp;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_diff [options] BASELINE.json CANDIDATE.json\n"
        "\n"
        "  --relax F         raise every noise band (a factor) to\n"
        "                    the power F\n"
        "  --family PREFIX   only compare metrics whose name "
        "starts\n"
        "                    with PREFIX (repeatable), so one "
        "family\n"
        "                    gates/relaxes independently\n"
        "\n"
        "Exit: 0 ok, 1 regression, 2 usage/unreadable input.\n");
}

std::string
pct(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%+.1f%%", value);
    return buffer;
}

std::string
quantity(double value)
{
    char buffer[32];
    if (value >= 1e6)
        std::snprintf(buffer, sizeof(buffer), "%.3g", value);
    else
        std::snprintf(buffer, sizeof(buffer), "%.4g", value);
    return buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    perf::DiffOptions options;
    std::vector<std::string> paths;
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) {
            return perf::flagValue("bench_diff", args, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--relax") {
            options.relax = perf::parsePositiveArg(
                "bench_diff", "--relax", value("--relax"));
        } else if (arg == "--family") {
            options.families.push_back(value("--family"));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "bench_diff: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2) {
        usage();
        return 2;
    }

    perf::JsonValue baseline, candidate;
    std::string error;
    if (!perf::parseJsonFile(paths[0], baseline, error) ||
        !perf::parseJsonFile(paths[1], candidate, error)) {
        std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
        return 2;
    }

    // Schema growth: a document may carry top-level blocks this
    // build predates (or postdates). Note and skip them so old
    // baselines stay comparable against new candidates.
    std::set<std::string> unknown_blocks;
    for (const auto &name : perf::unknownBenchBlocks(baseline))
        unknown_blocks.insert(name);
    for (const auto &name : perf::unknownBenchBlocks(candidate))
        unknown_blocks.insert(name);
    for (const auto &name : unknown_blocks)
        std::cout << "bench_diff: note: skipping unknown block '"
                  << name << "'\n";

    // An oversubscribed side's timings are contended, so a verdict
    // on them says little about the code.
    for (const auto &[side, doc] :
         {std::pair{"baseline", &baseline},
          std::pair{"candidate", &candidate}}) {
        if (perf::benchOversubscribed(*doc))
            std::cout << "bench_diff: warning: the " << side
                      << " ran oversubscribed (jobs "
                      << doc->numberOr("jobs", 0) << " > cpus "
                      << doc->find("host")->numberOr("cpus", 0)
                      << "); its timings are contended\n";
    }
    if (const std::string cpus =
            perf::benchCpuMismatch(baseline, candidate);
        !cpus.empty())
        std::cout << "bench_diff: warning: baseline and candidate ran "
                     "on different CPUs ("
                  << cpus << ")\n";

    const auto diffs = perf::compareBenchReports(
        baseline, candidate, options, error);
    if (!error.empty()) {
        std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
        return 2;
    }

    std::size_t regressions = 0;
    TextTable table({"metric", "baseline", "candidate", "delta",
                     "limit", "verdict"});
    for (const auto &diff : diffs) {
        if (diff.regressed)
            ++regressions;
        if (diff.missing) {
            table.addRow({diff.name, "-", "missing in candidate", "-",
                          "-", "REGRESSED"});
            continue;
        }
        table.addRow({diff.name, quantity(diff.baseline),
                      quantity(diff.candidate), pct(diff.deltaPct),
                      quantity(diff.limitFactor) + "x",
                      diff.regressed       ? "REGRESSED"
                      : diff.improved      ? "improved"
                                           : "ok"});
    }
    table.print(std::cout,
                "bench_diff: " + paths[0] + " -> " + paths[1] +
                    " (" + std::to_string(diffs.size()) +
                    " metrics compared)");
    if (diffs.empty())
        std::cout << "bench_diff: no comparable metrics "
                     "(documents measure nothing in common)\n";
    if (regressions > 0) {
        std::cout << "bench_diff: " << regressions << " metric(s) "
                  << "regressed beyond their noise threshold\n";
        return 1;
    }
    std::cout << "bench_diff: no regressions\n";
    return 0;
}
