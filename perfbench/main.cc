/**
 * @file
 * ramp_perfbench: run one benchmark workload for a fixed time.
 *
 *   ramp_perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--jobs J] [--reduced]
 *
 * Repeats whole rounds of the workload on a pool of J workers for about
 * S seconds (a round starts only if it should end in time; at least
 * two rounds run), then prints one JSON
 * line: the host stamp, the metrics, pass counts, and the digest of
 * every pass. With --trace 0 the metrics are the end-to-end ones
 * (medians over rounds); with --trace 1 untraced and traced rounds
 * alternate, the per-layer metrics are medians over the traced ones
 * plus one stage replay, and the tracing overhead is the difference
 * of the two round medians. perfbench/run.py builds this binary,
 * runs it, and checks the digests against the committed reference.
 *
 * Exit codes: 0 done, 1 runtime failure, 2 usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench.hh"

using namespace ramp;
using namespace ramp::perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "ramp_perfbench: " << message
              << "\nusage: ramp_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--jobs J] [--reduced]\n";
    std::exit(2);
}

unsigned
onlineCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0')
        usage(flag + " needs a non-negative integer, got '" + text +
              "'");
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    options.jobs = std::min(4u, onlineCpus());
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = parseCount(arg, value());
        } else if (arg == "--seconds") {
            options.seconds =
                static_cast<double>(parseCount(arg, value()));
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            options.trace = v == "1";
        } else if (arg == "--jobs") {
            const std::uint64_t jobs = parseCount(arg, value());
            if (jobs == 0 || jobs > onlineCpus())
                usage("--jobs must be in [1, " +
                      std::to_string(onlineCpus()) +
                      "] (nproc), got " + std::to_string(jobs));
            options.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--reduced") {
            options.reduced = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    return options;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

/** Median over rounds of one per-round quantity. */
template <typename Fn>
double
medianOf(const std::vector<Round> &rounds, Fn fn)
{
    std::vector<double> xs;
    for (const Round &round : rounds)
        xs.push_back(fn(round));
    return median(std::move(xs));
}

std::vector<Metric>
endToEndMetrics(const std::vector<Round> &rounds)
{
    std::vector<double> setup;
    for (const Round &round : rounds)
        setup.insert(setup.end(), round.setupS.begin(),
                     round.setupS.end());
    return {
        {"wall_s", medianOf(rounds, [](const Round &r) { return r.wallS; }),
         "s"},
        {"setup_s", median(setup), "s"},
        {"sim_accesses_per_s",
         medianOf(rounds,
                  [](const Round &r) {
                      return static_cast<double>(r.accesses) / r.timedS;
                  }),
         "1/s"},
        {"cpu_s", medianOf(rounds, [](const Round &r) { return r.cpuS; }),
         "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::vector<Metric>
perLayerMetrics(const Workload &workload,
                const std::vector<Round> &untraced,
                const std::vector<Round> &traced, const StageTimes &st)
{
    const auto med = [&](auto fn) {
        return medianOf(traced, [&](const Round &r) {
            return static_cast<double>(fn(r.layers));
        });
    };
    const bool sim = workload.simulatesPasses();

    // Campaign rounds simulate through HmaSystem::run; the service
    // runs it internally, so there the stage replay's pass stands in.
    const double hma_run_s =
        sim ? med([](const LayerTotals &l) { return l.hmaRunS; })
            : st.hmaRunS;
    const double hma_accesses =
        sim ? med([](const LayerTotals &l) { return l.hmaAccesses; })
            : static_cast<double>(st.accesses);
    const double stage_ns = st.lookupNs + st.profileNs + st.avfNs +
                            st.dramNs + st.coreNs +
                            st.finalizeMs * 1e6 /
                                static_cast<double>(st.accesses);
    const double replay_ns =
        st.hmaRunS * 1e9 / static_cast<double>(st.accesses);

    std::vector<double> pass_p50;
    std::vector<double> pass_max;
    for (const Round &round : traced) {
        pass_p50.push_back(median(round.layers.passSeconds));
        double worst = 0;
        for (const double s : round.layers.passSeconds)
            worst = std::max(worst, s);
        pass_max.push_back(worst);
    }

    return {
        {"trace.gen_s",
         sim ? med([](const LayerTotals &l) { return l.traceGenS; })
             : st.tenantGenS,
         "s"},
        {"trace.requests",
         sim ? med([](const LayerTotals &l) { return l.traceRequests; })
             : static_cast<double>(st.tenantRequests),
         "count"},
        {"runner.passes",
         med([](const LayerTotals &l) { return l.passSeconds.size(); }),
         "count"},
        {"runner.pass_s_p50", median(pass_p50), "s"},
        {"runner.pass_s_max", median(pass_max), "s"},
        {"runner.pool_busy_frac",
         med([](const LayerTotals &l) { return l.poolBusyFrac; }),
         "ratio"},
        {"hma.run_s", hma_run_s, "s"},
        {"hma.accesses", hma_accesses, "count"},
        {"hma.ns_per_access", hma_run_s * 1e9 / hma_accesses, "ns"},
        {"hma.core_ns", st.coreNs, "ns"},
        {"hma.unattributed_frac", 1.0 - stage_ns / replay_ns, "ratio"},
        {"placement.build_s",
         sim ? med([](const LayerTotals &l) {
             return l.placementBuildS;
         })
             : st.placementBuildS,
         "s"},
        {"placement.lookup_ns", st.lookupNs, "ns"},
        {"placement.profile_ns", st.profileNs, "ns"},
        {"placement.migrated_pages",
         med([](const LayerTotals &l) { return l.migratedPages; }),
         "count"},
        {"reliability.avf_ns", st.avfNs, "ns"},
        {"reliability.finalize_ms", st.finalizeMs, "ms"},
        {"dram.access_ns", st.dramNs, "ns"},
        {"dram.hbm_access_frac",
         sim ? med([](const LayerTotals &l) {
             return ratio(static_cast<double>(l.hbmAccesses),
                          static_cast<double>(l.hmaAccesses));
         })
             : st.hbmAccessFrac,
         "ratio"},
        {"dram.row_hit_frac",
         sim ? med([](const LayerTotals &l) {
             return ratio(static_cast<double>(l.rowHits),
                          static_cast<double>(l.rowHits + l.rowMisses));
         })
             : st.rowHitFrac,
         "ratio"},
        {"migration.on_access_ns", st.migrationOnAccessNs, "ns"},
        {"migration.interval_ms", st.migrationIntervalMs, "ms"},
        {"migration.intervals",
         med([](const LayerTotals &l) { return l.intervals; }), "count"},
        // Map moves minus the fault response's own moves are the
        // engine decisions that were applied.
        {"migration.applied_frac",
         med([](const LayerTotals &l) {
             return ratio(static_cast<double>(l.migratedPages -
                                              l.responseMoves),
                          static_cast<double>(l.requestedPages));
         }),
         "ratio"},
        {"faults.injected",
         med([](const LayerTotals &l) { return l.faultsInjected; }),
         "count"},
        {"faults.response_moves",
         med([](const LayerTotals &l) { return l.responseMoves; }),
         "count"},
        {"faults.on_access_ns", st.faultsOnAccessNs, "ns"},
        {"service.solo_frac",
         med([](const LayerTotals &l) { return l.soloFrac; }), "ratio"},
        {"service.arbitrate_us", st.arbitrateUs, "us"},
        {"service.rebalance_moves",
         med([](const LayerTotals &l) { return l.rebalanceMoves; }),
         "count"},
        {"service.quota_clips",
         med([](const LayerTotals &l) { return l.quotaClips; }),
         "count"},
        {"tracing.overhead_s",
         medianOf(traced, [](const Round &r) { return r.wallS; }) -
             medianOf(untraced, [](const Round &r) { return r.wallS; }),
         "s"},
    };
}

int
run(const Options &options)
{
    std::unique_ptr<Workload> workload = makeWorkload(options);
    if (workload == nullptr) {
        std::string names;
        for (const std::string &name : workloadNames())
            names += (names.empty() ? "" : ", ") + name;
        usage("unknown workload '" + options.workload + "' (" + names +
              ")");
    }

    runner::ThreadPool pool(options.jobs);
    std::vector<Round> untraced;
    std::vector<Round> traced;
    const auto start = Clock::now();
    double last_round_s = 0;
    // Start another round only if it should end within the budget.
    while (untraced.size() + traced.size() < 2 ||
           secondsSince(start) + last_round_s <= options.seconds) {
        // Traced runs alternate, so both medians see the same drift.
        const bool trace_this =
            options.trace && untraced.size() > traced.size();
        const auto round_start = Clock::now();
        (trace_this ? traced : untraced)
            .push_back(workload->runRound(pool, trace_this));
        last_round_s = secondsSince(round_start);
    }
    // Every round computes the same passes: their digests must agree.
    std::vector<const Round *> all;
    for (const Round &r : untraced)
        all.push_back(&r);
    for (const Round &r : traced)
        all.push_back(&r);
    const Round &first = *all.front();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Round *round : all) {
        attempted += round->attempted;
        failed += round->failed;
        if (round == &first)
            continue;
        for (std::size_t i = 0; i < round->digest.size(); ++i)
            if (i >= first.digest.size() ||
                round->digest[i] != first.digest[i])
                ++failed;
    }

    std::vector<Metric> metrics;
    if (options.trace) {
        const StageTimes stages = replayStages(
            workload->stageInput(), workload->config(), workload->storm());
        metrics = perLayerMetrics(*workload, untraced, traced, stages);
    } else {
        metrics = endToEndMetrics(untraced);
    }

    std::ostringstream out;
    out << "{\"workload\":" << jsonString(options.workload)
        << ",\"seed\":" << options.seed
        << ",\"rounds\":" << untraced.size()
        << ",\"traced_rounds\":" << traced.size()
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"host\":{\"cpu_model\":" << jsonString(cpuModel())
        << ",\"nproc\":" << onlineCpus() << ",\"jobs\":" << options.jobs
        << ",\"compiler\":" << jsonString(RAMP_PERFBENCH_COMPILER)
        << ",\"build_type\":" << jsonString(RAMP_PERFBENCH_BUILD_TYPE)
        << "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? "," : "") << jsonString(metrics[i].name)
            << ":{\"value\":" << jsonNumber(metrics[i].value)
            << ",\"unit\":" << jsonString(metrics[i].unit) << "}";
    out << "},\"digest\":[";
    for (std::size_t i = 0; i < first.digest.size(); ++i)
        out << (i ? "," : "") << jsonString(first.digest[i]);
    out << "]}";
    std::cout << out.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    try {
        return run(options);
    } catch (const std::exception &error) {
        std::cerr << "ramp_perfbench: " << error.what() << "\n";
        return 1;
    }
}
