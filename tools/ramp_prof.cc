/**
 * @file
 * ramp_prof: the cycle-profile analyzer.
 *
 *   ramp_prof [options] PROFILE.json            # top / tree / calls
 *   ramp_prof --diff BASE.json CAND.json        # per-phase deltas
 *
 * Reads the ramp-profile-v1 documents harness binaries write via
 * --profile-out and answers "where do the cycles go" (top
 * self-cycle table, phase-tree view) and "what moved" (diff mode:
 * per-phase self-cycle deltas against a baseline profile, the
 * measurement gate of the hot-path optimization campaign). The
 * --calls view prints phase paths and call counts only — for
 * deterministic workloads it is byte-identical at any --jobs, which
 * is what CI compares.
 *
 * Exit: 0 ok (diff: no phase slowed beyond the threshold), 1 on a
 * significant slowdown in diff mode, 2 on usage or unreadable
 * input.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "perf/artifact.hh"
#include "perf/prof_report.hh"

using namespace ramp;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ramp_prof [options] PROFILE.json\n"
        "       ramp_prof --diff BASE.json CANDIDATE.json\n"
        "\n"
        "  --top N           rows in the top table (default 20)\n"
        "  --tree            print the phase-tree view\n"
        "  --calls           print 'path calls' lines only (the\n"
        "                    schedule-independent structural view)\n"
        "  --diff            compare two profiles by phase path\n"
        "  --threshold-pct P significance threshold for diff mode\n"
        "                    (default 25)\n"
        "  --min-cycles N    ignore diff deltas smaller than N\n"
        "                    cycles (default 1000000)\n"
        "\n"
        "Exit: 0 ok, 1 significant slowdown (diff mode), 2 usage/"
        "unreadable input.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool diff_mode = false;
    bool tree_view = false;
    bool calls_view = false;
    std::size_t top_n = 20;
    double threshold_pct = 25;
    std::uint64_t min_cycles = 1000000;
    std::vector<std::string> paths;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) {
            return perf::flagValue("ramp_prof", args, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--diff") {
            diff_mode = true;
        } else if (arg == "--tree") {
            tree_view = true;
        } else if (arg == "--calls") {
            calls_view = true;
        } else if (arg == "--top") {
            top_n = perf::parsePositiveArg<std::size_t>(
                "ramp_prof", "--top", value("--top"));
        } else if (arg == "--threshold-pct") {
            threshold_pct = perf::parsePositiveArg(
                "ramp_prof", "--threshold-pct", value("--threshold-pct"));
        } else if (arg == "--min-cycles") {
            min_cycles = perf::parsePositiveArg<std::uint64_t>(
                "ramp_prof", "--min-cycles", value("--min-cycles"));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "ramp_prof: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    // Two positionals without --diff also mean a diff, matching
    // bench_diff's calling convention.
    if (paths.size() == 2)
        diff_mode = true;
    if ((diff_mode && paths.size() != 2) ||
        (!diff_mode && paths.size() != 1)) {
        usage();
        return 2;
    }

    std::string error;
    if (diff_mode) {
        perf::ProfileDoc base, cand;
        if (!perf::loadProfileDoc(paths[0], base, error) ||
            !perf::loadProfileDoc(paths[1], cand, error)) {
            std::fprintf(stderr, "ramp_prof: %s\n", error.c_str());
            return 2;
        }
        const auto deltas = perf::diffProfiles(
            base, cand, threshold_pct, min_cycles);
        std::cout << perf::renderDiffTable(base, cand, deltas);
        std::size_t slower = 0;
        std::size_t faster = 0;
        for (const auto &delta : deltas) {
            if (delta.regressed)
                ++slower;
            else if (delta.significant)
                ++faster;
        }
        if (slower == 0 && faster == 0) {
            std::cout << "ramp_prof: zero significant delta ("
                      << deltas.size() << " phases within ±"
                      << threshold_pct << "%)\n";
            return 0;
        }
        std::cout << "ramp_prof: " << slower << " phase(s) slower, "
                  << faster << " faster beyond ±" << threshold_pct
                  << "%\n";
        return slower > 0 ? 1 : 0;
    }

    perf::ProfileDoc doc;
    if (!perf::loadProfileDoc(paths[0], doc, error)) {
        std::fprintf(stderr, "ramp_prof: %s\n", error.c_str());
        return 2;
    }
    if (calls_view) {
        std::cout << perf::renderCalls(doc);
        return 0;
    }
    if (tree_view) {
        std::cout << perf::renderTree(doc);
        return 0;
    }
    std::cout << perf::renderTopTable(doc, top_n);
    return 0;
}
