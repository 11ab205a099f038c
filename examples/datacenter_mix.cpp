/**
 * @file
 * Datacenter-mix scenario: build a custom 16-core workload mix,
 * study its hotness-risk structure, and pick a placement.
 *
 * Models the paper's Section 4 workflow for an operator consolidating
 * heterogeneous tenants onto one HMA node:
 *   1. compose a custom mix (any registry programs, 16 cores),
 *   2. profile it on DDR only and inspect the Figure 4 quadrants,
 *   3. compare the placement options the paper offers — the four
 *      static candidates fan out across the runner thread pool,
 *   4. report the per-mix recommendation.
 */

#include <iostream>

#include "common/table.hh"
#include "hma/experiment.hh"
#include "placement/quadrant.hh"
#include "runner/harness.hh"

using namespace ramp;

int
main(int argc, char **argv)
{
    return runner::benchMain("datacenter_mix", [&] {
        runner::Harness harness("datacenter_mix", argc, argv);
        const SystemConfig &config = harness.config();

        // 1. A custom consolidation mix: latency-sensitive services
        //    (gcc, omnetpp) sharing the node with HPC batch jobs.
        WorkloadSpec spec;
        spec.name = "custom-consolidation";
        spec.coreBenchmarks = {"gcc",     "gcc",      "omnetpp",
                               "omnetpp", "sphinx",   "bzip",
                               "bzip",    "dealII",   "milc",
                               "milc",    "GemsFDTD", "GemsFDTD",
                               "lulesh",  "lulesh",   "xsbench",
                               "xsbench"};

        // 2. Profile pass (cached like any bench workload) and
        //    quadrant analysis.
        const auto wl = harness.profile(spec);
        const SimResult &base = wl->base;
        const auto quadrants = analyzeQuadrants(wl->profile());
        std::cout << "mix '" << spec.name << "': "
                  << wl->profile().footprintPages() << " pages, AVF "
                  << TextTable::percent(base.memoryAvf) << ", MPKI "
                  << TextTable::num(base.mpki, 1) << "\n"
                  << "hot & low-risk pages: "
                  << TextTable::percent(
                         quadrants.hotLowRiskFraction())
                  << " of footprint (the placement opportunity)\n\n";

        // 3. Candidate placements, as checkpointable passes: the
        //    four static candidates plus the dynamic option for
        //    tenants the operator cannot profile.
        const std::vector<StaticPolicy> policies = {
            StaticPolicy::PerfFocused, StaticPolicy::Balanced,
            StaticPolicy::WrRatio, StaticPolicy::Wr2Ratio};
        const std::vector<std::string> labels = {
            "perf-focused", "balanced", "wr-ratio", "wr2-ratio",
            "fc-migration"};
        std::vector<runner::PassDesc> descs;
        for (const auto &label : labels)
            descs.push_back({wl, label});
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                if (i < policies.size())
                    return runStaticPolicy(config, wl->data,
                                           policies[i],
                                           wl->profile());
                return runDynamic(config, wl->data,
                                  DynamicScheme::FcReliability,
                                  wl->profile());
            });

        TextTable table({"placement", "IPC vs DDR-only",
                         "SER vs DDR-only", "HBM traffic share"});
        SimResult best_balanced{};
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!outcomes[i].ok()) {
                table.addRow(
                    {labels[i],
                     runner::passStatusName(outcomes[i].status), "-",
                     "-"});
                continue;
            }
            const auto &result = outcomes[i].result;
            if (i < policies.size() &&
                policies[i] == StaticPolicy::Wr2Ratio)
                best_balanced = result;
            table.addRow(
                {result.label, TextTable::ratio(result.ipc / base.ipc),
                 TextTable::ratio(result.ser / base.ser, 1),
                 TextTable::percent(result.hbmAccessFraction)});
        }
        table.print(std::cout,
                    "placement options for " + spec.name);

        // 4. Recommendation: the Wr^2 heuristic balances both axes
        //    without needing AVF oracles (Section 5.4.2).
        if (best_balanced.instructions != 0)
            std::cout << "\nrecommended: wr2-ratio placement ("
                      << TextTable::ratio(best_balanced.ipc /
                                          base.ipc)
                      << " IPC at "
                      << TextTable::ratio(best_balanced.ser /
                                              base.ser,
                                          1)
                      << " SER vs DDR-only)\n";
        return harness.finish();
    });
}
