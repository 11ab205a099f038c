/**
 * @file
 * Shared report generator for Figures 7, 8, 10, and 11.
 *
 * Each of those figures evaluates one static placement policy over
 * every workload, ordered by decreasing MPKI (bandwidth-intensive on
 * the left), and reports IPC and SER relative to the
 * performance-focused static placement. The per-workload passes
 * (perf-focused baseline + the policy under study) fan out across
 * the harness thread pool as independent, checkpointable passes.
 */

#ifndef RAMP_BENCH_STATIC_POLICY_REPORT_HH
#define RAMP_BENCH_STATIC_POLICY_REPORT_HH

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace ramp::bench
{

/** Run one policy over all workloads and print the figure rows. */
inline int
reportStaticPolicy(StaticPolicy policy, const std::string &title,
                   const std::string &tool, int argc, char **argv)
{
    return benchMain(tool.c_str(), [&] {
        Harness harness(tool, argc, argv);
        const SystemConfig &config = harness.config();
        auto profiled = harness.profileAll(standardWorkloads());

        // The paper orders these figures by decreasing MPKI.
        std::sort(profiled.begin(), profiled.end(),
                  [](const ProfiledWorkloadPtr &a,
                     const ProfiledWorkloadPtr &b) {
                      return a->base.mpki > b->base.mpki;
                  });

        // Two passes per workload: even index = perf-focused
        // baseline, odd index = the policy under study.
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled) {
            descs.push_back({wl, "perf-baseline"});
            descs.push_back({wl, "policy"});
        }
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / 2];
                return runStaticPolicy(
                    config, wl.data,
                    i % 2 == 0 ? StaticPolicy::PerfFocused : policy,
                    wl.profile());
            });

        TextTable table({"workload", "MPKI", "IPC vs perf-focused",
                         "SER reduction vs perf-focused",
                         "SER vs DDR-only"});
        RatioColumn ipc_ratios, ser_reductions;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const auto &perf_out = outcomes[2 * i];
            const auto &policy_out = outcomes[2 * i + 1];
            if (!perf_out.ok() || !policy_out.ok()) {
                table.addRow(
                    {wl.name(), TextTable::num(wl.base.mpki, 1),
                     statusCell(perf_out.ok() ? policy_out
                                              : perf_out),
                     "-", "-"});
                continue;
            }
            const auto &perf = perf_out.result;
            const auto &result = policy_out.result;
            table.addRow(
                {wl.name(), TextTable::num(wl.base.mpki, 1),
                 TextTable::ratio(
                     ipc_ratios.add(result.ipc / perf.ipc)),
                 TextTable::ratio(
                     ser_reductions.add(perf.ser / result.ser), 1),
                 TextTable::ratio(result.ser / wl.base.ser, 1)});
        }
        table.addRow({"average", "-", ipc_ratios.averageCell(),
                      ser_reductions.averageCell(1), "-"});
        table.print(std::cout, title);

        std::cout << "\naverage IPC loss vs perf-focused: "
                  << ipc_ratios.lossCell()
                  << ", average SER reduction: "
                  << ser_reductions.averageCell(1) << "\n";
        return harness.finish();
    });
}

} // namespace ramp::bench

#endif // RAMP_BENCH_STATIC_POLICY_REPORT_HH
