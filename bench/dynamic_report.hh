/**
 * @file
 * Shared report generator for Figures 14 and 15.
 *
 * Both figures evaluate a reliability-aware migration scheme over
 * every workload and report IPC and SER relative to the
 * performance-focused migration baseline (the dynamic state of the
 * art, Section 6.1). The per-workload passes fan out across the
 * harness thread pool as independent, checkpointable passes.
 */

#ifndef RAMP_BENCH_DYNAMIC_REPORT_HH
#define RAMP_BENCH_DYNAMIC_REPORT_HH

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace ramp::bench
{

/** Run one dynamic scheme over all workloads, print figure rows. */
inline int
reportDynamicScheme(DynamicScheme scheme, const std::string &title,
                    const std::string &tool, int argc, char **argv)
{
    return benchMain(tool.c_str(), [&] {
        Harness harness(tool, argc, argv);
        const SystemConfig &config = harness.config();
        const auto profiled =
            harness.profileAll(standardWorkloads());

        // Two passes per workload: even index = perf-focused
        // migration baseline, odd index = the scheme under study.
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled) {
            descs.push_back({wl, "perf-migration"});
            descs.push_back({wl, "scheme"});
        }
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / 2];
                return runDynamic(config, wl.data,
                                  i % 2 == 0
                                      ? DynamicScheme::PerfFocused
                                      : scheme,
                                  wl.profile());
            });

        TextTable table({"workload", "IPC vs perf-migration",
                         "SER reduction vs perf-migration",
                         "SER vs DDR-only", "pages moved"});
        RatioColumn ipc_ratios, ser_reductions;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const auto &perf_out = outcomes[2 * i];
            const auto &scheme_out = outcomes[2 * i + 1];
            if (!perf_out.ok() || !scheme_out.ok()) {
                table.addRow({wl.name(),
                              statusCell(perf_out.ok() ? scheme_out
                                                       : perf_out),
                              "-", "-", "-"});
                continue;
            }
            const auto &perf_mig = perf_out.result;
            const auto &result = scheme_out.result;
            table.addRow(
                {wl.name(),
                 TextTable::ratio(
                     ipc_ratios.add(result.ipc / perf_mig.ipc)),
                 TextTable::ratio(
                     ser_reductions.add(perf_mig.ser / result.ser),
                     1),
                 TextTable::ratio(result.ser / wl.base.ser, 1),
                 TextTable::num(result.migratedPages)});
        }
        table.addRow({"average", ipc_ratios.averageCell(),
                      ser_reductions.averageCell(1), "-", "-"});
        table.print(std::cout, title);

        std::cout << "\naverage IPC loss vs perf-migration: "
                  << ipc_ratios.lossCell()
                  << ", average SER reduction: "
                  << ser_reductions.averageCell(1) << "\n\n";

        // The write-ratio heuristic's input distribution, merged
        // over every workload the scheme just ran on.
        auto write_shares = writeShareHistogram();
        for (const auto &wl : profiled)
            addWriteShares(write_shares, wl->profile());
        printWriteShareTable(write_shares,
                             "Write-share distribution of the "
                             "evaluated footprint");
        return harness.finish();
    });
}

} // namespace ramp::bench

#endif // RAMP_BENCH_DYNAMIC_REPORT_HH
