/**
 * @file
 * Figure 12: performance-focused dynamic migration (Meswani-style
 * Full Counters, dynamic mean-hotness threshold).
 *
 * Paper: IPC 1.52x and SER 268x relative to DDR-only — i.e. the
 * dynamic scheme recovers most of the static oracle's performance
 * (1.6x) without prior profiling, and inherits almost all of its
 * reliability exposure. Also reports migrations per interval
 * (paper: ~47K at unscaled capacity).
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("fig12_perf_migration", [&] {
        Harness harness("fig12_perf_migration", argc, argv);
        const SystemConfig &config = harness.config();

        const auto profiled =
            harness.profileAll(standardWorkloads());

        // Two passes per workload: even index = perf-focused static
        // reference, odd index = the dynamic scheme.
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled) {
            descs.push_back({wl, "perf-static"});
            descs.push_back({wl, "perf-migration"});
        }
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / 2];
                if (i % 2 == 0)
                    return runStaticPolicy(config, wl.data,
                                           StaticPolicy::PerfFocused,
                                           wl.profile());
                return runDynamic(config, wl.data,
                                  DynamicScheme::PerfFocused,
                                  wl.profile());
            });

        TextTable table({"workload", "IPC vs DDR-only",
                         "SER vs DDR-only", "IPC vs perf-static",
                         "pages moved/interval"});
        RatioColumn ipc_ratios, ser_ratios, vs_static;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const auto &static_out = outcomes[2 * i];
            const auto &dynamic_out = outcomes[2 * i + 1];
            if (!static_out.ok() || !dynamic_out.ok()) {
                table.addRow({wl.name(),
                              statusCell(static_out.ok()
                                             ? dynamic_out
                                             : static_out),
                              "-", "-", "-"});
                continue;
            }
            const auto &perf_static = static_out.result;
            const auto &result = dynamic_out.result;

            const double intervals =
                static_cast<double>(result.makespan) /
                static_cast<double>(config.fcIntervalCycles);
            table.addRow(
                {wl.name(),
                 TextTable::ratio(
                     ipc_ratios.add(result.ipc / wl.base.ipc)),
                 TextTable::ratio(
                     ser_ratios.add(result.ser / wl.base.ser), 1),
                 TextTable::ratio(
                     vs_static.add(result.ipc / perf_static.ipc)),
                 TextTable::num(static_cast<std::uint64_t>(
                     static_cast<double>(result.migratedPages) /
                     std::max(1.0, intervals)))});
        }
        table.addRow({"average", ipc_ratios.averageCell(),
                      ser_ratios.averageCell(1),
                      vs_static.averageCell(), "-"});
        table.print(std::cout,
                    "Figure 12: performance-focused migration "
                    "(paper: 1.52x IPC, 268x SER vs DDR-only)");
        return harness.finish();
    });
}
