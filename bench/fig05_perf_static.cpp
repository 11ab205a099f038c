/**
 * @file
 * Figure 5: performance-focused static placement.
 *
 * Top hot pages fill the HBM (profile-guided oracle). The paper
 * reports an average 1.6x IPC gain and a 287x SER increase relative
 * to DDR-only — the motivation for reliability-aware placement.
 */

#include <iostream>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("fig05_perf_static", [&] {
        Harness harness("fig05_perf_static", argc, argv);
        const SystemConfig &config = harness.config();

        TextTable table({"workload", "IPC (DDR)", "IPC (perf)",
                         "IPC gain", "SER vs DDR-only"});
        RatioColumn ipc_ratios, ser_ratios;

        const auto profiled =
            harness.profileAll(standardWorkloads());
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled)
            descs.push_back({wl, "perf-static"});
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i];
                return runStaticPolicy(config, wl.data,
                                       StaticPolicy::PerfFocused,
                                       wl.profile());
            });

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            if (!outcomes[i].ok()) {
                table.addRow({wl.name(),
                              TextTable::num(wl.base.ipc, 2),
                              statusCell(outcomes[i]), "-", "-"});
                continue;
            }
            const auto &result = outcomes[i].result;
            table.addRow(
                {wl.name(), TextTable::num(wl.base.ipc, 2),
                 TextTable::num(result.ipc, 2),
                 TextTable::ratio(
                     ipc_ratios.add(result.ipc / wl.base.ipc)),
                 TextTable::ratio(
                     ser_ratios.add(result.ser / wl.base.ser), 1)});
        }
        table.addRow({"average", "-", "-", ipc_ratios.averageCell(),
                      ser_ratios.averageCell(1)});
        table.print(std::cout,
                    "Figure 5: performance-focused static placement "
                    "(paper: 1.6x IPC, 287x SER)");
        return harness.finish();
    });
}
