/**
 * @file
 * Figure 16: program-annotation-based placement.
 *
 * Hot & low-risk structures are pinned in HBM by the loader; no
 * hardware cost, no migration. Paper: SER / 1.3 at -1.1% IPC
 * relative to the performance-focused static oracular placement.
 */

#include <iostream>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("fig16_annotation", [&] {
        Harness harness("fig16_annotation", argc, argv);
        const SystemConfig &config = harness.config();

        const auto profiled =
            harness.profileAll(standardWorkloads());

        // Two passes per workload: even index = perf-focused
        // baseline, odd index = the annotation-based placement.
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled) {
            descs.push_back({wl, "perf-baseline"});
            descs.push_back({wl, "annotated"});
        }
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / 2];
                if (i % 2 == 0)
                    return runStaticPolicy(config, wl.data,
                                           StaticPolicy::PerfFocused,
                                           wl.profile());
                return runAnnotated(config, wl.data, wl.profile());
            });

        TextTable table({"workload", "IPC vs perf-focused",
                         "SER reduction vs perf-focused",
                         "SER vs DDR-only", "annotations"});
        RatioColumn ipc_ratios, ser_reductions;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const auto &perf_out = outcomes[2 * i];
            const auto &annot_out = outcomes[2 * i + 1];
            if (!perf_out.ok() || !annot_out.ok()) {
                table.addRow({wl.name(),
                              statusCell(perf_out.ok() ? annot_out
                                                       : perf_out),
                              "-", "-", "-"});
                continue;
            }
            const auto &perf = perf_out.result;
            const auto &result = annot_out.result;
            const auto annotations =
                annotationsFor(wl.data, wl.profile(),
                               config.hbmPages())
                    .count();
            table.addRow(
                {wl.name(),
                 TextTable::ratio(
                     ipc_ratios.add(result.ipc / perf.ipc)),
                 TextTable::ratio(
                     ser_reductions.add(perf.ser / result.ser), 1),
                 TextTable::ratio(result.ser / wl.base.ser, 1),
                 TextTable::num(
                     static_cast<std::uint64_t>(annotations))});
        }
        table.addRow({"average", ipc_ratios.averageCell(),
                      ser_reductions.averageCell(1), "-", "-"});
        table.print(std::cout,
                    "Figure 16: annotation-based placement "
                    "(paper: SER/1.3, IPC -1.1%)");
        return harness.finish();
    });
}
