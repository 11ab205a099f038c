/**
 * @file
 * Ablation: cross-counter performance-unit sizing (Section 6.4).
 *
 * Sweeps the MEA map size (MemPod uses 32 entries) and the
 * per-MEA-interval promotion budget, on the striding workload the
 * paper calls out (cactusADM) and on mix1.
 */

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("ablation_mea", [&] {
        Harness harness("ablation_mea", argc, argv);
        const SystemConfig &config = harness.config();

        const std::vector<WorkloadSpec> specs = {
            homogeneousWorkload("cactusADM"), mixWorkload("mix1")};
        const auto profiled = harness.profileAll(specs);

        const std::vector<std::size_t> entry_counts = {8, 16, 32,
                                                       64};
        const std::vector<std::uint32_t> caps = {4, 8, 16};
        struct Point
        {
            std::size_t entries;
            std::uint32_t cap;
            std::size_t workload;
        };
        std::vector<Point> points;
        for (const std::size_t entries : entry_counts)
            for (const std::uint32_t cap : caps)
                for (std::size_t w = 0; w < profiled.size(); ++w)
                    points.push_back({entries, cap, w});

        // The perf-focused migration baseline does not depend on the
        // swept MEA parameters: one pass per workload first, then
        // one pass per sweep point.
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled)
            descs.push_back({wl, "perf-migration"});
        for (const Point &point : points)
            descs.push_back({profiled[point.workload],
                             "mea" + std::to_string(point.entries) +
                                 "x" + std::to_string(point.cap)});

        // The remap hit ratio is not part of SimResult: each sweep
        // pass writes its own slot, which stays empty when the pass
        // is replayed from the checkpoint journal.
        std::vector<std::optional<double>> remap_hit(points.size());
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                if (i < profiled.size())
                    return runDynamic(config, profiled[i]->data,
                                      DynamicScheme::PerfFocused,
                                      profiled[i]->profile());
                const std::size_t p = i - profiled.size();
                const Point &point = points[p];
                const auto &wl = *profiled[point.workload];
                CrossCounterMigration engine(
                    config.meaIntervalCycles, config.fcPerMea(),
                    point.entries, point.cap,
                    config.fcMigrationCapPages);
                SimResult result = runWithEngine(
                    config, wl.data, engine, wl.profile());
                result.label += "@" + descs[i].label;
                remap_hit[p] = engine.remapCache().hitRatio();
                return result;
            });

        TextTable table({"MEA entries", "promo cap", "workload",
                         "IPC vs perf-mig", "SER reduction",
                         "remap hit ratio"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &point = points[i];
            const auto &perf_out = outcomes[point.workload];
            const auto &out = outcomes[profiled.size() + i];
            const std::string entries = TextTable::num(
                static_cast<std::uint64_t>(point.entries));
            const std::string cap =
                TextTable::num(static_cast<std::uint64_t>(point.cap));
            const std::string &name =
                profiled[point.workload]->name();
            if (!perf_out.ok() || !out.ok()) {
                table.addRow({entries, cap, name,
                              statusCell(perf_out.ok() ? out
                                                       : perf_out),
                              "-", "-"});
                continue;
            }
            const auto &perf = perf_out.result;
            const auto &result = out.result;
            table.addRow({
                entries,
                cap,
                name,
                TextTable::ratio(result.ipc / perf.ipc),
                TextTable::ratio(perf.ser / result.ser, 1),
                remap_hit[i] ? TextTable::percent(*remap_hit[i])
                             : "-",
            });
        }
        table.print(std::cout,
                    "Ablation: MEA entries x promotion budget");
        return harness.finish();
    });
}
