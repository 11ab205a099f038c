/**
 * @file
 * Ablation: FC reliability-aware migration design points.
 *
 * Two of the design choices behind Section 6.1/6.2 that the paper
 * fixes by construction: the interval length (interacting with risk
 * estimation accuracy — the Wr ratio needs enough samples) and the
 * per-interval migration budget (the scaled stand-in for the
 * paper's unbounded-but-bandwidth-limited migration volume).
 */

#include <iostream>
#include <string>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("ablation_thresholds", [&] {
        Harness harness("ablation_thresholds", argc, argv);
        const SystemConfig base = harness.config();

        const std::vector<WorkloadSpec> specs = {
            homogeneousWorkload("mcf"),
            homogeneousWorkload("lulesh"), mixWorkload("mix1")};
        const auto profiled = harness.profileAll(specs);

        const std::vector<Cycle> intervals = {1'600'000, 3'200'000,
                                              6'400'000};
        const std::vector<std::uint32_t> caps = {64, 256, 1024};
        struct Point
        {
            Cycle interval;
            std::uint32_t cap;
            std::size_t workload;
        };
        std::vector<Point> points;
        for (const Cycle interval : intervals)
            for (const std::uint32_t cap : caps)
                for (std::size_t w = 0; w < profiled.size(); ++w)
                    points.push_back({interval, cap, w});

        // The interval/cap change the perf-focused baseline too, so
        // both passes run per design point: even index = perf
        // baseline, odd index = the reliability-aware engine.
        std::vector<PassDesc> descs;
        for (const Point &point : points) {
            const std::string suffix =
                "@fc" + std::to_string(point.interval) + "x" +
                std::to_string(point.cap);
            const auto &wl = profiled[point.workload];
            descs.push_back({wl, "perf" + suffix});
            descs.push_back({wl, "fcrel" + suffix});
        }

        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const Point &point = points[i / 2];
                SystemConfig config = base;
                config.fcIntervalCycles = point.interval;
                config.fcMigrationCapPages = point.cap;
                const auto &wl = *profiled[point.workload];
                const std::string suffix =
                    "@fc" + std::to_string(point.interval) + "x" +
                    std::to_string(point.cap);

                SimResult result;
                if (i % 2 == 0) {
                    result = runDynamic(config, wl.data,
                                        DynamicScheme::PerfFocused,
                                        wl.profile());
                } else {
                    FcReliabilityMigration engine(point.interval,
                                                  point.cap);
                    result = runWithEngine(config, wl.data, engine,
                                           wl.profile());
                }
                result.label += suffix;
                return result;
            });

        TextTable table({"interval", "cap", "workload",
                         "IPC vs perf-mig", "SER reduction"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &point = points[i];
            const auto &wl = *profiled[point.workload];
            const auto &perf_out = outcomes[2 * i];
            const auto &rel_out = outcomes[2 * i + 1];
            if (!perf_out.ok() || !rel_out.ok()) {
                table.addRow(
                    {TextTable::num(
                         static_cast<std::uint64_t>(point.interval)),
                     TextTable::num(
                         static_cast<std::uint64_t>(point.cap)),
                     wl.name(),
                     statusCell(perf_out.ok() ? rel_out : perf_out),
                     "-"});
                continue;
            }
            const auto &perf = perf_out.result;
            const auto &result = rel_out.result;
            table.addRow({
                TextTable::num(
                    static_cast<std::uint64_t>(point.interval)),
                TextTable::num(
                    static_cast<std::uint64_t>(point.cap)),
                wl.name(),
                TextTable::ratio(result.ipc / perf.ipc),
                TextTable::ratio(perf.ser / result.ser, 1),
            });
        }
        table.print(std::cout,
                    "Ablation: FC migration interval x budget");
        return harness.finish();
    });
}
