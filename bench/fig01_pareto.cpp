/**
 * @file
 * Figure 1: reliability vs performance frontier of hot-page
 * placements.
 *
 * Sweeps the fraction of the HBM filled with the hottest pages (each
 * point is one static placement) over the paper's motivation
 * workloads (astar, cactusADM, mix1) and reports the averaged
 * normalised IPC and reliability. Reliability is plotted as the
 * paper does: relative to the DDR-only SER (1.0 = most reliable).
 */

#include <iostream>
#include <string>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("fig01_pareto", [&] {
        Harness harness("fig01_pareto", argc, argv);
        const SystemConfig &config = harness.config();
        const auto profiled =
            harness.profileAll(motivationWorkloads());

        const std::vector<double> fractions = {0.0, 0.1, 0.2, 0.3,
                                               0.4, 0.5, 0.6, 0.7,
                                               0.8, 0.9, 1.0};

        // One pass per (fraction, workload) point; the last
        // "fraction" index is the balanced placement the paper
        // contrasts against.
        struct Point
        {
            std::size_t sweep;
            std::size_t workload;
        };
        std::vector<Point> points;
        std::vector<PassDesc> descs;
        for (std::size_t f = 0; f <= fractions.size(); ++f)
            for (std::size_t w = 0; w < profiled.size(); ++w) {
                points.push_back({f, w});
                const std::string label =
                    f == fractions.size()
                        ? "balanced"
                        : "hot@" + TextTable::num(fractions[f], 1);
                descs.push_back({profiled[w], label});
            }

        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const Point &point = points[i];
                const auto &wl = *profiled[point.workload];
                if (point.sweep == fractions.size())
                    return runStaticPolicy(config, wl.data,
                                           StaticPolicy::Balanced,
                                           wl.profile());
                SimResult result =
                    runHotFraction(config, wl.data, wl.profile(),
                                   fractions[point.sweep]);
                result.label += '@';
                result.label += TextTable::num(fractions[point.sweep], 1);
                return result;
            });

        TextTable table({"hot fraction", "IPC vs DDR-only",
                         "SER vs DDR-only", "reliability (1/SER)"});
        for (std::size_t f = 0; f <= fractions.size(); ++f) {
            RatioColumn ipc_ratios, ser_ratios;
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (points[i].sweep != f || !outcomes[i].ok())
                    continue;
                const auto &wl = *profiled[points[i].workload];
                ipc_ratios.add(outcomes[i].result.ipc / wl.base.ipc);
                ser_ratios.add(outcomes[i].result.ser / wl.base.ser);
            }
            const bool balanced = f == fractions.size();
            table.addRow(
                {balanced ? "balanced"
                          : TextTable::num(fractions[f], 1),
                 ipc_ratios.averageCell(), ser_ratios.averageCell(1),
                 ser_ratios.values().empty()
                     ? "-"
                     : TextTable::num(1.0 / ser_ratios.mean(), 4)});
        }
        table.print(std::cout,
                    "Figure 1: performance vs reliability "
                    "(astar, cactusADM, mix1 average)");
        return harness.finish();
    });
}
