/**
 * @file
 * Figure 13: migration-interval sweep.
 *
 * The paper sweeps the Full-Counter migration interval over three
 * workloads of low/medium/high memory intensity and finds 100 ms
 * best; MemPod-style MEA mechanisms prefer much smaller intervals
 * (Section 6.4.3). Here both sweeps run at the scaled time axis
 * (SystemConfig defaults correspond to the paper's 100 ms / 50 us).
 */

#include <iostream>
#include <string>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("fig13_interval_sweep", [&] {
        Harness harness("fig13_interval_sweep", argc, argv);
        const SystemConfig config = harness.config();

        // Low / medium / high memory intensity.
        const std::vector<WorkloadSpec> specs = {
            homogeneousWorkload("astar"),
            homogeneousWorkload("lulesh"),
            homogeneousWorkload("mcf")};
        const auto profiled = harness.profileAll(specs);

        const std::vector<Cycle> fc_intervals = {
            800'000, 1'600'000, 3'200'000, 6'400'000, 12'800'000};
        struct Point
        {
            std::size_t sweep;
            std::size_t workload;
        };
        std::vector<Point> fc_points;
        std::vector<PassDesc> fc_descs;
        for (std::size_t s = 0; s < fc_intervals.size(); ++s)
            for (std::size_t w = 0; w < profiled.size(); ++w) {
                fc_points.push_back({s, w});
                fc_descs.push_back(
                    {profiled[w],
                     "fc@" + std::to_string(fc_intervals[s])});
            }

        const auto fc_outcomes = harness.runPasses(
            fc_descs, [&](std::size_t i) {
                const Point &point = fc_points[i];
                SystemConfig swept = config;
                swept.fcIntervalCycles = fc_intervals[point.sweep];
                const auto &wl = *profiled[point.workload];
                SimResult result =
                    runDynamic(swept, wl.data,
                               DynamicScheme::PerfFocused,
                               wl.profile());
                result.label +=
                    "@fc" + std::to_string(swept.fcIntervalCycles);
                return result;
            });

        TextTable fc_table({"FC interval (cycles)", "astar IPC",
                            "lulesh IPC", "mcf IPC",
                            "mean vs default"});
        std::vector<double> defaults;
        for (std::size_t s = 0; s < fc_intervals.size(); ++s) {
            std::vector<std::string> row = {TextTable::num(
                static_cast<std::uint64_t>(fc_intervals[s]))};
            std::vector<double> ipcs;
            bool complete = true;
            for (std::size_t w = 0; w < profiled.size(); ++w) {
                const auto &out =
                    fc_outcomes[s * profiled.size() + w];
                if (!out.ok()) {
                    complete = false;
                    row.push_back(statusCell(out));
                    continue;
                }
                ipcs.push_back(out.result.ipc);
                row.push_back(TextTable::num(out.result.ipc, 2));
            }
            if (complete &&
                fc_intervals[s] == config.fcIntervalCycles)
                defaults = ipcs;
            RatioColumn rel;
            if (complete && !defaults.empty())
                for (std::size_t w = 0; w < ipcs.size(); ++w)
                    rel.add(ipcs[w] / defaults[w]);
            row.push_back(rel.averageCell());
            fc_table.addRow(row);
        }
        fc_table.print(std::cout,
                       "Figure 13: FC migration interval sweep "
                       "(default = scaled 100 ms)");

        const std::vector<Cycle> mea_intervals = {25'000, 50'000,
                                                  100'000, 200'000};
        std::vector<Point> mea_points;
        std::vector<PassDesc> mea_descs;
        for (std::size_t s = 0; s < mea_intervals.size(); ++s)
            for (std::size_t w = 0; w < profiled.size(); ++w) {
                mea_points.push_back({s, w});
                mea_descs.push_back(
                    {profiled[w],
                     "mea@" + std::to_string(mea_intervals[s])});
            }

        const auto mea_outcomes = harness.runPasses(
            mea_descs, [&](std::size_t i) {
                const Point &point = mea_points[i];
                SystemConfig swept = config;
                swept.meaIntervalCycles = mea_intervals[point.sweep];
                const auto &wl = *profiled[point.workload];
                SimResult result =
                    runDynamic(swept, wl.data,
                               DynamicScheme::CrossCounter,
                               wl.profile());
                result.label +=
                    "@mea" + std::to_string(swept.meaIntervalCycles);
                return result;
            });

        TextTable mea_table({"MEA interval (cycles)", "astar IPC",
                             "lulesh IPC", "mcf IPC"});
        for (std::size_t s = 0; s < mea_intervals.size(); ++s) {
            std::vector<std::string> row = {TextTable::num(
                static_cast<std::uint64_t>(mea_intervals[s]))};
            for (std::size_t w = 0; w < profiled.size(); ++w) {
                const auto &out =
                    mea_outcomes[s * profiled.size() + w];
                row.push_back(out.ok()
                                  ? TextTable::num(out.result.ipc, 2)
                                  : statusCell(out));
            }
            mea_table.addRow(row);
        }
        std::cout << "\n";
        mea_table.print(
            std::cout,
            "Figure 13 (cont.): MEA interval sweep for the "
            "cross-counter scheme (default = scaled 50 us)");
        return harness.finish();
    });
}
