/**
 * @file
 * Calibration probe: verifies the DESIGN.md Section 5 population
 * targets for every workload (AVF span, correlations, quadrant
 * fractions, IPC/SER ratios, migration volumes).
 *
 * Not a paper figure; this is the development/ablation aid used to
 * calibrate the synthetic workload profiles, and it documents how
 * the calibration targets are measured.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "placement/quadrant.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("calibration_probe", [&] {
        Harness harness("calibration_probe", argc, argv);
        const SystemConfig &config = harness.config();

        const auto profiled = harness.profileAll(standardWorkloads());

        // Two passes per workload: even index = perf-focused
        // static placement, odd index = perf-focused migration.
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

        TextTable table({"workload", "pages", "AVF", "MPKI",
                         "IPCddr", "IPCperf", "SERperf", "hot&low",
                         "r(h,a)", "r(wr,a)", "mig/int", "ints"});

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const PageProfile &profile = wl.profile();
            const auto &perf_out = outcomes[2 * i];
            const auto &mig_out = outcomes[2 * i + 1];
            if (!perf_out.ok() || !mig_out.ok()) {
                std::vector<std::string> row(12, "-");
                row[0] = wl.name();
                row[1] = statusCell(perf_out.ok() ? mig_out
                                                  : perf_out);
                table.addRow(row);
                continue;
            }
            const auto &perf = perf_out.result;
            const auto &mig = mig_out.result;

            const auto quadrants = analyzeQuadrants(profile);

            std::vector<double> hot, avf, wr;
            for (const auto &[page, stats] : profile.pages()) {
                hot.push_back(static_cast<double>(stats.hotness()));
                avf.push_back(stats.avf);
                wr.push_back(stats.wrRatio());
            }

            const double intervals =
                static_cast<double>(mig.makespan) /
                static_cast<double>(config.fcIntervalCycles);
            table.addRow({
                wl.name(),
                TextTable::num(static_cast<std::uint64_t>(
                    profile.footprintPages())),
                TextTable::percent(wl.base.memoryAvf),
                TextTable::num(wl.base.mpki, 1),
                TextTable::num(wl.base.ipc, 2),
                TextTable::ratio(perf.ipc / wl.base.ipc),
                TextTable::ratio(perf.ser / wl.base.ser, 1),
                TextTable::percent(quadrants.hotLowRiskFraction()),
                TextTable::num(pearsonCorrelation(hot, avf), 2),
                TextTable::num(pearsonCorrelation(wr, avf), 2),
                TextTable::num(static_cast<std::uint64_t>(
                    static_cast<double>(mig.migratedPages) /
                    std::max(1.0, intervals))),
                TextTable::num(intervals, 1),
            });
        }
        table.print(std::cout,
                    "calibration probe (DESIGN.md Section 5)");
        return harness.finish();
    });
}
