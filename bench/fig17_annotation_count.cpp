/**
 * @file
 * Figure 17: number of annotated program structures per workload.
 *
 * Paper: one annotation suffices for most workloads (average ~8);
 * cactusADM and mix1 are outliers needing 39 and 45 because their
 * hot & low-risk footprint is spread over many small structures.
 */

#include <iostream>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

int
main(int argc, char **argv)
{
    return benchMain("fig17_annotation_count", [&] {
        Harness harness("fig17_annotation_count", argc, argv);
        const SystemConfig &config = harness.config();

        const auto profiled = harness.profileAll(standardWorkloads());
        // Selecting annotations runs no simulation pass, so it maps
        // over the pool directly instead of through runPasses.
        const auto selections = harness.pool().map(
            profiled, [&](const ProfiledWorkloadPtr &wl) {
                return annotationsFor(wl->data, wl->profile(),
                                      config.hbmPages());
            });

        TextTable table({"workload", "annotations", "pinned pages",
                         "pinned MB", "HBM fill"});
        double total = 0;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const auto &selection = selections[i];
            total += static_cast<double>(selection.count());
            table.addRow({
                wl.name(),
                TextTable::num(
                    static_cast<std::uint64_t>(selection.count())),
                TextTable::num(selection.pinnedPages),
                TextTable::num(
                    static_cast<double>(selection.pinnedPages *
                                        pageSize) /
                        (1 << 20),
                    1),
                TextTable::percent(
                    static_cast<double>(selection.pinnedPages) /
                    static_cast<double>(config.hbmPages())),
            });
        }
        table.print(std::cout,
                    "Figure 17: annotated structures per workload "
                    "(paper: avg ~8; outliers cactusADM 39, mix1 45)");
        std::cout << "\naverage annotations: "
                  << TextTable::num(
                         total /
                             static_cast<double>(profiled.size()),
                         1)
                  << "\n";
        return harness.finish();
    });
}
