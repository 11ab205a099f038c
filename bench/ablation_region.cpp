/**
 * @file
 * Ablation: region-granularity placement and migration vs the
 * per-page policies.
 *
 * Three passes per workload: the paper's balanced static placement
 * at page granularity (the Section 5 reference), the same policy
 * decided over profile-seeded regions (buildRegionStaticPlacement),
 * and the dynamic region engine (adaptive merge/split monitor plus
 * declarative schemes). Quantifies what coarsening the placement
 * unit costs in IPC/SER against what it saves in tracked metadata
 * (the region engine's hardware cost is bounded by the region
 * budget, not the footprint).
 *
 * Flags (in addition to the shared harness flags):
 *   --regions N   RegionMonitor maxRegions (default 256)
 *   --scheme S    scheme list for the dynamic pass
 *                 (default: the balanced quadrant schemes)
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

namespace
{

struct AblationOptions
{
    std::uint64_t maxRegions = 256;
    std::vector<RegionScheme> schemes;
};

AblationOptions
parseAblationOptions(const std::vector<std::string> &positional)
{
    AblationOptions options;
    options.schemes = defaultRegionSchemes();
    for (std::size_t i = 0; i < positional.size(); ++i) {
        const std::string &arg = positional[i];
        if (arg == "--regions") {
            options.maxRegions = perf::parseCountArg(
                "ablation_region", "--regions",
                perf::flagValue("ablation_region", positional, i,
                                "--regions"));
            if (options.maxRegions == 0) {
                std::cerr << "ablation_region: --regions needs a "
                             "positive integer, got '0'\n";
                std::exit(2);
            }
        } else if (arg == "--scheme") {
            std::string error;
            options.schemes = parseRegionSchemes(
                perf::flagValue("ablation_region", positional, i,
                                "--scheme"),
                error);
            if (!error.empty()) {
                std::cerr << "ablation_region: --scheme: " << error
                          << "\n";
                std::exit(2);
            }
        } else {
            std::cerr << "ablation_region: unknown argument '" << arg
                      << "'\n";
            std::exit(2);
        }
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchMain("ablation_region", [&] {
        Harness harness("ablation_region", argc, argv);
        const SystemConfig &config = harness.config();
        const AblationOptions options =
            parseAblationOptions(harness.options().positional);

        RegionConfig region_config;
        region_config.maxRegions = options.maxRegions;
        region_config.minRegions = std::min<std::uint64_t>(
            region_config.minRegions, options.maxRegions);

        const auto profiled = harness.profileAll(standardWorkloads());

        // Three passes per workload, in report order: balanced
        // page-granularity placement, the same policy over regions,
        // and the dynamic region engine. --regions and --scheme tag
        // the two region labels.
        const std::string tag = argumentsTag(harness);
        const std::vector<std::string> labels = {
            "balanced-page", "balanced-region" + tag,
            "region-migration" + tag};
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled)
            for (const auto &label : labels)
                descs.push_back({wl, label});
        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / labels.size()];
                switch (i % labels.size()) {
                case 0:
                    return runStaticPolicy(config, wl.data,
                                           StaticPolicy::Balanced,
                                           wl.profile());
                case 1:
                    return runRegionStatic(config, wl.data,
                                           StaticPolicy::Balanced,
                                           wl.profile(),
                                           region_config);
                default:
                    return runRegionDynamic(config, wl.data,
                                            wl.profile(),
                                            region_config,
                                            options.schemes);
                }
            });

        TextTable table({"workload", "page IPC", "region IPC",
                         "page SER", "region SER", "dyn IPC",
                         "dyn SER", "dyn moved"});
        RatioColumn ipc_cost, ser_cost;

        for (std::size_t i = 0; i < profiled.size(); ++i) {
            const auto &wl = *profiled[i];
            const auto *passes = &outcomes[labels.size() * i];
            const auto *failed = std::find_if(
                passes, passes + labels.size(),
                [](const PassOutcome &out) { return !out.ok(); });
            if (failed != passes + labels.size()) {
                table.addRow({wl.name(), statusCell(*failed), "-",
                              "-", "-", "-", "-", "-"});
                continue;
            }
            const auto &page = passes[0].result;
            const auto &region = passes[1].result;
            const auto &dynamic = passes[2].result;

            ipc_cost.add(region.ipc / page.ipc);
            ser_cost.add(region.ser / page.ser);
            table.addRow({
                wl.name(),
                TextTable::ratio(page.ipc / wl.base.ipc),
                TextTable::ratio(region.ipc / wl.base.ipc),
                TextTable::ratio(page.ser / wl.base.ser, 1),
                TextTable::ratio(region.ser / wl.base.ser, 1),
                TextTable::ratio(dynamic.ipc / wl.base.ipc),
                TextTable::ratio(dynamic.ser / wl.base.ser, 1),
                TextTable::num(dynamic.migratedPages),
            });
        }
        table.print(std::cout,
                    "Ablation: balanced placement at region "
                    "granularity (" +
                        TextTable::num(options.maxRegions) +
                        " regions max)");
        std::cout << "\nregion vs page static: IPC "
                  << TextTable::ratio(ipc_cost.mean())
                  << ", SER " << TextTable::ratio(ser_cost.mean(), 2)
                  << "\n";
        return harness.finish();
    });
}
