/**
 * @file
 * Table 3: summary of every placement/migration scheme.
 *
 * For each scheme, average IPC degradation and SER improvement
 * relative to its performance-focused counterpart (static schemes vs
 * perf-static, dynamic schemes vs perf-migration), plus the
 * hardware-cost analysis of Sections 6.3 / 6.4.2 at the paper's
 * unscaled capacities (17 GB HMA: 4.25M pages, 262K in HBM). All
 * nine passes of every workload fan out across the thread pool.
 */

#include <iostream>

#include "bench_common.hh"

using namespace ramp;
using namespace ramp::bench;

namespace
{

struct SchemeSummary
{
    std::string name;
    std::string paper; ///< the paper's (IPC loss, SER gain) cell
    RatioColumn ipcRatios;
    RatioColumn serReductions;
};

} // namespace

int
main(int argc, char **argv)
{
    return benchMain("table3_summary", [&] {
        Harness harness("table3_summary", argc, argv);
        const SystemConfig &config = harness.config();

        std::vector<SchemeSummary> summaries = {
            {"rel-focused [5.1]", "17% / 5.0x", {}, {}},
            {"balanced [5.2]", "14% / 3.0x", {}, {}},
            {"wr-ratio [5.4.1]", "8.1% / 1.8x", {}, {}},
            {"wr2-ratio [5.4.2]", "1% / 1.6x", {}, {}},
            {"fc-migration [6.2]", "6% / 1.8x", {}, {}},
            {"cc-migration [6.4]", "4.9% / 1.5x", {}, {}},
            {"annotations [7]", "1.1% / 1.3x", {}, {}},
        };

        // Nine passes per workload: both performance-focused
        // baselines, then the seven schemes in table order.
        const std::vector<std::string> labels = {
            "perf-static",  "perf-migration", "rel-focused",
            "balanced",     "wr-ratio",       "wr2-ratio",
            "fc-migration", "cc-migration",   "annotations"};
        const std::vector<StaticPolicy> static_schemes = {
            StaticPolicy::ReliabilityFocused, StaticPolicy::Balanced,
            StaticPolicy::WrRatio, StaticPolicy::Wr2Ratio};

        const auto profiled = harness.profileAll(standardWorkloads());
        std::vector<PassDesc> descs;
        for (const auto &wl : profiled)
            for (const auto &label : labels)
                descs.push_back({wl, label});

        const auto outcomes = harness.runPasses(
            descs, [&](std::size_t i) {
                const auto &wl = *profiled[i / labels.size()];
                const std::size_t pass = i % labels.size();
                switch (pass) {
                case 0:
                    return runStaticPolicy(config, wl.data,
                                           StaticPolicy::PerfFocused,
                                           wl.profile());
                case 1:
                    return runDynamic(config, wl.data,
                                      DynamicScheme::PerfFocused,
                                      wl.profile());
                case 2:
                case 3:
                case 4:
                case 5:
                    return runStaticPolicy(config, wl.data,
                                           static_schemes[pass - 2],
                                           wl.profile());
                case 6:
                    return runDynamic(config, wl.data,
                                      DynamicScheme::FcReliability,
                                      wl.profile());
                case 7:
                    return runDynamic(config, wl.data,
                                      DynamicScheme::CrossCounter,
                                      wl.profile());
                default:
                    return runAnnotated(config, wl.data,
                                        wl.profile());
                }
            });

        for (std::size_t w = 0; w < profiled.size(); ++w) {
            const auto *base = &outcomes[w * labels.size()];
            if (!base[0].ok() || !base[1].ok())
                continue;
            const auto &perf_static = base[0].result;
            const auto &perf_mig = base[1].result;
            for (std::size_t i = 0; i < summaries.size(); ++i) {
                if (!base[2 + i].ok())
                    continue;
                const auto &result = base[2 + i].result;
                // Schemes 4 and 5 are dynamic: their baseline is the
                // performance-focused migration, not the static
                // oracle.
                const auto &baseline =
                    (i == 4 || i == 5) ? perf_mig : perf_static;
                summaries[i].ipcRatios.add(result.ipc /
                                           baseline.ipc);
                summaries[i].serReductions.add(baseline.ser /
                                               result.ser);
            }
        }

        TextTable table({"scheme", "IPC loss", "SER gain",
                         "paper (IPC loss / SER gain)"});
        for (const auto &summary : summaries) {
            table.addRow({
                summary.name,
                summary.ipcRatios.lossCell(),
                summary.serReductions.averageCell(1),
                summary.paper,
            });
        }
        table.print(
            std::cout,
            "Table 3: scheme summary (static vs perf-static, "
            "dynamic vs perf-migration)");

        // Hardware cost at the paper's unscaled capacities.
        const std::uint64_t paper_total_pages =
            (17ULL << 30) / pageSize; // 1 GB HBM + 16 GB DDR
        const std::uint64_t paper_hbm_pages = (1ULL << 30) / pageSize;
        const PerfFocusedMigration perf(config.fcIntervalCycles);
        const FcReliabilityMigration fc(config.fcIntervalCycles);
        const CrossCounterMigration cc(config.meaIntervalCycles,
                                       config.fcPerMea());

        TextTable cost({"mechanism", "tracking storage", "paper"});
        auto kb = [](std::uint64_t bytes) {
            return TextTable::num(
                       static_cast<double>(bytes) / 1024.0, 1) +
                   " KB";
        };
        const auto perf_cost = perf.hardwareCostBytes(
            paper_total_pages, paper_hbm_pages);
        const auto fc_cost =
            fc.hardwareCostBytes(paper_total_pages, paper_hbm_pages);
        cost.addRow({"perf-migration (combined counters)",
                     kb(perf_cost), "4.25 MB"});
        cost.addRow({"fc-migration (split counters)", kb(fc_cost),
                     "8.5 MB"});
        cost.addRow({"fc additional vs perf",
                     kb(fc_cost - perf_cost), "4.25 MB"});
        cost.addRow({"cc-migration (risk FC + MEA + remap)",
                     kb(cc.hardwareCostBytes(paper_total_pages,
                                             paper_hbm_pages)),
                     "676 KB"});
        std::cout << "\n";
        cost.print(std::cout,
                   "Hardware cost analysis (Sections 6.3, 6.4.2; "
                   "unscaled 17 GB HMA)");
        return harness.finish();
    });
}
